"""Integer compositions, their weight-graded total order, and the word encoding.

Compositions (finite sequences of positive integers) index the basis of both
algebras in this package.  A composition ``[s1, ..., sk]`` has weight
``s1 + ... + sk`` and depth ``k``; the empty composition is the unit of both
algebras and is printed as ``1``.

Within a fixed weight the compositions carry a total order: comparing two
distinct compositions at their first differing slot, the one with the
*smaller* part there is the *larger* composition.  At weight 4 the ascending
chain is therefore

    [4] < [3,1] < [2,2] < [2,1,1] < [1,3] < [1,2,1] < [1,1,2] < [1,1,1,1]

so ``[n]`` is minimal and ``[1,...,1]`` maximal.  Comparison across different
weights is undefined and raises :class:`WeightMismatchError`.

Words over a two-letter alphabet encode compositions: ``[s1, ..., sk]`` maps
to ``x0^(s1-1) x1 ... x0^(sk-1) x1``.  Words are plain strings over ``"0"``
and ``"1"``; a word is decodable exactly when it is empty or ends in ``"1"``.
"""

from __future__ import annotations

import itertools
import operator
from functools import lru_cache
from typing import Iterable, Iterator

X0 = "0"
X1 = "1"

#: Words are plain strings over the alphabet {X0, X1}.
Word = str


class WeightMismatchError(ValueError):
    """Comparison of compositions of different weights is undefined."""


class WordDecodeError(ValueError):
    """The word is not the encoding of any composition."""


class Composition(tuple):
    """An integer composition: an immutable tuple of parts ``>= 1``.

    ``Composition()`` is the empty composition (the algebra unit).  Instances
    hash and compare equal like plain tuples; the rich comparison operators
    ``<``, ``<=``, ``>``, ``>=`` implement the weight-graded order described
    in the module docstring and raise :class:`WeightMismatchError` across
    weights.  Concatenation with ``+`` yields a ``Composition``.
    """

    __slots__ = ()

    def __new__(cls, parts: Iterable[int] = ()):
        if type(parts) is cls:
            return parts
        parts = tuple(operator.index(p) for p in parts)
        for p in parts:
            if p < 1:
                raise ValueError(f"composition parts must be >= 1, got {p}")
        return tuple.__new__(cls, parts)

    @property
    def parts(self) -> tuple[int, ...]:
        return tuple(self)

    @property
    def weight(self) -> int:
        return sum(self)

    @property
    def depth(self) -> int:
        return len(self)

    @property
    def is_unit(self) -> bool:
        return not self

    def raised(self, index: int) -> "Composition":
        """Copy of self with the part at 0-based ``index`` incremented by 1."""
        parts = list(self)
        parts[index] += 1
        # incrementing keeps every part >= 1, so the validating __new__ is skipped
        return tuple.__new__(Composition, parts)

    def __getitem__(self, index):
        result = tuple.__getitem__(self, index)
        if isinstance(index, slice):
            return tuple.__new__(Composition, result)
        return result

    def __add__(self, other) -> "Composition":
        if type(other) is Composition:
            # both sides are valid already, so the join needs no second pass
            return tuple.__new__(Composition, tuple.__add__(self, other))
        return Composition(tuple(self) + tuple(other))

    def __radd__(self, other) -> "Composition":
        return Composition(tuple(other) + tuple(self))

    def __lt__(self, other) -> bool:
        return order_cmp(self, other) < 0

    def __le__(self, other) -> bool:
        return order_cmp(self, other) <= 0

    def __gt__(self, other) -> bool:
        return order_cmp(self, other) > 0

    def __ge__(self, other) -> bool:
        return order_cmp(self, other) >= 0

    def __repr__(self) -> str:
        return f"Composition({tuple(self)!r})"

    def __str__(self) -> str:
        if not self:
            return "1"
        return "[" + ",".join(str(p) for p in self) + "]"


#: The empty composition, unit of both algebras.
UNIT = Composition()


def order_cmp(a, b) -> int:
    """Three-way comparison in the weight-graded order: -1, 0 or +1.

    Raises WeightMismatchError unless both arguments have the same weight.
    """
    a = Composition(a)
    b = Composition(b)
    if a.weight != b.weight:
        raise WeightMismatchError(
            f"cannot compare {a} (weight {a.weight}) with {b} (weight {b.weight})"
        )
    for x, y in zip(a, b):
        if x != y:
            # the composition with the smaller part at the first
            # difference is the larger one
            return 1 if x < y else -1
    return 0


def order_key(c) -> tuple[int, ...]:
    """Sort key realizing the order within one weight: negated parts."""
    return tuple(-p for p in Composition(c))


def serial_key(c) -> tuple[int, tuple[int, ...]]:
    """Weight-major sort key used wherever mixed-weight output is serialized."""
    c = Composition(c)
    return (c.weight, order_key(c))


@lru_cache(maxsize=None)
def _basis(n: int) -> tuple[Composition, ...]:
    if n == 0:
        return (UNIT,)
    out = []
    # descending first part produces the ascending chain directly
    for first in range(n, 0, -1):
        for rest in _basis(n - first):
            out.append(Composition((first,) + tuple(rest)))
    return tuple(out)


def enumerate_basis(n: int) -> list[Composition]:
    """All compositions of weight ``n`` in ascending order (2^(n-1) of them)."""
    if n < 0:
        raise ValueError("weight must be >= 0")
    return list(_basis(n))


def compositions_up_to(max_weight: int) -> Iterator[Composition]:
    """Yield every composition of weight 0..max_weight, weight-major ascending."""
    for n in range(max_weight + 1):
        yield from _basis(n)


def concatenate(factors: Iterable) -> Composition:
    """Concatenation of several compositions; unit factors contribute nothing."""
    # each factor is validated once, so the joined parts need no second pass
    return tuple.__new__(Composition, itertools.chain.from_iterable(map(Composition, factors)))


def tensor_le(u, v) -> bool:
    """Pre-order on pure tensors: compare the concatenations of the factors.

    ``u`` and ``v`` are sequences of compositions.  This relation is reflexive
    and transitive but not antisymmetric: distinct tensors whose factors
    concatenate to the same composition compare both ways.
    """
    return order_cmp(concatenate(u), concatenate(v)) <= 0


@lru_cache(maxsize=1 << 15)
def encode_word(c) -> Word:
    """Word of a composition: each part s contributes ``"0"*(s-1) + "1"``."""
    return "".join(X0 * (p - 1) + X1 for p in Composition(c))


@lru_cache(maxsize=1 << 16)
def decode_word(w: Word) -> Composition:
    """Inverse of encode_word.  Raises WordDecodeError off the image."""
    if not w:
        return UNIT
    if set(w) - {X0, X1}:
        raise WordDecodeError(f"word {w!r} has letters outside {{{X0!r}, {X1!r}}}")
    if not w.endswith(X1):
        raise WordDecodeError(f"word {w!r} does not end in {X1!r}")
    return Composition(len(run) + 1 for run in w.split(X1)[:-1])


def coarsenings(c) -> frozenset[Composition]:
    """All compositions obtained by summing runs of consecutive parts.

    A depth-k composition has 2^(k-1) coarsenings (itself included); the unit
    coarsens only to itself.
    """
    c = Composition(c)
    if c.depth <= 1:
        return frozenset((c,))
    out = []
    for cuts in itertools.product((False, True), repeat=c.depth - 1):
        merged = [c[0]]
        for part, cut in zip(c[1:], cuts):
            if cut:
                merged.append(part)
            else:
                merged[-1] += part
        out.append(Composition(merged))
    return frozenset(out)


def is_admissible(c) -> bool:
    """True when the associated nested series converges: nonempty and first part >= 2."""
    c = Composition(c)
    return bool(c) and c[0] >= 2
