"""The quasi-shuffle Hopf algebra on integer compositions.

One cached recursion computes both products of this package, which are
quasi-shuffles (Hoffman, "Quasi-shuffle products", J. Algebraic Combin. 11,
2000).  For last letters ``a, b`` with the bracket ``<a,b>``:

    [u, a] * [v, b] = [u * [v,b], a] + [[u,a] * v, b] + [u * v, <a,b>]

The stuffle's letters are parts, with ``<s,t> = s + t``, as in the product of
nested series: ``stuffle([2], [2]) = 2*[2,2] + [4]``.  The shuffle is the case
of ``x0, x1`` words with the zero bracket, which drops the third term.

The recursion runs on integer codes of the ``x0, x1`` word of a composition:
a leading 1 bit, then one bit per letter, so ``[s1, ..., sk]`` is built by
``w = (w << s) | 1`` per part and the unit is ``1``.  A letter ``(k, x)`` is
appended to a code as ``(w << k) | x``: a shuffle letter is one bit, a
stuffle letter ``s`` is ``(s, 1)``, and ``s`` is one more than the trailing
zeros of ``w >> 1``.  Each cache entry is a pair ``(codes, counts)`` of
``array("Q")``, two machine words per term.  An entry with a code of
``2**64`` or more, an output word of 64 or more letters (weight >= 64), or a
count that large keeps two tuples of ``int`` instead, as does the unit entry.
The product encodes each input term once, sums in integers over one common
denominator, and decodes each distinct output code once to a
``Composition`` after the sums are made exact; no ``str`` word or
``Composition`` is built inside the recursion.  It takes one stack frame
per letter, so products of words of several hundred letters exceed the
recursion limit.

The coproduct is deconcatenation, the counit picks the unit coefficient,
and the antipode has the closed quasisymmetric-function form

    antipode([a]) = (-1)^depth(a) * sum of the coarsenings of reversed(a).

``canonical_character`` is the multiplicative functional sending the unit
and every depth-one composition to 1 and deeper compositions to 0.
"""

from __future__ import annotations

from array import array
from collections.abc import Sequence
from fractions import Fraction
from functools import lru_cache

from .compositions import UNIT, Composition, coarsenings
from .elements import (
    Element,
    TensorElement,
    as_element,
    common_denominator,
    linear_combination,
    scaled_sum,
)

__all__ = [
    "stuffle",
    "coproduct",
    "counit",
    "antipode",
    "canonical_character",
]


def _code(c) -> int:
    """The integer code of the ``x0, x1`` word of ``c``: a leading 1 bit, then
    one bit per letter, so ``bin(_code(c))[3:] == encode_word(c)``."""
    w = 1
    for s in c:
        w = (w << s) | 1
    return w


@lru_cache(maxsize=1 << 16)
def _decode(w: int) -> Composition:
    """The composition of a code whose word is empty or ends in ``x1``."""
    # each run of x0 letters before an x1 is one part less one; the parts of
    # such a word are >= 1, so the validating constructor is skipped
    return tuple.__new__(Composition, [len(run) + 1 for run in bin(w)[3:].split("1")[:-1]])


@lru_cache(maxsize=1 << 18)
def _quasi_shuffle(u: int, v: int, bracket: bool) -> tuple[Sequence[int], Sequence[int]]:
    # the recursion of the module docstring on last letters; callers keep
    # u <= v, so each unordered pair is cached once and only u can be the unit
    if u == 1:
        return (v,), (1,)
    if bracket:
        # a last part s is s - 1 trailing x0 letters before the final x1
        s = ((u >> 1) & -(u >> 1)).bit_length()
        t = ((v >> 1) & -(v >> 1)).bit_length()
        steps = (
            (s, 1, _pair(u >> s, v, True)),
            (t, 1, _pair(u, v >> t, True)),
            (s + t, 1, _pair(u >> s, v >> t, True)),
        )
    else:
        steps = ((1, u & 1, _pair(u >> 1, v, False)), (1, v & 1, _pair(u, v >> 1, False)))
    out = {}
    get = out.get
    for k, x, (codes, counts) in steps:
        # appending the letter (k, x) to a cached code
        for w, n in zip(codes, counts):
            key = (w << k) | x
            out[key] = get(key, 0) + n
    try:
        # from a list an array is allocated at its exact size; from a dict
        # view it grows item by item and over-allocates by about 6 %
        return array("Q", list(out)), array("Q", list(out.values()))
    except OverflowError:
        # a code or count of 2**64 or more, as in the module docstring
        return tuple(out), tuple(out.values())


def _pair(u: int, v: int, bracket: bool) -> tuple[Sequence[int], Sequence[int]]:
    """The quasi-shuffle of two codes as ``(codes, counts)``: the shuffle of
    their words, or with ``bracket`` the stuffle of their compositions."""
    return _quasi_shuffle(u, v, bracket) if u <= v else _quasi_shuffle(v, u, bracket)


def _product(a, b, bracket: bool) -> dict:
    """Bilinear extension of :func:`_pair` to elements, as ``{composition:
    exact coefficient}``; each distinct output code is decoded once."""
    da, left = common_denominator((_code(c), q) for c, q in as_element(a)._terms.items())
    db, right = common_denominator((_code(c), q) for c, q in as_element(b)._terms.items())
    by_code = scaled_sum(
        ((zip(*_pair(u, v, bracket)), m * n) for u, m in left for v, n in right),
        da * db,
    )
    return {_decode(w): q for w, q in by_code.items()}


def stuffle(a, b) -> Element:
    """Bilinear stuffle (quasi-shuffle) product; compositions are promoted."""
    return Element._raw(_product(a, b, True))


def coproduct(e) -> TensorElement:
    """Deconcatenation: [s] -> sum of prefix (x) suffix over all depth+1 cuts."""
    return TensorElement._raw(
        2,
        linear_combination(
            ((((c[:j], c[j:]), 1) for j in range(len(c) + 1)), q)
            for c, q in as_element(e)._terms.items()
        ),
    )


def counit(e) -> Fraction:
    """Coefficient of the unit term."""
    return as_element(e).coefficient(UNIT)


@lru_cache(maxsize=None)
def _antipode_basis(c: Composition) -> Element:
    if not c:
        return Element.unit()
    sign = -1 if c.depth % 2 else 1
    rev = Composition(reversed(c))
    return Element._raw({d: sign for d in coarsenings(rev)})


def antipode(e) -> Element:
    """Antipode of the quasi-shuffle Hopf algebra (closed coarsening form)."""
    return as_element(e).map_basis(_antipode_basis)


def canonical_character(e) -> Fraction:
    """1 on the unit and each depth-one composition, 0 in depth >= 2, extended linearly."""
    e = as_element(e)
    total = 0
    for c, q in e._terms.items():
        if len(c) <= 1:
            total += q
    return Fraction(total)
