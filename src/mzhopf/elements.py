"""Sparse exact-rational linear combinations of compositions and tensors.

Both are one data shape, a dict from key to nonzero exact coefficient, and
one private core holds their arithmetic, comparison and output.  Two sibling
classes give the key: :class:`Element` a composition (its zero is the empty
combination, its unit ``1`` the basis element at the empty composition),
:class:`TensorElement` a rank-``m`` tuple of compositions, so a tensor is
never an ``Element``.  All arithmetic is exact; floats are rejected.

Internally coefficients are stored as ``int`` when integral and
:class:`fractions.Fraction` otherwise.  Reading accessors always hand back
``Fraction``.  Both classes are immutable once built, so values can be shared
and memoized freely; term iteration is in the weight-major canonical order so
serialized output is reproducible.
"""

from __future__ import annotations

import numbers
from fractions import Fraction
from typing import Callable, Mapping, Union

from .compositions import Composition, UNIT, serial_key

__all__ = [
    "Rational", "coerce_coeff", "Element", "TensorElement", "as_element",
    "graded_component", "component_weights", "componentwise_product",
]

Rational = Union[int, Fraction]


def coerce_coeff(value) -> Rational:
    """Exact coefficient from int/Fraction/string; floats are refused."""
    if type(value) is int:
        return value
    if isinstance(value, Fraction):
        return int(value) if value.denominator == 1 else value
    if isinstance(value, float):
        raise TypeError(f"refusing inexact coefficient {value!r}")
    if isinstance(value, (str, numbers.Integral)):
        f = Fraction(value)
        return int(f) if f.denominator == 1 else f
    raise TypeError(f"cannot use {value!r} as an exact coefficient")


_DICT_ITEMS = type({}.items())


def linear_combination(parts) -> dict:
    """Sparse sum of scaled parts: ``{key: sum of q * v}``.

    Each item of ``parts`` is a pair ``(pairs, q)``; every ``(key, v)`` in
    ``pairs`` adds ``q * v`` to ``key``.  Zero coefficients are dropped once,
    at the end.  Parts are taken one at a time and each is used up before
    the next is drawn, so a generator of parts may hand out generators that
    read its own loop variables.
    """
    out: dict = {}
    get = out.get
    for pairs, q in parts:
        if q == 1 and not out and type(pairs) is _DICT_ITEMS:
            # the keys of a dict are distinct, so the sum so far is a copy
            # of that dict, which is far cheaper than adding term by term
            out = pairs.mapping.copy()
            get = out.get
        elif q == 1:
            # Fraction * 1 still builds a new Fraction
            for key, v in pairs:
                out[key] = get(key, 0) + v
        else:
            for key, v in pairs:
                out[key] = get(key, 0) + q * v
    if all(out.values()):
        return out
    return {k: v for k, v in out.items() if v}


class _SparseCombination:
    """The core that :class:`Element` and :class:`TensorElement` share.

    A subclass gives the shape of one key: ``_lookup_key`` converts it,
    ``_key`` converts and validates it, ``_sort_key``, ``_key_text`` and
    ``_key_record`` order and render it, ``_zero_text`` renders no terms,
    ``_like`` wraps trusted terms in the same class and rank, and ``_rank`` is
    the tensor rank that two operands must share.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms=None):
        items = terms.items() if isinstance(terms, Mapping) else terms or ()
        key = self._key
        self._terms = linear_combination(
            [(((key(k), coerce_coeff(v)) for k, v in items), 1)]
        )

    def _require_same_rank(self, other) -> None:
        if self._rank != other._rank:
            raise ValueError(f"rank mismatch: {self._rank} vs {other._rank}")

    # -- access ------------------------------------------------------------

    def coefficient(self, key) -> Fraction:
        # not validated: a tensor key of another rank has coefficient 0
        return Fraction(self._terms.get(self._lookup_key(key), 0))

    def terms(self) -> list[tuple]:
        """(key, coefficient) pairs in the canonical serialization order."""
        sort_key = self._sort_key
        return [
            (k, Fraction(v))
            for k, v in sorted(self._terms.items(), key=lambda kv: sort_key(kv[0]))
        ]

    def __len__(self) -> int:  # also the truth value: nonzero iff any term
        return len(self._terms)

    def __eq__(self, other) -> bool:
        if isinstance(other, type(self)):
            return self._rank == other._rank and self._terms == other._terms
        return NotImplemented

    def __hash__(self):
        return hash((self._rank, frozenset(self._terms.items())))

    # -- linear structure --------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        self._require_same_rank(other)
        return self._like(
            linear_combination(((self._terms.items(), 1), (other._terms.items(), 1)))
        )

    def __sub__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return self._like({k: -v for k, v in self._terms.items()})

    def scaled(self, scalar):
        q = coerce_coeff(scalar)
        if not q:
            return self._like({})
        return self._like({k: v * q for k, v in self._terms.items()})

    def __mul__(self, scalar):
        return self.scaled(scalar)

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        return self.scaled(Fraction(1, 1) / coerce_coeff(scalar))

    # -- output ------------------------------------------------------------

    def to_records(self) -> list[dict]:
        """JSON-ready serialization: [{"coeff": "p/q", "comp": ...}, ...]."""
        record = self._key_record
        return [{"coeff": str(v), "comp": record(k)} for k, v in self.terms()]

    def __str__(self) -> str:
        """Canonical text form, signed terms such as ``1/2*[2] - [1,1]``."""
        if not self._terms:
            return self._zero_text
        chunks: list[str] = []
        for k, v in self.terms():
            body = self._key_text(k)
            mag = abs(v)
            piece = body if mag == 1 else f"{mag}*{body}"
            if not chunks:
                chunks.append(piece if v > 0 else "-" + piece)
            else:
                chunks.append(("+ " if v > 0 else "- ") + piece)
        return " ".join(chunks)


class Element(_SparseCombination):
    """Finite rational linear combination of compositions; its text form
    parses back through the expression grammar."""

    __slots__ = ()
    _rank = None  # keys are bare compositions, so there is no rank to match
    _zero_text = "0*1"
    _key = _lookup_key = staticmethod(Composition)
    _sort_key = staticmethod(serial_key)
    _key_text = staticmethod(str)
    _key_record = staticmethod(list)

    # bound here, not just inherited: perfbench/tracing.py wraps them through
    # Element.__dict__, and a class that binds __eq__ must bind __hash__ too
    __add__ = _SparseCombination.__add__
    __sub__ = _SparseCombination.__sub__
    __neg__ = _SparseCombination.__neg__
    __mul__ = _SparseCombination.__mul__
    __rmul__ = _SparseCombination.__rmul__
    scaled = _SparseCombination.scaled
    __truediv__ = _SparseCombination.__truediv__
    __eq__ = _SparseCombination.__eq__
    __hash__ = _SparseCombination.__hash__

    @classmethod
    def basis(cls, c, coeff=1) -> "Element":
        v = coerce_coeff(coeff)
        return cls._raw({Composition(c): v} if v else {})

    @classmethod
    def unit(cls) -> "Element":
        return cls.basis(UNIT)

    @classmethod
    def zero(cls) -> "Element":
        return cls()

    @classmethod
    def _raw(cls, terms: dict) -> "Element":
        # trusted constructor: keys are Compositions, values nonzero exact
        e = cls.__new__(cls)
        e._terms = terms
        return e

    _like = _raw

    def support(self) -> list[Composition]:
        return [c for c, _ in self.terms()]

    def max_weight(self) -> int:
        """Largest weight appearing in the support; 0 for the zero element."""
        return max((c.weight for c in self._terms), default=0)

    def map_basis(self, fn: Callable[[Composition], "Element"]) -> "Element":
        """Linear extension of a basis map fn: Composition -> Element."""
        return Element._raw(
            linear_combination((fn(c)._terms.items(), q) for c, q in self._terms.items())
        )

    def __repr__(self) -> str:
        return f"Element({{{', '.join(f'{c}: {v}' for c, v in self.terms())}}})"


class TensorElement(_SparseCombination):
    """Finite rational linear combination of rank-``m`` pure tensors."""

    __slots__ = ("_rank",)
    _zero_text = "0"

    def __init__(self, rank: int, terms=None):
        if rank < 1:
            raise ValueError("tensor rank must be >= 1")
        self._rank = rank
        super().__init__(terms)

    @classmethod
    def basis(cls, factors, coeff=1) -> "TensorElement":
        factors = tuple(Composition(f) for f in factors)
        return cls(len(factors), {factors: coeff})

    @classmethod
    def _raw(cls, rank: int, terms: dict) -> "TensorElement":
        t = cls.__new__(cls)
        t._rank = rank
        t._terms = terms
        return t

    def _like(self, terms: dict) -> "TensorElement":
        return TensorElement._raw(self._rank, terms)

    @property
    def rank(self) -> int:
        return self._rank

    @staticmethod
    def _lookup_key(key) -> tuple[Composition, ...]:
        return tuple(Composition(f) for f in key)

    def _key(self, key) -> tuple[Composition, ...]:
        k = self._lookup_key(key)
        if len(k) != self._rank:
            raise ValueError(f"key {k} has rank {len(k)}, expected {self._rank}")
        return k

    @staticmethod
    def _sort_key(k: tuple[Composition, ...]) -> tuple:
        return tuple(serial_key(f) for f in k)

    @staticmethod
    def _key_text(k: tuple[Composition, ...]) -> str:
        return "(x)".join(map(str, k))

    @staticmethod
    def _key_record(k: tuple[Composition, ...]) -> list:
        return [list(f) for f in k]

    def __repr__(self) -> str:
        inner = ", ".join(
            "(" + ", ".join(str(f) for f in k) + f"): {v}" for k, v in self.terms()
        )
        return f"TensorElement(rank={self._rank}, {{{inner}}})"


def as_element(x) -> Element:
    """Promote a composition (or raw part tuple) to a basis Element."""
    if isinstance(x, Element):
        return x
    return Element.basis(Composition(x))


def graded_component(e: Element, n: int) -> Element:
    """The part of ``e`` supported in weight exactly ``n``."""
    return Element._raw({c: v for c, v in e._terms.items() if c.weight == n})


def component_weights(e: Element) -> list[int]:
    """Sorted weights occurring in the support of ``e``."""
    return sorted({c.weight for c in e._terms})


def componentwise_product(
    t1: TensorElement, t2: TensorElement, product: Callable[[Element, Element], Element]
) -> TensorElement:
    """Apply a bilinear product factor by factor: (u1 (x) v1)·(u2 (x) v2) etc."""
    t1._require_same_rank(t2)

    def factorwise(k1, k2) -> list[tuple[tuple[Composition, ...], Rational]]:
        partials: list[tuple[tuple[Composition, ...], Rational]] = [((), 1)]
        for a, b in zip(k1, k2):
            factor = product(Element.basis(a), Element.basis(b))._terms.items()
            partials = [
                (key + (c,), coeff * v) for key, coeff in partials for c, v in factor
            ]
        return partials

    return TensorElement._raw(
        t1.rank,
        linear_combination(
            (factorwise(k1, k2), q1 * q2)
            for k1, q1 in t1._terms.items()
            for k2, q2 in t2._terms.items()
        ),
    )
