"""Sparse exact-rational linear combinations of compositions and tensors.

:class:`Element` is a finite rational linear combination of compositions; the
zero element is the empty combination and the algebra unit ``1`` is the basis
element at the empty composition.  :class:`TensorElement` is the analogous
combination of rank-``m`` pure tensors of compositions.  All arithmetic is
exact; floating point coefficients are rejected.

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


def _signed_join(pieces) -> str:
    """``(body, coefficient)`` pairs as ``"a - 2*b + 1/3*c"``."""
    chunks: list[str] = []
    for body, v in pieces:
        mag = abs(v)
        piece = body if mag == 1 else f"{mag}*{body}"
        if not chunks:
            chunks.append(piece if v > 0 else "-" + piece)
        else:
            chunks.append(("+ " if v > 0 else "- ") + piece)
    return " ".join(chunks)


class Element:
    """Finite rational linear combination of compositions."""

    __slots__ = ("_terms",)

    def __init__(self, terms=None):
        items = terms.items() if isinstance(terms, Mapping) else terms or ()
        self._terms = linear_combination(
            [(((Composition(k), coerce_coeff(v)) for k, v in items), 1)]
        )

    # -- construction ------------------------------------------------------

    @classmethod
    def basis(cls, c, coeff=1) -> "Element":
        e = cls.__new__(cls)
        v = coerce_coeff(coeff)
        e._terms = {Composition(c): v} if v else {}
        return e

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

    # -- access ------------------------------------------------------------

    def coefficient(self, c) -> Fraction:
        return Fraction(self._terms.get(Composition(c), 0))

    def terms(self) -> list[tuple[Composition, Fraction]]:
        """(composition, coefficient) pairs in the canonical serialization order."""
        return [
            (c, Fraction(v))
            for c, v in sorted(self._terms.items(), key=lambda kv: serial_key(kv[0]))
        ]

    def support(self) -> list[Composition]:
        return [c for c, _ in self.terms()]

    def max_weight(self) -> int:
        """Largest weight appearing in the support; 0 for the zero element."""
        return max((c.weight for c in self._terms), default=0)

    def __len__(self) -> int:
        return len(self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other) -> bool:
        if isinstance(other, Element):
            return self._terms == other._terms
        return NotImplemented

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    # -- linear structure --------------------------------------------------

    def __add__(self, other) -> "Element":
        if not isinstance(other, Element):
            return NotImplemented
        return Element._raw(
            linear_combination(((self._terms.items(), 1), (other._terms.items(), 1)))
        )

    def __sub__(self, other) -> "Element":
        if not isinstance(other, Element):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> "Element":
        return Element._raw({c: -v for c, v in self._terms.items()})

    def scaled(self, scalar) -> "Element":
        q = coerce_coeff(scalar)
        if not q:
            return Element()
        return Element._raw({c: v * q for c, v in self._terms.items()})

    def __mul__(self, scalar) -> "Element":
        return self.scaled(scalar)

    __rmul__ = __mul__

    def __truediv__(self, scalar) -> "Element":
        return self.scaled(Fraction(1, 1) / coerce_coeff(scalar))

    def map_basis(self, fn: Callable[[Composition], "Element"]) -> "Element":
        """Linear extension of a basis map fn: Composition -> Element."""
        return Element._raw(
            linear_combination((fn(c)._terms.items(), q) for c, q in self._terms.items())
        )

    # -- output ------------------------------------------------------------

    def to_records(self) -> list[dict]:
        """JSON-ready serialization: [{"coeff": "p/q", "comp": [ints]}, ...]."""
        return [
            {"coeff": str(v), "comp": list(c)}
            for c, v in self.terms()
        ]

    def __str__(self) -> str:
        """Canonical text form, parseable by the expression grammar."""
        if not self._terms:
            return "0*1"
        return _signed_join((str(c) if c else "1", v) for c, v in self.terms())

    def __repr__(self) -> str:
        return f"Element({{{', '.join(f'{c}: {v}' for c, v in self.terms())}}})"


class TensorElement:
    """Finite rational linear combination of rank-``m`` pure tensors."""

    __slots__ = ("_rank", "_terms")

    def __init__(self, rank: int, terms=None):
        if rank < 1:
            raise ValueError("tensor rank must be >= 1")
        self._rank = rank

        def checked(key) -> tuple[Composition, ...]:
            k = tuple(Composition(f) for f in key)
            if len(k) != rank:
                raise ValueError(f"key {k} has rank {len(k)}, expected {rank}")
            return k

        items = terms.items() if isinstance(terms, Mapping) else terms or ()
        self._terms = linear_combination(
            [(((checked(k), coerce_coeff(v)) for k, v in items), 1)]
        )

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

    @property
    def rank(self) -> int:
        return self._rank

    def coefficient(self, factors) -> Fraction:
        key = tuple(Composition(f) for f in factors)
        return Fraction(self._terms.get(key, 0))

    def terms(self) -> list[tuple[tuple[Composition, ...], Fraction]]:
        return [
            (k, Fraction(v))
            for k, v in sorted(
                self._terms.items(),
                key=lambda kv: tuple(serial_key(f) for f in kv[0]),
            )
        ]

    def __len__(self) -> int:
        return len(self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other) -> bool:
        if isinstance(other, TensorElement):
            return self._rank == other._rank and self._terms == other._terms
        return NotImplemented

    def __hash__(self):
        return hash((self._rank, frozenset(self._terms.items())))

    def _require_same_rank(self, other: "TensorElement"):
        if self._rank != other._rank:
            raise ValueError(f"rank mismatch: {self._rank} vs {other._rank}")

    def __add__(self, other) -> "TensorElement":
        if not isinstance(other, TensorElement):
            return NotImplemented
        self._require_same_rank(other)
        return TensorElement._raw(
            self._rank,
            linear_combination(((self._terms.items(), 1), (other._terms.items(), 1))),
        )

    def __sub__(self, other) -> "TensorElement":
        if not isinstance(other, TensorElement):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> "TensorElement":
        return TensorElement._raw(self._rank, {k: -v for k, v in self._terms.items()})

    def scaled(self, scalar) -> "TensorElement":
        q = coerce_coeff(scalar)
        if not q:
            return TensorElement(self._rank)
        return TensorElement._raw(self._rank, {k: v * q for k, v in self._terms.items()})

    def __mul__(self, scalar) -> "TensorElement":
        return self.scaled(scalar)

    __rmul__ = __mul__

    def __truediv__(self, scalar) -> "TensorElement":
        return self.scaled(Fraction(1, 1) / coerce_coeff(scalar))

    def to_records(self) -> list[dict]:
        return [
            {"coeff": str(v), "comp": [list(f) for f in k]}
            for k, v in self.terms()
        ]

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        return _signed_join(
            ("(x)".join(str(f) if f else "1" for f in k), v) for k, v in self.terms()
        )

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
