"""The quasi-shuffle Hopf algebra on integer compositions.

The product is the stuffle recursion

    [s1, s'] * [t1, t'] = [s1, s' * [t1,t']] + [t1, [s1,s'] * t']
                          + [s1+t1, s' * t']

which matches multiplication of the underlying nested series, e.g.
``stuffle([2], [2]) = 2*[2,2] + [4]``.  The coproduct is deconcatenation,
the counit picks the unit coefficient, and the antipode has the closed
quasisymmetric-function form

    antipode([a]) = (-1)^depth(a) * sum of the coarsenings of reversed(a).

``canonical_character`` is the multiplicative functional sending the unit
and every depth-one composition to 1 and deeper compositions to 0.
"""

from __future__ import annotations

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


@lru_cache(maxsize=1 << 17)
def _stuffle_pair(a: Composition, b: Composition) -> tuple[tuple[Composition, int], ...]:
    # callers keep a <= b lexicographically; the recursion is symmetric
    if not a:
        return ((b, 1),)
    if not b:
        return ((a, 1),)
    out: dict[Composition, int] = {}
    heads = (
        (a[0], _stuffle_basis(a[1:], b)),
        (b[0], _stuffle_basis(a, b[1:])),
        (a[0] + b[0], _stuffle_basis(a[1:], b[1:])),
    )
    for head, dist in heads:
        for c, n in dist:
            key = Composition((head,) + tuple(c))
            out[key] = out.get(key, 0) + n
    return tuple(out.items())


def _stuffle_basis(a: Composition, b: Composition) -> tuple[tuple[Composition, int], ...]:
    return _stuffle_pair(a, b) if tuple(a) <= tuple(b) else _stuffle_pair(b, a)


def stuffle(a, b) -> Element:
    """Bilinear stuffle (quasi-shuffle) product; compositions are promoted."""
    da, left = common_denominator(as_element(a)._terms.items())
    db, right = common_denominator(as_element(b)._terms.items())
    return Element._raw(
        scaled_sum(
            ((_stuffle_basis(c1, c2), m * n) for c1, m in left for c2, n in right),
            da * db,
        )
    )


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
