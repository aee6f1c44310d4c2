"""The quasi-shuffle Hopf algebra on integer compositions.

One cached recursion computes both products of this package, which are
quasi-shuffles (Hoffman, "Quasi-shuffle products", J. Algebraic Combin. 11,
2000).  For first letters ``a, b`` with the bracket ``<a,b>``:

    [a, u] * [b, v] = [a, u * [b,v]] + [b, [a,u] * v] + [<a,b>, u * v]

The stuffle's letters are parts, with ``<s,t> = s + t``, as in the product of
nested series: ``stuffle([2], [2]) = 2*[2,2] + [4]``.  The shuffle is the case
of ``x0, x1`` words with the zero bracket, which drops the third term.

The coproduct is deconcatenation, the counit picks the unit coefficient,
and the antipode has the closed quasisymmetric-function form

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


@lru_cache(maxsize=1 << 18)
def _quasi_shuffle(u, v, unit, bracket: bool) -> tuple:
    # the recursion of the module docstring; callers keep u <= v, so each
    # unordered pair is cached once and only u can be empty
    if not v:
        return ((unit, 1),)
    steps = [(v[:1], _pair(u, v[1:], unit, bracket))]
    if u:
        steps.insert(0, (u[:1], _pair(u[1:], v, unit, bracket)))
        if bracket:
            steps.append(((u[0] + v[0],), _pair(u[1:], v[1:], unit, bracket)))
    out = {}
    get = out.get
    for first, cells in steps:
        # a one-letter head joined to cached keys: for compositions only the
        # head goes through the validating constructor
        head = unit + first
        for w, n in cells:
            key = head + w
            out[key] = get(key, 0) + n
    return tuple(out.items())


def _pair(u, v, unit, bracket: bool) -> tuple:
    """The quasi-shuffle ``u * v`` as ``((unit + word, int), ...)`` of two
    ``x0, x1`` words (``unit = ""``) or tuples of parts (``unit = UNIT``)."""
    return _quasi_shuffle(u, v, unit, bracket) if u <= v else _quasi_shuffle(v, u, unit, bracket)


def _product(a, b, encode, unit, bracket: bool) -> dict:
    """Bilinear extension of :func:`_pair` to elements, as ``{key: exact
    coefficient}``; ``encode`` maps a composition to a word of the alphabet."""
    da, left = common_denominator((encode(c), q) for c, q in as_element(a)._terms.items())
    db, right = common_denominator((encode(c), q) for c, q in as_element(b)._terms.items())
    return scaled_sum(
        ((_pair(u, v, unit, bracket), m * n) for u, m in left for v, n in right),
        da * db,
    )


def stuffle(a, b) -> Element:
    """Bilinear stuffle (quasi-shuffle) product; compositions are promoted."""
    # plain tuples order natively; Compositions of two weights do not compare
    return Element._raw(_product(a, b, tuple, UNIT, True))


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
