"""The shuffle Hopf algebra on integer compositions.

The product is the pullback of word interleaving through the encoding of
compositions as words: ``shuffle([2], [2]) = 4*[3,1] + 2*[2,2]``.
Interleaving is the zero-bracket case of the quasi-shuffle recursion of
:mod:`quasi_shuffle`, which also computes the stuffle.  The coproduct is
*not* deconcatenation: it sends ``[1,...,1]`` to
``sum [1^j] (x) [1^(k-j)]`` and commutes with the lifted raising operators
below, which build ``[s1,...,sk]`` as ``prod raise_part(i)^(si-1) / (si-1)!``
applied to ``[1,...,1]`` (verify's ``raising-commutation`` checks this).  It
is computed from the integer closed form of its reduced part

    sum over 1 <= j < k, 0 <= i < s_{j+1} of
        (-1)^i (R^i/i!)([s1,...,sj]) (x) [s_{j+1}-i, s_{j+2},...,sk]

with ``R = raise_prefix(j)``, so ``(R^i/i!)(a)`` sums
``prod C(al+ml-1, ml) * [a1+m1,...,aj+mj]`` over ``m1+...+mj = i``.  The
counit picks the coefficient of the unit.  The antipode is the closed form

    S([s1, t]) = (-1)^(1+|t|) (R^(s1-1)/(s1-1)!)([1, reversed(t)])

with ``R = raise_prefix(depth)`` and ``|t|`` the weight of ``t``.  No proof is
in hand; it equals the recursion ``S(c) = -c - sum S(u) sh v`` on every
composition of weight <= 13, and the tests check that through weight 10.

Raising operators.  ``raise_prefix(i, -)`` sends a basis composition to the
sum over the first ``i`` slots of (part value) times (that part incremented);
it vanishes for ``i <= 0``, for ``i > depth`` and on the unit.
``raise_part(i, -)`` is the difference ``raise_prefix(i) - raise_prefix(i-1)``
taken as the definition everywhere.  Concretely it scales-and-increments slot
``i`` for ``1 <= i <= depth``, it equals ``-raise_prefix(depth)`` at
``i = depth + 1``, and it vanishes further out.  The boundary value at
``depth + 1`` matters: inside the shifted tensor lift it produces the
negative coproduct terms (for example ``coproduct([1,2])`` contains
``-[2](x)[1]``) without which the coproduct would fail to be an algebra map.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement

from .compositions import (
    UNIT,
    X0,
    X1,
    Composition,
    Word,
    WordDecodeError,
)
from .elements import (
    Element,
    Rational,
    TensorElement,
    as_element,
    linear_combination,
)
from .quasi_shuffle import _pair, _product

__all__ = [
    "UnitTermError",
    "shuffle_words",
    "shuffle",
    "rota_baxter",
    "raise_prefix",
    "raise_part",
    "lifted_raise_prefix",
    "lifted_raise_part",
    "coproduct",
    "reduced_coproduct",
    "iterated_coproduct",
    "counit",
    "antipode",
]


class UnitTermError(ValueError):
    """The Rota-Baxter operator is undefined on the unit term."""


# ---------------------------------------------------------------------------
# product


def shuffle_words(u: Word, v: Word) -> dict[Word, int]:
    """Multiset of interleavings of two words, as word -> multiplicity.

    Raises WordDecodeError on a letter other than ``X0`` or ``X1``.
    """
    for w in (u, v):
        if set(w) - {X0, X1}:
            raise WordDecodeError(f"word {w!r} has letters outside {{{X0!r}, {X1!r}}}")
    codes, counts = _pair(int("1" + u, 2), int("1" + v, 2), False)
    return {bin(w)[3:]: n for w, n in zip(codes, counts)}


def shuffle(a, b) -> Element:
    """Bilinear shuffle product of two elements (compositions promoted)."""
    return Element._raw(_product(a, b, False))


def rota_baxter(e) -> Element:
    """Increment the first part of every term: the weight-0 Rota-Baxter operator.

    Satisfies rota_baxter(a) sh rota_baxter(b) =
    rota_baxter(a sh rota_baxter(b)) + rota_baxter(rota_baxter(a) sh b).
    Undefined when ``e`` has a unit term.
    """
    terms = as_element(e)._terms
    if UNIT in terms:
        raise UnitTermError("rota_baxter is undefined on the unit term")
    # raising the first part is injective, so no two terms meet
    return Element._raw({c.raised(0): q for c, q in terms.items()})


# ---------------------------------------------------------------------------
# raising operators


def _raisings(a: tuple, j: int, i: int, w0: int = 1):
    """Yield the (composition, int) terms of ``w0 * (R^i/i!)(a)``, ``R = raise_prefix(j)``;
    distinct raisings give distinct compositions, so no two terms meet."""
    for slots in combinations_with_replacement(range(j), i):
        u, w = list(a), w0
        for l in slots:
            # C(a+m-1, m) -> C(a+m, m+1) for part a raised m times so far
            w = w * u[l] // (u[l] - a[l] + 1)
            u[l] += 1
        yield tuple.__new__(Composition, u), w


def _raise_prefix_basis(i: int, c: Composition) -> tuple[tuple[Composition, int], ...]:
    if i < 1 or i > len(c):
        return ()
    return tuple(_raisings(c, i, 1))


def _raise_part_basis(i: int, c: Composition) -> tuple[tuple[Composition, int], ...]:
    # raise_prefix(i) - raise_prefix(i-1), evaluated directly
    k = len(c)
    if i < 1 or i > k + 1 or k == 0:
        return ()
    if i <= k:
        return ((c.raised(i - 1), c[i - 1]),)
    # boundary slot just past the depth: minus the full prefix sum
    return tuple(_raisings(c, k, 1, -1))


def raise_prefix(i: int, e) -> Element:
    """Sum over the first ``i`` slots of (part) * (composition with that slot raised)."""
    return as_element(e).map_basis(
        lambda c: Element(_raise_prefix_basis(i, c))
    )


def raise_part(i: int, e) -> Element:
    """The slotwise raising operator raise_prefix(i) - raise_prefix(i-1)."""
    return as_element(e).map_basis(
        lambda c: Element(_raise_part_basis(i, c))
    )


def _lift(basis_op, i: int, t: TensorElement) -> TensorElement:
    """Shifted tensor lift (op_i (x) id + id (x)~ op_i) on a rank-2 tensor.

    On a pure tensor u (x) v the left summand applies op at index ``i`` and
    the right one at index ``i - depth(u)``; out-of-range indices vanish
    inside the basis operator.
    """
    # Not built through linear_combination: each basis_op call gives 0 or 1
    # pairs, and one part per call made verify's two lifted-operator checks
    # 15-45% slower.  Zeros are still dropped once, at the end.
    out: dict[tuple[Composition, Composition], Rational] = {}
    get = out.get
    for (u, v), q in t._terms.items():
        for c, k in basis_op(i, u):
            key = (c, v)
            out[key] = get(key, 0) + q * k
        for c, k in basis_op(i - len(u), v):
            key = (u, c)
            out[key] = get(key, 0) + q * k
    if not all(out.values()):
        out = {key: q for key, q in out.items() if q}
    return TensorElement._raw(2, out)


def lifted_raise_prefix(i: int, t: TensorElement) -> TensorElement:
    """(raise_prefix_i (x) id + id (x)~ raise_prefix_i) on a rank-2 tensor."""
    return _lift(_raise_prefix_basis, i, t)


def lifted_raise_part(i: int, t: TensorElement) -> TensorElement:
    """(raise_part_i (x) id + id (x)~ raise_part_i) on a rank-2 tensor."""
    return _lift(_raise_part_basis, i, t)


# ---------------------------------------------------------------------------
# coproduct


@lru_cache(maxsize=None)
def _coproduct_basis(c: Composition) -> TensorElement:
    # for the unit the two boundary keys are one key
    terms = {(UNIT, c): 1, (c, UNIT): 1}
    terms.update(_reduced_coproduct_basis(c)._terms)
    return TensorElement._raw(2, terms)


@lru_cache(maxsize=None)
def _reduced_coproduct_basis(c: Composition) -> TensorElement:
    # the closed form of the module docstring; a key (u, v) fixes j = depth(u),
    # i = s_{j+1} - v[0] and the raised slots, so no two terms meet
    s = tuple(c)
    terms = {}
    for j in range(1, len(s)):
        prefix, head, tail = s[:j], s[j], s[j + 1:]
        for i in range(head):
            v = tuple.__new__(Composition, (head - i,) + tail)
            for u, w in _raisings(prefix, j, i, (-1) ** i):
                terms[u, v] = w
    return TensorElement._raw(2, terms)


def _extend(basis_coproduct, e) -> TensorElement:
    # linear extension of a basis coproduct (composition -> rank-2 tensor)
    parts = ((basis_coproduct(c)._terms.items(), q) for c, q in as_element(e)._terms.items())
    return TensorElement._raw(2, linear_combination(parts))


def coproduct(e) -> TensorElement:
    """The shuffle-side coproduct, extended linearly."""
    return _extend(_coproduct_basis, e)


def reduced_coproduct(e) -> TensorElement:
    """coproduct minus the two boundary terms unit (x) e and e (x) unit."""
    return _extend(_reduced_coproduct_basis, e)


def _expand_first(terms: dict, basis_coproduct) -> dict:
    """Apply ``basis_coproduct`` (composition -> rank-2 tensor) to the first
    factor of every key of ``terms``, a sparse sum of rank-m keys; the
    result has rank m + 1."""
    return linear_combination(
        (((uv + key[1:], w) for uv, w in basis_coproduct(key[0])._terms.items()), q)
        for key, q in terms.items()
    )


def iterated_coproduct(m: int, e) -> TensorElement:
    """Rank-``m`` iterated coproduct; ``m = 1`` is the identity embedding.

    Each step expands the first tensor factor, which together with
    coassociativity realizes every bracketing.
    """
    if m < 1:
        raise ValueError("iterated coproduct needs rank >= 1")
    terms = {(c,): q for c, q in as_element(e)._terms.items()}
    for _ in range(m - 1):
        terms = _expand_first(terms, _coproduct_basis)
    return TensorElement._raw(m, terms)


def counit(e) -> Fraction:
    """Coefficient of the unit term."""
    return as_element(e).coefficient(UNIT)


# ---------------------------------------------------------------------------
# antipode


@lru_cache(maxsize=None)
def _antipode_basis(c: Composition) -> Element:
    if not c:
        return Element.unit()
    # the closed form of the module docstring
    s1, t = c[0], tuple(c)[1:]
    return Element._raw(dict(_raisings((1,) + t[::-1], len(c), s1 - 1, (-1) ** (1 + sum(t)))))


def antipode(e) -> Element:
    """Antipode of the shuffle Hopf algebra."""
    return as_element(e).map_basis(_antipode_basis)
