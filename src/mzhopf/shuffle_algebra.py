"""The shuffle Hopf algebra on integer compositions.

The product is the pullback of word interleaving through the encoding of
compositions as words: ``shuffle([2], [2]) = 4*[3,1] + 2*[2,2]``.  The
coproduct is *not* deconcatenation; it is the unique coassociative coproduct
compatible with the raising operators below, computed through the closed
formula

    [s1,...,sk] = raise_part(1)^(s1-1) ... raise_part(k)^(sk-1) / prod (si-1)!
                  applied to [1,...,1]

together with the binomial-free coproduct of ``[1,...,1]``.  The counit picks
the coefficient of the unit and the antipode is the standard recursion of a
connected graded Hopf algebra.

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
from math import factorial

from .compositions import (
    UNIT,
    Composition,
    Word,
    decode_word,
    encode_word,
)
from .elements import Element, Rational, TensorElement, as_element, linear_combination

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


@lru_cache(maxsize=1 << 17)
def _word_shuffle(u: Word, v: Word) -> tuple[tuple[Word, int], ...]:
    # callers keep u <= v so each unordered pair is cached once
    if not u:
        return ((v, 1),)
    if not v:
        return ((u, 1),)
    out: dict[Word, int] = {}
    a, u_rest = u[0], u[1:]
    b, v_rest = v[0], v[1:]
    for w, c in _word_pair(u_rest, v):
        key = a + w
        out[key] = out.get(key, 0) + c
    for w, c in _word_pair(u, v_rest):
        key = b + w
        out[key] = out.get(key, 0) + c
    return tuple(out.items())


def _word_pair(u: Word, v: Word) -> tuple[tuple[Word, int], ...]:
    return _word_shuffle(u, v) if u <= v else _word_shuffle(v, u)


def shuffle_words(u: Word, v: Word) -> dict[Word, int]:
    """Multiset of interleavings of two words, as word -> multiplicity."""
    return dict(_word_pair(u, v))


def shuffle(a, b) -> Element:
    """Bilinear shuffle product of two elements (compositions promoted)."""
    left = [(encode_word(c), q) for c, q in as_element(a)._terms.items()]
    right = [(encode_word(c), q) for c, q in as_element(b)._terms.items()]
    # summed by word, so each distinct output word is decoded once
    by_word = linear_combination(
        (_word_pair(u, v), p * q) for u, p in left for v, q in right
    )
    return Element._raw({decode_word(w): q for w, q in by_word.items()})


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


def _raise_prefix_basis(i: int, c: Composition) -> tuple[tuple[Composition, int], ...]:
    if i < 1 or i > len(c):
        return ()
    return tuple((c.raised(j), c[j]) for j in range(i))


def _raise_part_basis(i: int, c: Composition) -> tuple[tuple[Composition, int], ...]:
    # raise_prefix(i) - raise_prefix(i-1), evaluated directly
    k = len(c)
    if i < 1 or i > k + 1 or k == 0:
        return ()
    if i <= k:
        return ((c.raised(i - 1), c[i - 1]),)
    # boundary slot just past the depth: minus the full prefix sum
    return tuple((c.raised(j), -c[j]) for j in range(k))


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
    # pairs on the coproduct's hot path, where one part per call costs more
    # than the sum itself.  Zeros are still dropped once, at the end.
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
    k = len(c)
    ones = [Composition((1,) * j) for j in range(k + 1)]
    t = TensorElement._raw(2, {(ones[j], ones[k - j]): 1 for j in range(k + 1)})
    denom = 1
    for i in range(1, k + 1):
        for _ in range(c[i - 1] - 1):
            t = _lift(_raise_part_basis, i, t)
        denom *= factorial(c[i - 1] - 1)
    if denom == 1:
        return t
    # the quotients are integers (checked through weight 9); Fraction is
    # only the fallback for a coefficient that does not divide
    terms = {}
    for key, v in t._terms.items():
        q, r = divmod(v, denom)
        terms[key] = Fraction(v, denom) if r else q
    return TensorElement._raw(2, terms)


@lru_cache(maxsize=None)
def _reduced_coproduct_basis(c: Composition) -> TensorElement:
    if not c:
        return TensorElement(2)
    terms = dict(_coproduct_basis(c)._terms)
    terms.pop((UNIT, c))
    terms.pop((c, UNIT))
    return TensorElement._raw(2, terms)


def coproduct(e) -> TensorElement:
    """The shuffle-side coproduct, extended linearly."""
    return TensorElement._raw(
        2,
        linear_combination(
            (_coproduct_basis(c)._terms.items(), q) for c, q in as_element(e)._terms.items()
        ),
    )


def reduced_coproduct(e) -> TensorElement:
    """coproduct minus the two boundary terms unit (x) e and e (x) unit."""
    return TensorElement._raw(
        2,
        linear_combination(
            (_reduced_coproduct_basis(c)._terms.items(), q)
            for c, q in as_element(e)._terms.items()
        ),
    )


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
    # S(x) = -x - sum S(x') sh x'' over the reduced coproduct
    acc = Element.basis(c)
    for (u, v), q in _reduced_coproduct_basis(c)._terms.items():
        acc = acc + shuffle(_antipode_basis(u), Element.basis(v, q))
    return -acc


def antipode(e) -> Element:
    """Antipode of the shuffle Hopf algebra."""
    return as_element(e).map_basis(_antipode_basis)
