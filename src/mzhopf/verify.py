"""Executable property suites for every identity the package asserts.

Each suite is a list of named checks; a check walks an exhaustive basis sweep
up to a weight bound and reports the first counterexample it meets.  Bounds
default to the documented values for each property; passing ``max_weight``
caps every bound in the suite (useful to trade completeness for speed from
the command line).

Several checks are deliberate dual routes: the word shuffle, a quasi-shuffle
with the zero bracket, against a positional brute-force enumeration, the
closed-form quasi-shuffle antipode against the convolution recursion, and
the cumulative-sum series evaluator against nested loops; the two sides of
each of these pairs share no code.
The induced morphism's production recursion is checked against
``induced_morphism``, the defining per-profile formula, which is kept here
as an oracle and shares only the coproduct table with production.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from math import comb, prod

from .compositions import (
    UNIT,
    Composition,
    WeightMismatchError,
    compositions_up_to,
    decode_word,
    encode_word,
    enumerate_basis,
    is_admissible,
    order_cmp,
    tensor_le,
)
from .elements import (
    Element,
    TensorElement,
    as_element,
    componentwise_product,
    graded_component,
    linear_combination,
)
from .shuffle_algebra import _expand_first
from . import morphisms, numeric, quasi_shuffle, shuffle_algebra

__all__ = ["CheckResult", "SUITE_NAMES", "run_suite", "run_all"]


@dataclass(frozen=True)
class CheckResult:
    suite: str
    name: str
    passed: bool
    detail: str = ""


def _cap(default: int, max_weight: int | None) -> int:
    return default if max_weight is None else min(default, max_weight)


def _result(suite: str, name: str, failure: str | None) -> CheckResult:
    return CheckResult(suite, name, failure is None, failure or "")


# ---------------------------------------------------------------------------
# independent oracles


def _basis_pairs(bound: int):
    """Every pair of nonunit compositions with total weight 2..bound, weight-major."""
    for total in range(2, bound + 1):
        for m in range(1, total):
            for a in enumerate_basis(m):
                for b in enumerate_basis(total - m):
                    yield a, b


def _brute_shuffle(u: str, v: str) -> dict[str, int]:
    """All interleavings by explicit position choice; no recursion shared
    with the production implementation."""
    n = len(u) + len(v)
    out: dict[str, int] = {}
    for positions in itertools.combinations(range(n), len(u)):
        taken = set(positions)
        ui = iter(u)
        vi = iter(v)
        word = "".join(next(ui) if i in taken else next(vi) for i in range(n))
        out[word] = out.get(word, 0) + 1
    return out


def _brute_zeta(c: Composition, terms: int) -> float:
    """Nested-loop truncated series; usable only for small cutoffs."""

    parts = tuple(c)

    def rec(i: int, upper: int) -> float:
        if i == len(parts):
            return 1.0
        total = 0.0
        for n in range(1, upper):
            total += n ** (-parts[i]) * rec(i + 1, n)
        return total

    return rec(0, terms + 1)


def _convolution_antipode(c: Composition, memo: dict) -> Element:
    """Quasi-shuffle antipode by the connected-graded recursion, as an oracle
    for the closed coarsening formula."""
    if not c:
        return Element.unit()
    cached = memo.get(c)
    if cached is not None:
        return cached
    stuffles = (
        quasi_shuffle.stuffle(_convolution_antipode(c[:j], memo), Element.basis(c[j:]))
        for j in range(1, len(c))
    )
    parts = itertools.chain([({c: 1}.items(), -1)], ((s._terms.items(), -1) for s in stuffles))
    out = Element._raw(linear_combination(parts))
    memo[c] = out
    return out


def induced_morphism(chi: morphisms.Character, e) -> Element:
    """The character-induced morphism by its defining per-profile formula.

    Expands the rank-m iterated *reduced* coproduct through its first
    factor for m = 1, 2, ... until it runs dry (a key of rank m has weight
    at least m).  Every factor of a key has positive weight, so the key's
    weight profile is a composition alpha, and the key adds its coefficient
    times chi of each factor to [alpha].  Expanding the full coproduct
    instead gives the same sum: a key that holds a unit factor keeps one at
    every later rank and never has such a profile.  The unit is its own
    image.
    """
    e = as_element(e)

    def ranks():
        if UNIT in e._terms:
            yield ((UNIT, e._terms[UNIT]),), 1
        terms = {(c,): q for c, q in e._terms.items() if c}
        while terms:
            # used up by linear_combination before ``terms`` moves on
            yield (
                (Composition(tuple(f.weight for f in key)), q * prod(map(chi.value, key)))
                for key, q in terms.items()
            ), 1
            terms = _expand_first(terms, shuffle_algebra._reduced_coproduct_basis)

    return Element._raw(linear_combination(ranks()))


def _scaled_factorial(t: Fraction, max_weight: int) -> morphisms.Character:
    """chi(c) = t^weight / weight!; multiplicative because scaling by
    t^weight is an algebra automorphism."""
    from math import factorial

    return morphisms.Character(
        {},
        max_weight=max_weight,
        label=f"factorial-scaled-{t}",
        rule=lambda c: Fraction(t) ** c.weight / factorial(c.weight),
    )


def _convolved_character(
    chi1: morphisms.Character, chi2: morphisms.Character, max_weight: int
) -> morphisms.Character:
    """Convolution through the shuffle coproduct; again a character."""

    def rule(c: Composition) -> Fraction:
        total = Fraction(0)
        for (u, v), q in shuffle_algebra.coproduct(Element.basis(c))._terms.items():
            total += Fraction(q) * chi1.value(u) * chi2.value(v)
        return total

    return morphisms.Character({}, max_weight=max_weight, label="convolved", rule=rule)


def _random_characters(max_weight: int) -> list[morphisms.Character]:
    rng = random.Random(20240817)
    pool = [Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 2), Fraction(-1, 3), Fraction(3)]
    t1 = rng.choice(pool)
    t2 = rng.choice(pool)
    a = _scaled_factorial(t1, max_weight)
    b = _scaled_factorial(t2, max_weight)
    return [a, _convolved_character(a, b, max_weight)]


# ---------------------------------------------------------------------------
# order suite


def _check_word_roundtrip(bound: int) -> str | None:
    for c in compositions_up_to(bound):
        w = encode_word(c)
        if decode_word(w) != c:
            return f"decode(encode({c})) = {decode_word(w)}"
        if c and not w.endswith("1"):
            return f"encode({c}) = {w!r} does not end in '1'"
    return None


def _check_order_totality(bound: int) -> str | None:
    for n in range(bound + 1):
        basis = enumerate_basis(n)
        for a in basis:
            for b in basis:
                r1 = order_cmp(a, b)
                r2 = order_cmp(b, a)
                if r1 != -r2:
                    return f"order_cmp({a},{b}) = {r1} but reversed gives {r2}"
                if (r1 == 0) != (a == b):
                    return f"order_cmp({a},{b}) = 0 disagrees with equality"
    try:
        order_cmp(Composition((2,)), Composition((3,)))
    except WeightMismatchError:
        pass
    else:
        return "cross-weight comparison did not raise"
    return None


def _check_concat_extension(bound: int) -> str | None:
    for m in range(1, bound + 1):
        hm = enumerate_basis(m)
        for p in range(1, bound + 1):
            for u, v in itertools.combinations(hm, 2):  # u < v in the ascending list
                for w in enumerate_basis(p):
                    if not (u + w) < (v + w):
                        return f"{u} < {v} but {u + w} !< {v + w}"
    return None


def _small_tensors(total: int):
    for c in enumerate_basis(total):
        yield (c,)
    for i in range(total + 1):
        for a in enumerate_basis(i):
            for b in enumerate_basis(total - i):
                yield (a, b)


def _check_tensor_extension(bound: int) -> str | None:
    for total in range(1, bound):
        tensors = list(_small_tensors(total))
        for wt in range(1, bound - total + 1):
            for w in enumerate_basis(wt):
                for u in tensors:
                    for v in tensors:
                        if tensor_le(u, v) and not tensor_le(u + (w,), v + (w,)):
                            return f"tensor_le({u},{v}) but appending {w} breaks it"
    return None


def _check_basis_count(bound: int) -> str | None:
    for n in range(1, bound + 1):
        basis = enumerate_basis(n)
        if len(basis) != 2 ** (n - 1):
            return f"weight {n}: {len(basis)} compositions, expected {2 ** (n - 1)}"
        if len(set(basis)) != len(basis):
            return f"weight {n}: duplicate compositions"
        if any(c.weight != n for c in basis):
            return f"weight {n}: off-weight entry"
    return None


_WEIGHT4_CHAIN = [
    (4,), (3, 1), (2, 2), (2, 1, 1), (1, 3), (1, 2, 1), (1, 1, 2), (1, 1, 1, 1)
]


def _check_weight4_chain() -> str | None:
    got = [tuple(c) for c in enumerate_basis(4)]
    if got != _WEIGHT4_CHAIN:
        return f"weight-4 chain is {got}"
    basis = enumerate_basis(4)
    for a, b in zip(basis, basis[1:]):
        if not a < b:
            return f"{a} !< {b} in the weight-4 chain"
    return None


def _check_coproduct_triangular(bound: int) -> str | None:
    for n in range(1, bound + 1):
        for c in enumerate_basis(n):
            for (u, v) in shuffle_algebra.coproduct(c)._terms:
                if not tensor_le((u, v), (c,)):
                    return f"coproduct({c}) has a term {u}(x){v} above {c}"
    return None


def _check_raise_part_order(bound: int) -> str | None:
    for n in range(1, bound + 1):
        basis = enumerate_basis(n)
        # the termwise bound is stated for slots up to depth(s); at the
        # boundary slot depth(s)+1 it genuinely fails (already at weight 4)
        for t, s in itertools.combinations(basis, 2):  # t < s ascending
            for i in range(1, s.depth + 1):
                low = shuffle_algebra.raise_part(i, t)
                high = shuffle_algebra.raise_part(i, s)
                for a in low.support():
                    for b in high.support():
                        if order_cmp(a, b) > 0:
                            return (
                                f"raise_part({i}) breaks order: term {a} of image "
                                f"of {t} exceeds term {b} of image of {s}"
                            )
    return None


def suite_order(max_weight: int | None = None) -> list[CheckResult]:
    s = "order"
    return [
        _result(s, "word-roundtrip", _check_word_roundtrip(_cap(10, max_weight))),
        _result(s, "order-totality", _check_order_totality(_cap(8, max_weight))),
        _result(s, "concat-extension", _check_concat_extension(_cap(5, max_weight))),
        _result(s, "tensor-extension", _check_tensor_extension(_cap(7, max_weight))),
        _result(s, "basis-count", _check_basis_count(_cap(10, max_weight))),
        _result(s, "weight-4-chain", _check_weight4_chain()),
        _result(s, "coproduct-triangular", _check_coproduct_triangular(_cap(7, max_weight))),
        _result(s, "raise-part-order", _check_raise_part_order(_cap(6, max_weight))),
    ]


# ---------------------------------------------------------------------------
# shuffle Hopf suite


def _check_shuffle_brute(total_len: int) -> str | None:
    by_len = {0: [""]}
    for length in range(1, total_len + 1):
        by_len[length] = [
            "".join(bits) for bits in itertools.product("01", repeat=length)
        ]
    for lu in range(total_len + 1):
        for lv in range(total_len - lu + 1):
            for u in by_len[lu]:
                for v in by_len[lv]:
                    if shuffle_algebra.shuffle_words(u, v) != _brute_shuffle(u, v):
                        return f"word shuffle mismatch at ({u!r}, {v!r})"
    return None


def _check_coefficient_sum(bound: int) -> str | None:
    for m in range(1, bound + 1):
        for n in range(1, bound + 1):
            for a in enumerate_basis(m):
                for b in enumerate_basis(n):
                    total = sum(q for _, q in shuffle_algebra.shuffle(a, b).terms())
                    if total != comb(m + n, m):
                        return (
                            f"coefficient sum of {a} sh {b} is {total}, "
                            f"expected C({m + n},{m})"
                        )
    return None


def _check_raising_telescoping(bound: int) -> str | None:
    for c in compositions_up_to(bound):
        for i in range(1, c.depth + 3):
            direct = shuffle_algebra.raise_part(i, c)
            diff = shuffle_algebra.raise_prefix(i, Element.basis(c)) - \
                shuffle_algebra.raise_prefix(i - 1, Element.basis(c))
            if direct != diff:
                return f"raise_part({i}, {c}) != prefix difference"
            if 1 <= i <= c.depth:
                expected = Element.basis(c.raised(i - 1), c[i - 1])
                if direct != expected:
                    return f"raise_part({i}, {c}) misses the closed form"
    return None


def _check_raising_commutation(bound: int) -> str | None:
    for c in compositions_up_to(bound):
        delta_c = shuffle_algebra.coproduct(c)
        for i in range(1, c.depth + 2):
            lhs = shuffle_algebra.lifted_raise_prefix(i, delta_c)
            rhs = shuffle_algebra.coproduct(shuffle_algebra.raise_prefix(i, c))
            if lhs != rhs:
                return f"lifted raise_prefix({i}) does not commute with coproduct at {c}"
    return None


def _check_lifted_commutativity(bound: int) -> str | None:
    for total in range(0, bound + 1):
        for i_w in range(total + 1):
            for a in enumerate_basis(i_w):
                for b in enumerate_basis(total - i_w):
                    t = TensorElement.basis((a, b))
                    top = a.depth + b.depth + 1
                    for i in range(1, top + 1):
                        for j in range(i + 1, top + 1):
                            ij = shuffle_algebra.lifted_raise_part(
                                i, shuffle_algebra.lifted_raise_part(j, t)
                            )
                            ji = shuffle_algebra.lifted_raise_part(
                                j, shuffle_algebra.lifted_raise_part(i, t)
                            )
                            if ij != ji:
                                return f"lifted raise_part {i},{j} disagree on {a}(x){b}"
    return None


def _expand_last(terms: dict, coprod) -> dict:
    """``shuffle_algebra._expand_first`` mirrored onto the last factor."""
    return linear_combination(
        (((key[:-1] + uv, w) for uv, w in coprod(key[-1])._terms.items()), q)
        for key, q in terms.items()
    )


def _check_coassociativity(bound: int, coprod) -> str | None:
    for c in compositions_up_to(bound):
        d = coprod(c)._terms
        if _expand_first(d, coprod) != _expand_last(d, coprod):
            return f"coassociativity fails at {c}"
    return None


def _check_counit_laws(bound: int, coprod) -> str | None:
    for c in compositions_up_to(bound):
        d = coprod(Element.basis(c))
        left = Element(
            {v: q for (u, v), q in d._terms.items() if u == UNIT}
        )
        right = Element(
            {u: q for (u, v), q in d._terms.items() if v == UNIT}
        )
        if left != Element.basis(c) or right != Element.basis(c):
            return f"counit laws fail at {c}"
    return None


def _check_coproduct_multiplicative(bound: int, product, coprod) -> str | None:
    for a, b in _basis_pairs(bound):
        lhs = coprod(product(a, b))
        rhs = componentwise_product(coprod(Element.basis(a)), coprod(Element.basis(b)), product)
        if lhs != rhs:
            return f"coproduct of {a} * {b} is not multiplicative"
    return None


def _check_antipode_axiom(bound: int, product, coprod, antipode) -> str | None:
    for c in compositions_up_to(bound):
        d = coprod(Element.basis(c))
        acc = Element._raw(
            linear_combination(
                (product(antipode(u), Element.basis(v, q))._terms.items(), 1)
                for (u, v), q in d._terms.items()
            )
        )
        expected = Element.unit() if c == UNIT else Element()
        if acc != expected:
            return f"antipode axiom fails at {c}: got {acc}"
    return None


def suite_hopf_shuffle(max_weight: int | None = None) -> list[CheckResult]:
    s = "hopf-shuffle"
    sh = shuffle_algebra
    return [
        _result(s, "shuffle-brute-agreement", _check_shuffle_brute(_cap(8, max_weight))),
        _result(s, "coefficient-sum", _check_coefficient_sum(_cap(4, max_weight))),
        _result(s, "raising-telescoping", _check_raising_telescoping(_cap(6, max_weight))),
        _result(s, "raising-commutation", _check_raising_commutation(_cap(6, max_weight))),
        _result(s, "lifted-commutativity", _check_lifted_commutativity(_cap(6, max_weight))),
        _result(s, "coassociativity", _check_coassociativity(_cap(7, max_weight), sh.coproduct)),
        _result(
            s,
            "coproduct-multiplicative",
            _check_coproduct_multiplicative(_cap(7, max_weight), sh.shuffle, sh.coproduct),
        ),
        _result(s, "counit-laws", _check_counit_laws(_cap(7, max_weight), sh.coproduct)),
        _result(
            s,
            "antipode-axiom",
            _check_antipode_axiom(_cap(6, max_weight), sh.shuffle, sh.coproduct, sh.antipode),
        ),
    ]


# ---------------------------------------------------------------------------
# quasi-shuffle Hopf suite


def _check_qsh_antipode_oracle(bound: int) -> str | None:
    memo: dict = {}
    for c in compositions_up_to(bound):
        explicit = quasi_shuffle.antipode(c)
        recursive = _convolution_antipode(c, memo)
        if explicit != recursive:
            return f"antipode({c}): closed form {explicit} vs convolution {recursive}"
    return None


def _check_canonical_character(bound: int) -> str | None:
    zq = quasi_shuffle.canonical_character
    for a, b in _basis_pairs(bound):
        prod = quasi_shuffle.stuffle(a, b)
        if zq(prod) != zq(Element.basis(a)) * zq(Element.basis(b)):
            return f"canonical character not multiplicative at ({a}, {b})"
    return None


def _check_deconcat_count(bound: int) -> str | None:
    for c in compositions_up_to(bound):
        d = quasi_shuffle.coproduct(c)
        if len(d) != c.depth + 1:
            return f"deconcatenation of {c} has {len(d)} terms"
    return None


def _check_stuffle_depth_one(bound: int) -> str | None:
    for a in range(1, bound + 1):
        for b in range(1, bound + 1):
            prod = quasi_shuffle.stuffle(Composition((a,)), Composition((b,)))
            total = sum(q for _, q in prod.terms())
            if total != 3:
                return f"[{a}]*[{b}] has coefficient sum {total}"
    return None


def suite_hopf_qsh(max_weight: int | None = None) -> list[CheckResult]:
    s = "hopf-qsh"
    q = quasi_shuffle
    return [
        _result(s, "coassociativity", _check_coassociativity(_cap(7, max_weight), q.coproduct)),
        _result(
            s,
            "coproduct-multiplicative",
            _check_coproduct_multiplicative(_cap(7, max_weight), q.stuffle, q.coproduct),
        ),
        _result(s, "counit-laws", _check_counit_laws(_cap(7, max_weight), q.coproduct)),
        _result(
            s,
            "antipode-axiom",
            _check_antipode_axiom(_cap(7, max_weight), q.stuffle, q.coproduct, q.antipode),
        ),
        _result(s, "antipode-convolution-agreement", _check_qsh_antipode_oracle(_cap(6, max_weight))),
        _result(s, "canonical-character-multiplicative", _check_canonical_character(_cap(8, max_weight))),
        _result(s, "deconcat-term-count", _check_deconcat_count(_cap(7, max_weight))),
        _result(s, "stuffle-depth-one-count", _check_stuffle_depth_one(_cap(6, max_weight))),
    ]


# ---------------------------------------------------------------------------
# morphism suite


_GOLDEN_IMAGES: list[tuple[tuple[int, ...], dict]] = [
    ((2,), {(2,): Fraction(1, 2)}),
    ((1, 1), {(2,): Fraction(1, 2), (1, 1): 1}),
    ((2, 1), {(3,): Fraction(1, 6), (2, 1): Fraction(1, 2)}),
    ((1, 2), {(3,): Fraction(1, 6), (1, 2): Fraction(1, 2), (2, 1): Fraction(-1, 2)}),
    (
        (1, 1, 1),
        {(3,): Fraction(1, 6), (1, 2): Fraction(1, 2), (2, 1): Fraction(1, 2), (1, 1, 1): 1},
    ),
    ((3, 1), {(4,): Fraction(1, 24), (3, 1): Fraction(1, 6)}),
    (
        (2, 2),
        {(4,): Fraction(1, 24), (2, 2): Fraction(1, 4), (3, 1): Fraction(-1, 3)},
    ),
]


def _check_golden_values() -> str | None:
    chi = morphisms.factorial_character(6)
    for comp, image in _GOLDEN_IMAGES:
        got = induced_morphism(chi, Composition(comp))
        if got != Element(image):
            return f"induced morphism of {Composition(comp)} is {got}"
    return None


def _check_algebra_map(bound: int, chi: morphisms.Character) -> str | None:
    psi = morphisms.induced_morphism_fast
    for a, b in _basis_pairs(bound):
        lhs = psi(chi, shuffle_algebra.shuffle(a, b))
        rhs = quasi_shuffle.stuffle(psi(chi, Element.basis(a)), psi(chi, Element.basis(b)))
        if lhs != rhs:
            return f"morphism is not an algebra map at ({a}, {b})"
    return None


def _check_coalgebra_map(bound: int, chi: morphisms.Character) -> str | None:
    psi = morphisms.induced_morphism_fast
    for c in compositions_up_to(bound):
        rhs = quasi_shuffle.coproduct(psi(chi, Element.basis(c)))
        lhs = linear_combination(
            (_tensor_terms(psi(chi, Element.basis(u)), psi(chi, Element.basis(v))), q)
            for (u, v), q in shuffle_algebra.coproduct(c)._terms.items()
        )
        if TensorElement._raw(2, lhs) != rhs:
            return f"morphism is not a coalgebra map at {c}"
    return None


def _tensor_terms(x: Element, y: Element) -> list:
    """The terms of x (x) y."""
    return [((a, b), p * q) for a, p in x._terms.items() for b, q in y._terms.items()]


def _check_antipode_intertwine(bound: int, chi: morphisms.Character) -> str | None:
    psi = morphisms.induced_morphism_fast
    for c in compositions_up_to(bound):
        lhs = psi(chi, shuffle_algebra.antipode(c))
        rhs = quasi_shuffle.antipode(psi(chi, Element.basis(c)))
        if lhs != rhs:
            return f"morphism does not intertwine the antipodes at {c}"
    return None


def _check_character_recovery(bound: int) -> str | None:
    chars = [morphisms.factorial_character(bound)] + _random_characters(bound)
    for chi in chars:
        check = morphisms.validate_character(chi)
        if not check:
            return f"{chi!r} failed validation at {check.violation}"
        for c in compositions_up_to(bound):
            got = quasi_shuffle.canonical_character(
                morphisms.induced_morphism_fast(chi, Element.basis(c))
            )
            if got != chi.value(c):
                return f"{chi!r}: recovery at {c} gives {got}, expected {chi.value(c)}"
    return None


def _check_degree_preservation(bound: int, chi: morphisms.Character) -> str | None:
    for c in compositions_up_to(bound):
        image = morphisms.induced_morphism_fast(chi, Element.basis(c))
        if graded_component(image, c.weight) != image:
            return f"image of {c} is not homogeneous of weight {c.weight}"
    return None


def _check_route_agreement(bound: int, chi: morphisms.Character) -> str | None:
    for c in compositions_up_to(bound):
        slow = induced_morphism(chi, Element.basis(c))
        fast = morphisms.induced_morphism_fast(chi, Element.basis(c))
        if slow != fast:
            return f"morphism routes disagree at {c}"
    return None


def _check_validate_detects(bound: int) -> str | None:
    chi = morphisms.factorial_character(_cap(6, bound))
    if not morphisms.validate_character(chi):
        return "factorial character failed validation"
    bad = morphisms.Character(
        {(1,): 1, (2,): 1, (1, 1): 1}, max_weight=2, label="broken"
    )
    check = morphisms.validate_character(bad)
    if check:
        return "corrupted table passed validation"
    if check.violation != (Composition((1,)), Composition((1,))):
        return f"corrupted table blamed {check.violation}"
    return None


def suite_morphism(max_weight: int | None = None) -> list[CheckResult]:
    s = "morphism"
    chi = morphisms.factorial_character(max(_cap(8, max_weight), 1))
    return [
        _result(s, "golden-values", _check_golden_values()),
        _result(s, "algebra-map", _check_algebra_map(_cap(8, max_weight), chi)),
        _result(s, "coalgebra-map", _check_coalgebra_map(_cap(7, max_weight), chi)),
        _result(s, "antipode-intertwine", _check_antipode_intertwine(_cap(6, max_weight), chi)),
        _result(s, "character-recovery", _check_character_recovery(_cap(8, max_weight))),
        _result(s, "degree-preservation", _check_degree_preservation(_cap(8, max_weight), chi)),
        _result(s, "route-agreement", _check_route_agreement(_cap(8, max_weight), chi)),
        _result(s, "validate-detects", _check_validate_detects(_cap(6, max_weight))),
    ]


# ---------------------------------------------------------------------------
# Rota-Baxter suite


def _check_rota_baxter(bound: int) -> str | None:
    rb = shuffle_algebra.rota_baxter
    sh = shuffle_algebra.shuffle
    for m in range(1, bound + 1):
        for n in range(m, bound + 1):
            for a in enumerate_basis(m):
                for b in enumerate_basis(n):
                    ia = rb(a)
                    ib = rb(b)
                    lhs = sh(ia, ib)
                    rhs = rb(sh(a, ib)) + rb(sh(ia, b))
                    if lhs != rhs:
                        return f"Rota-Baxter identity fails at ({a}, {b})"
    return None


def suite_rota_baxter(max_weight: int | None = None) -> list[CheckResult]:
    return [
        _result("rota-baxter", "rota-baxter-identity", _check_rota_baxter(_cap(6, max_weight)))
    ]


# ---------------------------------------------------------------------------
# triangularity and inversion suite


def _check_matrix_triangular(bound: int, chi: morphisms.Character) -> str | None:
    for n in range(1, bound + 1):
        mat = morphisms.morphism_matrix(chi, n)
        if list(mat.basis) != enumerate_basis(n):
            return f"weight-{n} matrix basis is not the ascending chain"
        if not mat.is_upper_triangular():
            return f"weight-{n} matrix is not upper triangular"
    return None


def _check_matrix_diagonal(bound: int, chi: morphisms.Character) -> str | None:
    for n in range(1, bound + 1):
        mat = morphisms.morphism_matrix(chi, n)
        for c, entry in zip(mat.basis, mat.diagonal()):
            expected = Fraction(1)
            for part in c:
                expected *= chi.value(Composition((part,)))
            if entry != expected:
                return (
                    f"diagonal entry at {c} (weight {n}) is {entry}, "
                    f"expected {expected}"
                )
    return None


def _check_inversion_identity(bound: int, chi: morphisms.Character) -> str | None:
    for n in range(1, bound + 1):
        for c in enumerate_basis(n):
            e = Element.basis(c)
            back = morphisms.preimage(chi, induced_morphism(chi, e))
            if back != e:
                return f"preimage(morphism({c})) = {back}"
    return None


def _check_singular_detection() -> str | None:
    chi = morphisms.Character(
        {(1,): 1, (2,): 0, (1, 1): Fraction(1, 2)},
        max_weight=2,
        label="vanishing-at-2",
    )
    if not morphisms.validate_character(chi):
        return "the vanishing character should validate"
    mat = morphisms.morphism_matrix(chi, 2)
    if mat.entry(0, 0) != 0:
        return "expected a zero diagonal entry at [2]"
    try:
        morphisms.preimage(chi, Element.basis(Composition((2,))))
    except morphisms.SingularCharacterError as exc:
        if exc.part != 2:
            return f"singularity blamed s = {exc.part}, expected 2"
        return None
    return "preimage with a vanishing character did not raise"


def suite_triangular(max_weight: int | None = None) -> list[CheckResult]:
    s = "triangular"
    bound = _cap(9, max_weight)
    chi = morphisms.factorial_character(max(bound, 1))
    return [
        _result(s, "matrix-upper-triangular", _check_matrix_triangular(bound, chi)),
        _result(s, "matrix-diagonal", _check_matrix_diagonal(bound, chi)),
        _result(s, "inversion-identity", _check_inversion_identity(bound, chi)),
        _result(s, "singular-detection", _check_singular_detection()),
    ]


# ---------------------------------------------------------------------------
# double-shuffle suite


def _admissible_up_to(bound: int) -> list[Composition]:
    return [c for c in compositions_up_to(bound) if is_admissible(c)]


def _check_dp_brute(depth_bound: int = 3, weight_bound: int = 5, terms: int = 50) -> str | None:
    config = numeric.TruncationConfig(terms=terms)
    for c in _admissible_up_to(weight_bound):
        if c.depth > depth_bound:
            continue
        fast = numeric.zeta_truncated(c, config)
        slow = _brute_zeta(c, terms)
        if abs(fast - slow) > 1e-12 * max(1.0, abs(slow)):
            return f"series DP at {c}: {fast} vs brute {slow}"
    return None


def _check_monotone() -> str | None:
    ladder = [10, 100, 1000, 10000]
    for c in ((2,), (3,), (2, 1), (2, 2), (3, 1, 1)):
        values = [
            numeric.zeta_truncated(Composition(c), numeric.TruncationConfig(terms=n))
            for n in ladder
        ]
        for lo, hi in zip(values, values[1:]):
            if hi < lo:
                return f"truncation of {Composition(c)} decreased: {values}"
    return None


def _check_stuffle_series(bound: int, config: numeric.TruncationConfig) -> str | None:
    comps = _admissible_up_to(bound)
    for s in comps:
        for t in comps:
            lhs = numeric.eval_element(quasi_shuffle.stuffle(s, t), config)
            rhs = numeric.eval_element(Element.basis(s), config) * numeric.eval_element(
                Element.basis(t), config
            )
            if abs(lhs - rhs) > 5 * config.tolerance:
                return f"stuffle series at ({s}, {t}): {lhs} vs {rhs}"
    return None


def _check_double_shuffle(config: numeric.TruncationConfig) -> str | None:
    comps = [c for c in _admissible_up_to(3)]
    for s in comps:
        for t in comps:
            if s.weight + t.weight > 6:
                continue
            residual = numeric.double_shuffle_residual(s, t, config)
            if residual > config.tolerance:
                return f"double-shuffle residual at ({s}, {t}) is {residual}"
    return None


def suite_double_shuffle(max_weight: int | None = None) -> list[CheckResult]:
    s = "double-shuffle"
    config = numeric.DEFAULT_CONFIG
    return [
        _result(s, "dp-brute-agreement", _check_dp_brute(weight_bound=_cap(5, max_weight))),
        _result(s, "monotone-in-terms", _check_monotone()),
        _result(s, "stuffle-series-consistency", _check_stuffle_series(_cap(4, max_weight), config)),
        _result(s, "double-shuffle-residual", _check_double_shuffle(config)),
    ]


# ---------------------------------------------------------------------------
# registry


SUITES = {
    "order": suite_order,
    "hopf-shuffle": suite_hopf_shuffle,
    "hopf-qsh": suite_hopf_qsh,
    "morphism": suite_morphism,
    "rota-baxter": suite_rota_baxter,
    "triangular": suite_triangular,
    "double-shuffle": suite_double_shuffle,
}

SUITE_NAMES = tuple(SUITES) + ("all",)


def run_suite(name: str, max_weight: int | None = None) -> list[CheckResult]:
    """Run one suite (or 'all'); unknown names raise KeyError."""
    if name == "all":
        return run_all(max_weight)
    return SUITES[name](max_weight)


def run_all(max_weight: int | None = None) -> list[CheckResult]:
    out: list[CheckResult] = []
    for fn in SUITES.values():
        out.extend(fn(max_weight))
    return out
