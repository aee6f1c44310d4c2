import json
from array import array
from fractions import Fraction
from math import comb, factorial

import pytest
from hypothesis import given, settings

from conftest import operand_pairs
from mzhopf import cli
from mzhopf.compositions import (
    UNIT,
    Composition,
    WordDecodeError,
    compositions_up_to,
    enumerate_basis,
)
from mzhopf.elements import Element, TensorElement, componentwise_product
from mzhopf.quasi_shuffle import _code, _pair
from mzhopf.shuffle_algebra import (
    UnitTermError,
    _antipode_basis,
    _coproduct_basis,
    antipode,
    coproduct,
    counit,
    iterated_coproduct,
    lifted_raise_part,
    raise_part,
    raise_prefix,
    reduced_coproduct,
    rota_baxter,
    shuffle,
    shuffle_words,
)


def T(terms):
    return TensorElement(2, terms)


def test_shuffle_words_basic():
    assert shuffle_words("01", "1") == {"011": 2, "101": 1}
    assert shuffle_words("", "01") == {"01": 1}
    assert shuffle_words("0", "1") == {"01": 1, "10": 1}
    assert shuffle_words("", "") == {"": 1}
    # int("1" + u, 2) alone would read "0_1" and "01 " as "01"
    for bad in ("0_1", "01 ", "2"):
        with pytest.raises(WordDecodeError):
            shuffle_words(bad, "1")
        with pytest.raises(WordDecodeError):
            shuffle_words("1", bad)


def test_shuffle_frozen_examples():
    assert shuffle((2,), (2,)) == Element({(3, 1): 4, (2, 2): 2})
    assert shuffle((1,), (1,)) == Element({(1, 1): 2})
    assert shuffle((1,), (2,)) == Element({(1, 2): 1, (2, 1): 2})
    assert shuffle((1,), (1, 1)) == Element({(1, 1, 1): 3})


def test_shuffle_unit_is_identity():
    e = Element({(2, 1): 3, (1,): -1})
    assert shuffle(Element.unit(), e) == e
    assert shuffle(e, Element.unit()) == e


def test_shuffle_commutative_and_associative_sample():
    xs = [Element.basis(c) for c in enumerate_basis(2)] + [Element.basis((3,))]
    for a in xs:
        for b in xs:
            assert shuffle(a, b) == shuffle(b, a)
            for c in xs:
                assert shuffle(shuffle(a, b), c) == shuffle(a, shuffle(b, c))


def test_shuffle_bilinear():
    a = Element({(1,): 2, (2,): -1})
    b = Element.basis((1,))
    expected = 2 * shuffle((1,), (1,)) - shuffle((2,), (1,))
    assert shuffle(a, b) == expected



@given(operand_pairs)
@settings(max_examples=60, deadline=None)
def test_shuffle_of_rational_sums_is_the_scaled_sum_of_basis_products(ab):
    a, b = ab
    expected = Element.zero()
    for c1, q1 in a.terms():
        for c2, q2 in b.terms():
            expected = expected + shuffle(Element.basis(c1), Element.basis(c2)).scaled(q1 * q2)
    assert shuffle(a, b) == expected


def test_shuffle_coefficient_sum_is_binomial():
    for m in range(1, 4):
        for n in range(1, 4):
            for a in enumerate_basis(m):
                for b in enumerate_basis(n):
                    total = sum(q for _, q in shuffle(a, b).terms())
                    assert total == comb(m + n, m)


def test_shuffle_of_two_depth_one_compositions_is_eulers_decomposition():
    # [40] sh [30] has weight 70, so its top kernel entry holds codes of 2^64
    # or more and keeps tuples; an entry below weight 64 is an array
    expected = {
        (j, 70 - j): comb(j - 1, 39) + comb(j - 1, 29) for j in range(30, 70)
    }
    assert len(expected) == 40
    assert shuffle((40,), (30,)) == Element(expected)
    u, v = _code((30,)), _code((40,))
    assert all(type(x) is tuple for x in _pair(u, v, False))
    assert all(type(x) is array for x in _pair(u, v >> 10, False))


def test_shuffle_of_ones_is_a_binomial_multiple():
    # C(80, 40) is past 2^64, like the code of [1^80]
    assert comb(80, 40) == 107507208733336176461620
    ones = Composition((1,) * 40)
    assert shuffle(ones, ones) == Element.basis((1,) * 80, comb(80, 40))


def test_rota_baxter_increments_first_part():
    assert rota_baxter((2, 1)) == Element.basis((3, 1))
    assert rota_baxter(Element({(1,): 2, (1, 1): -1})) == Element({(2,): 2, (2, 1): -1})


def test_rota_baxter_rejects_unit_term():
    with pytest.raises(UnitTermError):
        rota_baxter(Element.unit())
    with pytest.raises(UnitTermError):
        rota_baxter(Element({(): 1, (2,): 1}))


def test_rota_baxter_identity_small():
    for a in enumerate_basis(2):
        for b in enumerate_basis(3):
            ia, ib = rota_baxter(a), rota_baxter(b)
            assert shuffle(ia, ib) == rota_baxter(shuffle(a, ib)) + rota_baxter(shuffle(ia, b))


def test_raise_prefix_examples():
    assert raise_prefix(1, Element.basis((2,))) == Element.basis((3,), 2)
    assert raise_prefix(2, Element.basis((1, 1))) == Element({(2, 1): 1, (1, 2): 1})
    assert raise_prefix(1, Element.unit()) == Element.zero()
    assert raise_prefix(0, Element.basis((2,))) == Element.zero()
    assert raise_prefix(3, Element.basis((1, 1))) == Element.zero()


def test_raise_part_examples():
    assert raise_part(1, Element.basis((2,))) == Element.basis((3,), 2)
    assert raise_part(2, Element.basis((1, 1))) == Element.basis((1, 2))
    assert raise_part(1, Element.unit()) == Element.zero()


def test_raise_part_boundary_is_minus_full_prefix():
    # one slot past the depth the operator flips to minus the prefix sum
    for c in [(2,), (1, 1), (2, 1), (3, 1, 1)]:
        e = Element.basis(c)
        k = len(c)
        assert raise_part(k + 1, e) == -raise_prefix(k, e)
        assert raise_part(k + 2, e) == Element.zero()


def test_raise_part_telescopes_to_prefix():
    for c in compositions_up_to(5):
        e = Element.basis(c)
        for i in range(1, c.depth + 2):
            total = Element.zero()
            for j in range(1, i + 1):
                total = total + raise_part(j, e)
            # partial sums of slot raisers rebuild the prefix operator
            assert total == raise_prefix(i, e)


def test_coproduct_frozen_examples():
    one = UNIT
    assert coproduct((4,)) == T({(one, (4,)): 1, ((4,), one): 1})
    assert coproduct((2, 1)) == T({
        (one, (2, 1)): 1, ((2,), (1,)): 1, ((2, 1), one): 1,
    })
    assert coproduct((3, 1)) == T({
        (one, (3, 1)): 1, ((3,), (1,)): 1, ((3, 1), one): 1,
    })
    assert coproduct((1, 2)) == T({
        (one, (1, 2)): 1, ((1,), (2,)): 1, ((2,), (1,)): -1, ((1, 2), one): 1,
    })
    assert coproduct((2, 2)) == T({
        (one, (2, 2)): 1, ((2,), (2,)): 1, ((3,), (1,)): -2, ((2, 2), one): 1,
    })


def test_coproduct_of_ones_is_binomial_free_deconcatenation():
    k = 4
    c = Composition((1,) * k)
    expected = T({((1,) * j, (1,) * (k - j)): 1 for j in range(k + 1)})
    assert coproduct(c) == expected


def test_coproduct_and_antipode_coefficients_are_integers_through_weight_nine():
    # structural: both closed forms sum products of binomials and never divide
    for c in compositions_up_to(9):
        assert all(type(v) is int for v in _coproduct_basis(c)._terms.values()), c
        assert all(type(v) is int for v in _antipode_basis(c)._terms.values()), c


def _raising_chain_coproduct(c):
    """coproduct(c) rebuilt from public names only: lift raise_part slot by
    slot onto coproduct([1^k]), then divide by prod (s_i - 1)!."""
    k = len(c)
    t = T({((1,) * j, (1,) * (k - j)): 1 for j in range(k + 1)})
    denom = 1
    for i, s in enumerate(c, 1):
        for _ in range(s - 1):
            t = lifted_raise_part(i, t)
        denom *= factorial(s - 1)
    terms = {}
    for key, v in t.terms():
        q, r = divmod(v, denom)
        assert r == 0, (c, key, v, denom)
        terms[key] = q
    return terms


def test_closed_form_coproduct_matches_raising_chain_through_weight_ten():
    # the bound may be raised, never lowered
    for c in compositions_up_to(10):
        assert _coproduct_basis(c)._terms == _raising_chain_coproduct(c), c


def test_reduced_coproduct_of_a_deep_composition(capsys):
    # one long prefix: a construction that recursed once per part would
    # exceed Python's recursion limit here
    c = Composition((1,) * 1200 + (2,))
    d = reduced_coproduct(c)
    assert len(d) == 2400
    expected = _raising_chain_coproduct(c)
    del expected[UNIT, c], expected[c, UNIT]
    assert d._terms == expected
    code = cli.main(["coprod", str(c)])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert len(doc["terms"]) == 2402


def test_single_part_compositions_are_primitive():
    for n in range(1, 8):
        c = Composition((n,))
        assert coproduct(c) == T({(UNIT, c): 1, (c, UNIT): 1})


def test_reduced_coproduct_drops_boundary():
    d = reduced_coproduct((2, 1))
    assert d == T({((2,), (1,)): 1})
    assert reduced_coproduct(Element.unit()) == TensorElement(2)


def test_coproduct_counit():
    assert counit(Element.unit()) == 1
    assert counit(Element.basis((2, 1))) == 0
    assert counit(Element({(): Fraction(1, 2), (1,): 7})) == Fraction(1, 2)


def test_coproduct_is_algebra_map_spot():
    for a in [(1,), (2,)]:
        for b in [(1,), (1, 1), (2,)]:
            lhs = coproduct(shuffle(a, b))
            rhs = componentwise_product(coproduct(a), coproduct(b), shuffle)
            assert lhs == rhs


def test_coassociativity_spot():
    from mzhopf.shuffle_algebra import _expand_first
    from mzhopf.verify import _expand_last

    for c in compositions_up_to(5):
        d = coproduct(Element.basis(c))._terms
        assert _expand_first(d, coproduct) == _expand_last(d, coproduct)


def test_iterated_coproduct_ranks():
    e = Element.basis((2, 1))
    assert iterated_coproduct(1, e) == TensorElement(1, {((2, 1),): 1})
    assert iterated_coproduct(2, e) == coproduct(e)
    with pytest.raises(ValueError):
        iterated_coproduct(0, e)


def test_lifted_raise_part_shifts_index_into_right_factor():
    t = TensorElement(2, {((1,), (1,)): 1})
    got = lifted_raise_part(2, t)
    # right factor sees slot 2 - 1 = 1; left factor sees its boundary slot,
    # contributing the negative term that ends up in coproduct([1,2])
    assert got == T({((1,), (2,)): 1, ((2,), (1,)): -1})


def test_antipode_frozen_examples():
    assert antipode((2,)) == Element.basis((2,), -1)
    assert antipode((1, 1)) == Element.basis((1, 1))
    assert antipode(Element.unit()) == Element.unit()


def test_antipode_axiom_spot():
    for c in compositions_up_to(5):
        acc = Element.zero()
        for (u, v), q in coproduct(c).terms():
            acc = acc + shuffle(antipode(Element.basis(u)), Element.basis(v, q))
        expected = Element.unit() if c == UNIT else Element.zero()
        assert acc == expected


def test_antipode_is_an_involution_here():
    # commutative Hopf algebras have involutive antipodes
    for c in compositions_up_to(5):
        e = Element.basis(c)
        assert antipode(antipode(e)) == e


def _recursive_antipode(c, memo):
    """S(c) = -c - sum S(u) sh v over the reduced coproduct, from public names only."""
    if c not in memo:
        acc = Element.basis(c, -1) if c else Element.unit()
        for (u, v), q in reduced_coproduct(c).terms():
            acc = acc - shuffle(_recursive_antipode(u, memo), Element.basis(v, q))
        memo[c] = acc
    return memo[c]


def test_closed_form_antipode_matches_recursion_through_weight_ten():
    # the bound may be raised, never lowered
    memo = {}
    for c in compositions_up_to(10):
        assert antipode(c) == _recursive_antipode(c, memo), c


def _antipode_terms(capsys, c):
    code = cli.main(["antipode", str(Composition(c))])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    return doc["terms"]


def test_antipode_of_deep_compositions(capsys):
    # a construction that recursed once per part would exceed Python's
    # recursion limit on these
    assert _antipode_terms(capsys, (1,) * 400) == [{"coeff": "1", "comp": [1] * 400}]
    terms = _antipode_terms(capsys, (2,) + (1,) * 300)
    assert len(terms) == 301
    assert all(t["coeff"] == "-1" for t in terms)
