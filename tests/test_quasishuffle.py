import tracemalloc
from array import array
from fractions import Fraction
from itertools import combinations

from hypothesis import given, settings

from conftest import operand_pairs
from mzhopf.compositions import (
    UNIT,
    Composition,
    compositions_up_to,
    encode_word,
    enumerate_basis,
)
from mzhopf.elements import Element, TensorElement, componentwise_product
from mzhopf.quasi_shuffle import (
    _code,
    _decode,
    _pair,
    _quasi_shuffle,
    antipode,
    canonical_character,
    coproduct,
    counit,
    stuffle,
)
from mzhopf.shuffle_algebra import shuffle


def test_word_codes_round_trip_through_weight_twelve():
    # the product kernel's keys: a leading 1 bit, then the word's letters
    basis = list(compositions_up_to(12))
    assert len(basis) == 4096
    for c in basis:
        w = _code(c)
        assert bin(w)[3:] == encode_word(c)
        d = _decode(w)
        assert d == c and type(d) is Composition


def test_stuffle_frozen_examples():
    assert stuffle((2,), (2,)) == Element({(2, 2): 2, (4,): 1})
    assert stuffle((1,), (1,)) == Element({(1, 1): 2, (2,): 1})
    assert stuffle((2,), (3,)) == Element({(2, 3): 1, (3, 2): 1, (5,): 1})
    assert stuffle((1,), (2, 1)) == Element({
        (1, 2, 1): 1, (2, 1, 1): 2, (3, 1): 1, (2, 2): 1,
    })


def test_stuffle_unit_is_identity():
    e = Element({(2, 1): 3, (1,): -1})
    assert stuffle(Element.unit(), e) == e
    assert stuffle(e, Element.unit()) == e


def test_stuffle_commutative_associative_sample():
    xs = [Element.basis(c) for c in enumerate_basis(2)] + [Element.basis((3,))]
    for a in xs:
        for b in xs:
            assert stuffle(a, b) == stuffle(b, a)
            for c in xs:
                assert stuffle(stuffle(a, b), c) == stuffle(a, stuffle(b, c))



def _positional_stuffle(a, b) -> dict:
    # place a and b in order-preserving slots of a length-k word that uses
    # every slot; a slot both of them use holds the sum of the two parts
    out = {}
    for k in range(max(len(a), len(b)), len(a) + len(b) + 1):
        for slots_a in combinations(range(k), len(a)):
            for slots_b in combinations(range(k), len(b)):
                if len(set(slots_a) | set(slots_b)) < k:
                    continue
                word = [0] * k
                for slot, part in zip(slots_a + slots_b, a + b):
                    word[slot] += part
                key = tuple(word)
                out[key] = out.get(key, 0) + 1
    return out


def test_stuffle_matches_positional_oracle_through_total_weight_nine():
    pairs = [
        (a, b)
        for a in compositions_up_to(9)
        for b in compositions_up_to(9 - a.weight)
    ]
    assert len(pairs) == 2816
    for a, b in pairs:
        prod = stuffle(a, b)
        assert prod == Element(_positional_stuffle(tuple(a), tuple(b))), (a, b)
        assert all(type(c) is Composition for c in prod.support()), (a, b)
        assert all(type(c) is Composition for c in shuffle(a, b).support()), (a, b)


def test_stuffle_past_weight_sixty_four():
    # the kernel entries of weight >= 64 keep tuples, those below are arrays
    got = stuffle((1,) * 64, (1,))
    expected = {(1,) * 65: 65}
    for i in range(64):
        expected[(1,) * i + (2,) + (1,) * (63 - i)] = 1
    assert got == Element(expected)
    u, v = _code((1,)), _code((1,) * 64)
    assert all(type(x) is tuple for x in _pair(u, v, True))
    assert all(type(x) is array for x in _pair(u, v >> 2, True))


def test_kernel_entries_are_packed_machine_words():
    # every shuffle and stuffle of a weight-6 and a weight-5 basis element:
    # tuples of int objects held about 7.6 MiB here, the packed entries 3.9
    left = [_code(c) for c in enumerate_basis(6)]
    right = [_code(c) for c in enumerate_basis(5)]
    _quasi_shuffle.cache_clear()
    tracemalloc.start()
    try:
        for u in left:
            for v in right:
                _pair(u, v, False)
                _pair(u, v, True)
        held = tracemalloc.get_traced_memory()[0]
        entry = _pair(left[0], right[-1], True)
        _quasi_shuffle.cache_clear()
        held -= tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
        _quasi_shuffle.cache_clear()
    assert held <= 5 * 2**20
    assert all(type(x) is array and x.typecode == "Q" for x in entry)


@given(operand_pairs)
@settings(max_examples=60, deadline=None)
def test_stuffle_of_rational_sums_is_the_scaled_sum_of_basis_products(ab):
    a, b = ab
    expected = Element.zero()
    for c1, q1 in a.terms():
        for c2, q2 in b.terms():
            expected = expected + stuffle(Element.basis(c1), Element.basis(c2)).scaled(q1 * q2)
    assert stuffle(a, b) == expected


def test_stuffle_depth_one_term_count():
    for s in range(1, 5):
        for t in range(1, 5):
            prod = stuffle((s,), (t,))
            assert sum(q for _, q in prod.terms()) == 3


def test_deconcatenation_coproduct():
    c = Composition((2, 1, 1))
    expected = TensorElement(2, {
        (UNIT, (2, 1, 1)): 1,
        ((2,), (1, 1)): 1,
        ((2, 1), (1,)): 1,
        ((2, 1, 1), UNIT): 1,
    })
    assert coproduct(c) == expected
    assert coproduct(Element.unit()) == TensorElement(2, {(UNIT, UNIT): 1})


def test_deconcatenation_term_count_is_depth_plus_one():
    for c in compositions_up_to(6):
        assert len(coproduct(c)) == c.depth + 1


def test_counit():
    assert counit(Element.unit()) == 1
    assert counit(Element.basis((3,))) == 0


def test_coproduct_is_algebra_map_spot():
    for a in [(1,), (2,), (1, 1)]:
        for b in [(1,), (2,)]:
            lhs = coproduct(stuffle(a, b))
            rhs = componentwise_product(coproduct(a), coproduct(b), stuffle)
            assert lhs == rhs


def test_antipode_frozen_examples():
    assert antipode((1, 1)) == Element({(2,): 1, (1, 1): 1})
    assert antipode((1, 2)) == Element({(3,): 1, (2, 1): 1})
    assert antipode((2,)) == Element.basis((2,), -1)
    assert antipode(Element.unit()) == Element.unit()


def test_antipode_sign_and_reversal():
    # depth-3 composition: sign (-1)^3, coarsenings of the reversal
    got = antipode((1, 2, 1))
    assert got == Element({
        (1, 2, 1): -1, (3, 1): -1, (1, 3): -1, (4,): -1,
    })


def test_antipode_axiom_spot():
    for c in compositions_up_to(5):
        acc = Element.zero()
        for (u, v), q in coproduct(c).terms():
            acc = acc + stuffle(antipode(Element.basis(u)), Element.basis(v, q))
        expected = Element.unit() if c == UNIT else Element.zero()
        assert acc == expected


def test_antipode_matches_convolution_recursion():
    from mzhopf.verify import _convolution_antipode

    memo = {}
    for c in compositions_up_to(5):
        assert antipode(c) == _convolution_antipode(c, memo)


def test_canonical_character_keeps_shallow_terms():
    e = Element({(): 2, (5,): Fraction(1, 3), (2, 1): 100})
    assert canonical_character(e) == Fraction(7, 3)
    assert canonical_character(Element.zero()) == 0


def test_canonical_character_is_multiplicative_spot():
    for a in compositions_up_to(3):
        for b in compositions_up_to(3):
            ea, eb = Element.basis(a), Element.basis(b)
            assert canonical_character(stuffle(ea, eb)) == \
                canonical_character(ea) * canonical_character(eb)
