from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mzhopf.compositions import Composition, UNIT
from mzhopf.elements import (
    Element,
    TensorElement,
    as_element,
    coerce_coeff,
    component_weights,
    componentwise_product,
    graded_component,
    linear_combination,
)
from mzhopf.morphisms import factorial_character, induced_morphism_fast
from mzhopf.quasi_shuffle import stuffle


compositions = st.lists(st.integers(1, 4), min_size=0, max_size=4).map(tuple)
rationals = st.fractions(
    max_denominator=12,
    min_value=Fraction(-20),
    max_value=Fraction(20),
)
elements = st.dictionaries(compositions, rationals, max_size=5).map(Element)


def test_coerce_coeff():
    assert coerce_coeff(3) == 3
    assert coerce_coeff(Fraction(4, 2)) == 2
    assert isinstance(coerce_coeff(Fraction(4, 2)), int)
    assert coerce_coeff("2/3") == Fraction(2, 3)
    with pytest.raises(TypeError):
        coerce_coeff(0.5)
    with pytest.raises(TypeError):
        coerce_coeff(None)


def test_element_drops_zero_terms():
    e = Element({(2,): 1}) - Element({(2,): 1})
    assert e == Element.zero()
    assert not e
    assert len(e) == 0
    assert Element.basis((2,), 0) == Element.zero()


def test_element_accumulates_pairs():
    e = Element([((2,), 1), ((2,), 2), ((1, 1), 1)])
    assert e.coefficient((2,)) == 3
    assert e.coefficient((1, 1)) == 1
    assert e.coefficient((5,)) == 0


def test_unit_and_basis():
    one = Element.unit()
    assert one.coefficient(UNIT) == 1
    assert len(one) == 1
    assert as_element((2, 1)) == Element.basis((2, 1))
    assert as_element(one) is one


@given(elements, elements, elements)
@settings(max_examples=60, deadline=None)
def test_addition_axioms(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a + Element.zero() == a
    assert a - a == Element.zero()


@given(elements, rationals, rationals)
@settings(max_examples=60, deadline=None)
def test_scaling_axioms(a, p, q):
    assert a.scaled(p).scaled(q) == a.scaled(p * q)
    assert a.scaled(p) + a.scaled(q) == a.scaled(p + q)
    assert a.scaled(1) == a
    assert a.scaled(0) == Element.zero()
    assert 2 * a == a + a


def test_division():
    e = Element.basis((2,), 3)
    assert e / 2 == Element.basis((2,), Fraction(3, 2))


# a rank-3 tensor with unit factors and Fraction coefficients, and its terms
# in canonical order: factor by factor, each weight-major
TENSOR3 = {
    ((2,), (), (1,)): Fraction(1, 2),
    ((), (1,), ()): -3,
    ((1,), (1, 1), ()): Fraction(-2, 3),
    ((), (), ()): 1,
}


def test_terms_sorted_weight_major_then_order():
    e = Element({(1, 1): 1, (3,): 1, (2,): 1, (): 1, (2, 1): 1})
    assert [tuple(c) for c, _ in e.terms()] == [(), (2,), (1, 1), (3,), (2, 1)]
    t = TensorElement(3, TENSOR3)
    assert [tuple(map(tuple, k)) for k, _ in t.terms()] == [
        ((), (), ()), ((), (1,), ()), ((1,), (1, 1), ()), ((2,), (), (1,)),
    ]


def test_to_records():
    e = Element({(2,): Fraction(1, 2), (1, 1): -2})
    assert e.to_records() == [
        {"coeff": "1/2", "comp": [2]},
        {"coeff": "-2", "comp": [1, 1]},
    ]
    assert TensorElement(3, TENSOR3).to_records() == [
        {"coeff": "1", "comp": [[], [], []]},
        {"coeff": "-3", "comp": [[], [1], []]},
        {"coeff": "-2/3", "comp": [[1], [1, 1], []]},
        {"coeff": "1/2", "comp": [[2], [], [1]]},
    ]


def test_str_forms():
    assert str(Element.zero()) == "0*1"
    assert str(Element.unit()) == "1"
    assert str(Element.basis((2,), -1)) == "-[2]"
    e = Element({(2,): Fraction(1, 2), (1, 1): -1})
    assert str(e) == "1/2*[2] - [1,1]"
    assert repr(e + Element.unit()) == "Element({1: 1, [2]: 1/2, [1,1]: -1})"
    assert repr(Element.zero()) == "Element({})"


def test_map_basis_is_linear():
    e = Element({(2,): 2, (1,): -1})
    image = e.map_basis(lambda c: Element.basis(c + c))
    assert image == Element({(2, 2): 2, (1, 1): -1})


def test_graded_component_and_weights():
    e = Element({(2,): 1, (1, 1): 1, (3,): 5})
    assert graded_component(e, 2) == Element({(2,): 1, (1, 1): 1})
    assert graded_component(e, 7) == Element.zero()
    assert component_weights(e) == [2, 3]
    assert e.max_weight() == 3
    assert Element.zero().max_weight() == 0


def test_element_hash_consistency():
    a = Element({(2,): Fraction(2, 1)})
    b = Element({(2,): 2})
    assert a == b and hash(a) == hash(b)
    key = ((2,), (), (1, 1))
    s = TensorElement(3, {key: Fraction(2, 1)})
    t = TensorElement(3, {key: 2})
    assert s == t and hash(s) == hash(t)
    assert TensorElement(2) != TensorElement(3)


def test_element_and_tensor_are_distinct_types():
    e = Element.basis((2,))
    t = TensorElement.basis([(2,)])
    assert not isinstance(TensorElement(2), Element)
    assert e != t and t != e
    assert Element.zero() != TensorElement(1)
    for x, y in ((e, t), (t, e)):
        with pytest.raises(TypeError):
            x + y
        with pytest.raises(TypeError):
            x - y


def test_tensor_basics():
    t = TensorElement(2, {((2,), (1,)): 1})
    assert t.rank == 2
    assert t.coefficient(((2,), (1,))) == 1
    assert t + (-t) == TensorElement(2)
    with pytest.raises(ValueError):
        TensorElement(0)
    with pytest.raises(ValueError):
        TensorElement(2, {((2,),): 1})
    assert t.coefficient(((2,),)) == 0  # a key of another rank


def test_tensor_rank_mismatch_add():
    with pytest.raises(ValueError):
        TensorElement(2) + TensorElement(3)


def test_tensor_str():
    t = TensorElement(2, {((2,), ()): 2})
    assert str(t) == "2*[2](x)1"
    assert repr(t) == "TensorElement(rank=2, {([2], 1): 2})"
    t3 = TensorElement(3, TENSOR3)
    assert str(t3) == "1(x)1(x)1 - 3*1(x)[1](x)1 - 2/3*[1](x)[1,1](x)1 + 1/2*[2](x)1(x)[1]"
    assert repr(t3) == (
        "TensorElement(rank=3, {(1, 1, 1): 1, (1, [1], 1): -3, "
        "([1], [1,1], 1): -2/3, ([2], 1, [1]): 1/2})"
    )
    assert str(TensorElement(3)) == "0"
    assert repr(TensorElement(3)) == "TensorElement(rank=3, {})"


def test_linear_combination_cancels_then_reappears():
    parts = [([("a", 1), ("b", 2)], 1), ([("a", -1)], 1), ([("a", Fraction(1, 2))], 1)]
    assert linear_combination(parts) == {"a": Fraction(1, 2), "b": 2}
    # a key that cancels for good is dropped
    assert linear_combination([([("a", 3), ("a", -3), ("b", 1)], 1)]) == {"b": 1}
    # a leading unscaled dict is copied whole; later parts cancel two of its
    # keys and bring one back, and the dict itself is left alone
    base = {"a": 1, "b": Fraction(2, 3), "c": 5}
    parts = [
        (base.items(), 1),
        ([("a", -1), ("b", Fraction(-2, 3))], 1),
        ([("b", 3)], Fraction(1, 2)),
        ([("d", 1), ("d", -1)], 1),
    ]
    assert linear_combination(parts) == {"b": Fraction(3, 2), "c": 5}
    assert base == {"a": 1, "b": Fraction(2, 3), "c": 5}


def test_linear_combination_scaled_and_unscaled_parts():
    parts = [([("a", 1), ("b", Fraction(1, 3))], 1), ([("a", 2), ("c", 1)], Fraction(-1, 2))]
    assert linear_combination(parts) == {"b": Fraction(1, 3), "c": Fraction(-1, 2)}
    assert linear_combination([([("a", 5)], 0)]) == {}


def test_linear_combination_generator_parts_and_empty_input():
    # each generator part reads the loop variable of the generator of parts,
    # so the parts must be used up one at a time
    parts = ((((key, i) for key in "ab"), i) for i in range(1, 4))
    assert linear_combination(parts) == {"a": 14, "b": 14}
    assert linear_combination([]) == {}
    assert linear_combination(iter([([], 7)])) == {}


def test_componentwise_product_bilinear():
    t1 = TensorElement(2, {((1,), (1,)): 2})
    t2 = TensorElement(2, {((1,), ()): 1})
    got = componentwise_product(t1, t2, stuffle)
    # first factors multiply to [1,1]+[1,1]+[2]; second factor stays [1]
    assert got == TensorElement(2, {((1, 1), (1,)): 4, ((2,), (1,)): 2})


def test_large_factorial_diagonal_is_exact():
    # weight 100 has 2^99 compositions, so nothing may enumerate the basis
    for n in (20, 100):
        chi = factorial_character(n)
        image = induced_morphism_fast(chi, Element.basis((n,)))
        assert image == Element.basis((n,), Fraction(1, factorial(n)))
