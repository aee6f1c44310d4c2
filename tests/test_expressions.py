import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mzhopf.elements import Element
from mzhopf.expressions import (
    ExpressionSyntaxError,
    Product,
    Sum,
    evaluate,
    evaluate_expression,
    parse_expression,
)
from mzhopf.quasi_shuffle import stuffle
from mzhopf.shuffle_algebra import shuffle


def test_literals():
    assert evaluate_expression("[2,1]") == Element.basis((2, 1))
    assert evaluate_expression("1") == Element.unit()
    assert evaluate_expression(" [ 2 , 1 ] ") == Element.basis((2, 1))


def test_scalar_multiples():
    assert evaluate_expression("3*[2]") == Element.basis((2,), 3)
    assert evaluate_expression("1/2*[2]") == Element.basis((2,), Fraction(1, 2))
    assert evaluate_expression("2*3*[1]") == Element.basis((1,), 6)
    assert evaluate_expression("5*1") == Element.unit().scaled(5)


def test_sums_and_differences():
    got = evaluate_expression("[2] + [1,1] - 2*[2]")
    assert got == Element({(1, 1): 1, (2,): -1})
    assert evaluate_expression("-[2]") == Element.basis((2,), -1)
    assert evaluate_expression("+[2]") == Element.basis((2,))


def test_products():
    assert evaluate_expression("[2] sh [2]") == shuffle((2,), (2,))
    assert evaluate_expression("[2] st [2]") == stuffle((2,), (2,))
    assert evaluate_expression("[1] sh [1] sh [1]") == shuffle(shuffle((1,), (1,)), (1,))


def test_product_binds_tighter_than_sum():
    got = evaluate_expression("[1] st [2] - [3]")
    assert got == Element({(1, 2): 1, (2, 1): 1})


def test_scalar_binds_to_factor_not_product():
    got = evaluate_expression("2*[1] sh [2]")
    assert got == shuffle(Element.basis((1,), 2), (2,))


def test_grouping():
    got = evaluate_expression("([1] + [2]) sh [1]")
    assert got == shuffle(Element({(1,): 1, (2,): 1}), (1,))
    assert evaluate_expression("2*([2] + [3])") == Element({(2,): 2, (3,): 2})


def test_mixed_products():
    got = evaluate_expression("[2] sh [1] st [1]")
    # left to right: ([2] sh [1]) st [1]
    assert got == stuffle(shuffle((2,), (1,)), (1,))


def test_chains_parse_flat():
    node = parse_expression(" + ".join(["[1]"] * 5000))
    assert isinstance(node, Sum) and len(node.terms) == 5000
    node = parse_expression(" sh ".join(["[1]"] * 3001))
    assert isinstance(node, Product) and len(node.links) == 3000
    assert parse_expression("([2])") == parse_expression("[2]")


@pytest.mark.parametrize(
    "src",
    [
        "[2,]",
        "[",
        "[2] sh",
        "2 + [1]",          # bare integer is not an element
        "[2] xx [3]",
        "1/0*[2]",
        "[0]",
        "( [2]",
        "[2] )",
        "",
        "[2] 3",
        "*[2]",
    ],
)
def test_syntax_errors(src):
    with pytest.raises(ExpressionSyntaxError):
        evaluate_expression(src)


def test_error_positions_are_one_based():
    with pytest.raises(ExpressionSyntaxError) as err:
        evaluate_expression("[2] yy [3]")
    assert err.value.position == 5
    assert "position 5" in str(err.value)


@pytest.mark.parametrize(
    "src, message, position",
    [
        ("[2] yy [3]", "unknown word 'yy' (expected 'sh' or 'st')", 5),
        ("[1] +   @", "unexpected character '@'", 9),
        ("[1] + 2", "bare integer '2' is not an element (use '1', a literal, or 'n*...')", 7),
        ("[2] 3", "unexpected trailing '3'", 5),
        ("1/0*[2]", "zero denominator", 3),
        ("[1,0]", "composition parts must be >= 1, got 0", 4),
        ("[2] sh", "expected an element, found 'end of input'", 7),
        ("[2", "expected ']', found 'end of input'", 3),
    ],
)
def test_error_messages_and_positions(src, message, position):
    with pytest.raises(ExpressionSyntaxError) as err:
        parse_expression(src)
    assert str(err.value) == f"{message} (at position {position})"
    assert err.value.position == position


def test_trailing_whitespace_is_linear():
    start = time.perf_counter()
    node = parse_expression("[1]" + " " * 100_000)
    assert time.perf_counter() - start < 0.1
    assert evaluate(node) == Element.basis((1,))


def test_bare_integer_message():
    with pytest.raises(ExpressionSyntaxError, match="bare integer"):
        evaluate_expression("[1] + 2")


compositions = st.lists(st.integers(1, 5), min_size=0, max_size=3).map(tuple)
coeffs = st.fractions(max_denominator=9, min_value=Fraction(-9), max_value=Fraction(9))


@given(st.dictionaries(compositions, coeffs, max_size=5))
@settings(max_examples=80, deadline=None)
def test_print_parse_roundtrip(terms):
    e = Element(terms)
    assert evaluate_expression(str(e)) == e
