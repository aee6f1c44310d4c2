import pytest

from mzhopf.compositions import (
    UNIT,
    Composition,
    WeightMismatchError,
    WordDecodeError,
    coarsenings,
    compositions_up_to,
    concatenate,
    decode_word,
    encode_word,
    enumerate_basis,
    is_admissible,
    order_cmp,
    order_key,
    serial_key,
    tensor_le,
)


def test_construction_and_stats():
    c = Composition((2, 1, 3))
    assert c.parts == (2, 1, 3)
    assert c.weight == 6
    assert c.depth == 3
    assert not c.is_unit
    assert UNIT.weight == 0
    assert UNIT.depth == 0
    assert UNIT.is_unit


def test_construction_accepts_iterables_and_copies():
    assert Composition([2, 1]) == Composition((2, 1))
    c = Composition((2,))
    assert Composition(c) == c


@pytest.mark.parametrize("bad", [(0,), (-1,), (2, 0), (1.5,), ("2",)])
def test_invalid_parts_rejected(bad):
    with pytest.raises((ValueError, TypeError)):
        Composition(bad)


def test_raised_and_slicing():
    c = Composition((2, 1, 3))
    assert c.raised(0) == Composition((3, 1, 3))
    assert c.raised(2) == Composition((2, 1, 4))
    assert c[0] == 2
    assert c[1:] == Composition((1, 3))
    assert c[:0] == UNIT
    assert c + Composition((5,)) == Composition((2, 1, 3, 5))


def test_add_joins_compositions_and_validates_raw_operands():
    joined = Composition((2, 1)) + Composition((3,))
    assert type(joined) is Composition and joined == (2, 1, 3)
    assert type(UNIT + UNIT) is Composition and UNIT + UNIT == UNIT
    assert type(Composition((1,)) + (2,)) is Composition
    assert type((2,) + Composition((1,))) is Composition
    # a raw operand is still validated, on either side
    with pytest.raises(ValueError):
        Composition((2,)) + (1, 0)
    with pytest.raises(ValueError):
        (0,) + Composition((2,))


def test_str_and_repr():
    assert str(Composition((2, 1))) == "[2,1]"
    assert str(UNIT) == "1"
    assert "2, 1" in repr(Composition((2, 1)))


def test_order_smaller_first_part_is_larger():
    # at the first differing slot the smaller part wins
    assert Composition((4,)) < Composition((3, 1))
    assert Composition((2, 2)) < Composition((2, 1, 1))
    assert Composition((1, 3)) > Composition((2, 1, 1))
    assert order_cmp(Composition((2, 2)), Composition((2, 2))) == 0


def test_order_prefix_case():
    # [2,1,1] vs [2,2]: first difference at slot 1, part 1 < 2
    assert order_cmp(Composition((2, 1, 1)), Composition((2, 2))) == 1


def test_cross_weight_comparison_raises():
    with pytest.raises(WeightMismatchError):
        order_cmp(Composition((2,)), Composition((3,)))
    with pytest.raises(WeightMismatchError):
        Composition((2,)) < Composition((2, 1))


def test_enumerate_basis_weight_four_chain():
    got = [tuple(c) for c in enumerate_basis(4)]
    assert got == [
        (4,), (3, 1), (2, 2), (2, 1, 1), (1, 3), (1, 2, 1), (1, 1, 2), (1, 1, 1, 1)
    ]


def test_enumerate_basis_counts_and_sortedness():
    assert enumerate_basis(0) == [UNIT]
    for n in range(1, 9):
        basis = enumerate_basis(n)
        assert len(basis) == 2 ** (n - 1)
        assert all(a < b for a, b in zip(basis, basis[1:]))
    with pytest.raises(ValueError):
        enumerate_basis(-1)


def test_extremes_of_each_weight():
    for n in range(1, 7):
        basis = enumerate_basis(n)
        assert basis[0] == Composition((n,))
        assert basis[-1] == Composition((1,) * n)


def test_order_key_matches_order_cmp():
    basis = enumerate_basis(5)
    assert sorted(basis, key=order_key) == basis
    assert sorted(basis, key=serial_key) == basis


def test_compositions_up_to():
    seen = list(compositions_up_to(3))
    assert seen[0] == UNIT
    assert len(seen) == 1 + 1 + 2 + 4


def test_words_roundtrip():
    for c in compositions_up_to(8):
        assert decode_word(encode_word(c)) == c
    assert encode_word(Composition((3, 1))) == "0011"
    assert encode_word(Composition((2, 1))) == "011"
    assert encode_word(UNIT) == ""


def test_decode_rejects_undecodable():
    with pytest.raises(WordDecodeError):
        decode_word("010")  # does not end in 1
    with pytest.raises(WordDecodeError):
        decode_word("0")
    with pytest.raises(WordDecodeError):
        decode_word("21")
    assert decode_word("") == UNIT


def test_concatenate():
    assert concatenate([Composition((2,)), UNIT, Composition((1, 1))]) == Composition((2, 1, 1))
    assert concatenate([]) == UNIT
    # raw factors are still validated
    with pytest.raises(ValueError):
        concatenate([Composition((2,)), (1, 0)])


def test_tensor_le_examples():
    assert tensor_le((UNIT, Composition((1,))), (Composition((1,)),))
    assert tensor_le((Composition((2,)), Composition((2,))), (Composition((1, 3)),))
    assert tensor_le((Composition((2,)), Composition((2,))), (Composition((2, 2)),))
    assert tensor_le((Composition((2, 2)),), (Composition((2,)), Composition((2,))))
    with pytest.raises(WeightMismatchError):
        tensor_le((Composition((2,)),), (Composition((2, 1)),))


def test_tensor_le_ignores_unit_factors():
    u = (Composition((2,)), UNIT, Composition((2,)))
    v = (Composition((2, 2)),)
    assert tensor_le(u, v) and tensor_le(v, u)  # equal concatenations
    assert tensor_le(u, u)


def test_tensor_le_is_not_antisymmetric():
    u = (Composition((2,)), Composition((1,)))
    v = (Composition((2, 1)),)
    assert tensor_le(u, v) and tensor_le(v, u)
    assert u != v


def test_tensor_le_transitive_sample():
    tensors = []
    for a in enumerate_basis(2):
        for b in enumerate_basis(2):
            tensors.append((a, b))
    for x in tensors:
        for y in tensors:
            for z in tensors:
                if tensor_le(x, y) and tensor_le(y, z):
                    assert tensor_le(x, z)


def test_coarsenings():
    got = coarsenings(Composition((1, 1, 1)))
    assert got == frozenset({
        Composition((1, 1, 1)),
        Composition((2, 1)),
        Composition((1, 2)),
        Composition((3,)),
    })
    assert coarsenings(UNIT) == frozenset({UNIT})
    assert coarsenings(Composition((5,))) == frozenset({Composition((5,))})


def test_is_admissible():
    assert is_admissible(Composition((2, 1)))
    assert not is_admissible(Composition((1, 2)))
    assert not is_admissible(UNIT)
