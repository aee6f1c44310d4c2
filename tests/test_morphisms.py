import gc
import json
import random
import tracemalloc
from contextlib import redirect_stdout
from fractions import Fraction
from math import factorial, prod

import pytest
from hypothesis import given, settings

from conftest import rational_sums
from mzhopf import cli, morphisms, verify
from mzhopf.compositions import Composition, UNIT, compositions_up_to, enumerate_basis
from mzhopf.elements import Element
from mzhopf.morphisms import (
    Character,
    CoverageError,
    InvalidCharacterError,
    SingularCharacterError,
    factorial_character,
    induced_morphism_fast,
    morphism_matrix,
    preimage,
    read_character_file,
    validate_character,
)
from mzhopf.quasi_shuffle import canonical_character, stuffle
from mzhopf.shuffle_algebra import iterated_coproduct, shuffle
from mzhopf.verify import induced_morphism


F = Fraction


def test_character_table_and_rule():
    chi = Character({(1,): 5}, max_weight=3, rule=lambda c: c.weight)
    assert chi.value(UNIT) == 1
    assert chi.value((1,)) == 5
    assert chi.value((2, 1)) == 3  # rule fills missing entries
    with pytest.raises(CoverageError):
        chi.value((4,))


def test_character_without_rule_needs_full_table():
    chi = Character({(1,): 1}, max_weight=2)
    with pytest.raises(CoverageError):
        chi.value((2,))


def test_character_rejects_bad_unit():
    with pytest.raises(ValueError):
        Character({(): 2}, max_weight=1)
    with pytest.raises(ValueError):
        Character({(3,): 1}, max_weight=2)


def test_character_linear_call():
    chi = factorial_character(4)
    e = Element({(2,): 2, (1, 1): 1})
    assert chi(e) == 2 * F(1, 2) + F(1, 2)
    assert chi((3,)) == F(1, 6)


def test_factorial_character_values():
    chi = factorial_character(6)
    assert chi.value((1, 1, 1)) == F(1, 6)
    assert chi.value((4,)) == F(1, 24)
    assert chi.value(UNIT) == 1


def test_validate_character_accepts_factorial():
    assert validate_character(factorial_character(5))


def test_validate_character_catches_violation():
    bad = Character({(1,): 1, (2,): 1, (1, 1): 1}, max_weight=2)
    check = validate_character(bad)
    assert not check
    assert check.violation == (Composition((1,)), Composition((1,)))
    assert "chi" in check.detail


def test_validate_scaled_table():
    # table built from chi([1]) = c with the forced degree-2 values
    c = F(3)
    chi = Character(
        {(1,): c, (2,): c * c / 2, (1, 1): c * c / 2},
        max_weight=2,
    )
    assert validate_character(chi)
    # doubling the depth-2 entry breaks multiplicativity
    broken = Character(
        {(1,): c, (2,): c * c / 2, (1, 1): c * c},
        max_weight=2,
    )
    assert not validate_character(broken)


GOLDEN = {
    (2,): {(2,): F(1, 2)},
    (1, 1): {(2,): F(1, 2), (1, 1): 1},
    (2, 1): {(3,): F(1, 6), (2, 1): F(1, 2)},
    (1, 2): {(3,): F(1, 6), (1, 2): F(1, 2), (2, 1): F(-1, 2)},
    (1, 1, 1): {(3,): F(1, 6), (1, 2): F(1, 2), (2, 1): F(1, 2), (1, 1, 1): 1},
    (3, 1): {(4,): F(1, 24), (3, 1): F(1, 6)},
    (2, 2): {(4,): F(1, 24), (2, 2): F(1, 4), (3, 1): F(-1, 3)},
}


@pytest.mark.parametrize("comp", sorted(GOLDEN, key=lambda c: (len(c), c)))
def test_golden_images_both_routes(comp):
    chi = factorial_character(6)
    expected = Element(GOLDEN[comp])
    assert induced_morphism(chi, Element.basis(comp)) == expected
    assert induced_morphism_fast(chi, Element.basis(comp)) == expected


def test_single_parts_map_to_inverse_factorials():
    chi = factorial_character(8)
    for n in range(1, 8):
        img = induced_morphism(chi, Element.basis((n,)))
        assert img == Element.basis((n,), F(1, factorial(n)))


def test_ones_map_to_hoffman_exponential_through_weight_twelve():
    # psi([1^k]) = exp([1^k]) = sum over compositions I of k of [I] / prod(i_l!)
    # (Hoffman, "Quasi-shuffle products", J. Algebraic Combin. 11, 2000)
    chi = factorial_character(12)
    for k in range(1, 13):
        expected = Element({c: F(1, prod(map(factorial, c))) for c in enumerate_basis(k)})
        assert induced_morphism_fast(chi, Element.basis((1,) * k)) == expected, k


def _coprime_character(max_weight):
    """A multiplicative character whose values have large coprime
    denominators (powers of 1009 and 997 times factorials)."""
    return verify._convolved_character(
        verify._scaled_factorial(F(7, 1009), max_weight),
        verify._scaled_factorial(F(-5, 997), max_weight),
        max_weight,
    )


def test_morphism_routes_agree_up_to_weight_six():
    # the convolved characters are multiplicative but not rescaled factorials
    chars = [factorial_character(6), verify._random_characters(6)[1], _coprime_character(6)]
    for chi in chars:
        for c in compositions_up_to(6):
            e = Element.basis(c)
            assert induced_morphism(chi, e) == induced_morphism_fast(chi, e)


@pytest.mark.parametrize("convolved", [False, True], ids=["factorial", "convolved"])
def test_pruned_oracle_matches_unpruned_expansion_to_weight_seven(convolved):
    # the unpruned side expands the full iterated coproduct, unit factors
    # included, and drops the keys whose weight profile contains a zero
    chi = verify._random_characters(7)[1] if convolved else factorial_character(7)
    for c in compositions_up_to(7):
        if not c:
            continue
        unpruned = {}
        for m in range(1, c.weight + 1):
            for key, q in iterated_coproduct(m, c)._terms.items():
                profile = tuple(f.weight for f in key)
                if 0 in profile:
                    continue
                for f in key:
                    q *= chi.value(f)
                unpruned[profile] = unpruned.get(profile, 0) + q
        assert induced_morphism(chi, Element.basis(c)) == Element(unpruned)


def test_repeated_morphism_calls_return_equal_unshared_results():
    chi = factorial_character(6)
    e = Element.basis((1, 2, 1, 1))
    first = induced_morphism_fast(chi, e)
    second = induced_morphism_fast(chi, e)
    assert first == second
    assert first._terms is not second._terms
    first._terms.clear()
    assert induced_morphism_fast(chi, e) == second


@given(rational_sums(8))
@settings(max_examples=60, deadline=None)
def test_morphism_of_a_rational_sum_is_the_scaled_sum_of_columns(e):
    chi = factorial_character(8)
    expected = Element.zero()
    for c, q in e.terms():
        expected = expected + induced_morphism_fast(chi, Element.basis(c)).scaled(q)
    assert induced_morphism_fast(chi, e) == expected


def test_morphism_is_algebra_map_spot():
    chi = factorial_character(6)
    for a in [(1,), (2,), (1, 1)]:
        for b in [(1,), (2,)]:
            lhs = induced_morphism_fast(chi, shuffle(a, b))
            rhs = stuffle(
                induced_morphism_fast(chi, Element.basis(a)),
                induced_morphism_fast(chi, Element.basis(b)),
            )
            assert lhs == rhs


def test_canonical_character_recovers_chi():
    chi = factorial_character(5)
    for c in compositions_up_to(5):
        got = canonical_character(induced_morphism_fast(chi, Element.basis(c)))
        assert got == chi.value(c)


def test_morphism_of_unit_and_zero():
    chi = factorial_character(4)
    assert induced_morphism(chi, Element.unit()) == Element.unit()
    assert induced_morphism_fast(chi, Element.zero()) == Element.zero()


def test_matrix_weight_two():
    chi = factorial_character(4)
    m = morphism_matrix(chi, 2)
    assert [tuple(c) for c in m.basis] == [(2,), (1, 1)]
    assert m.entries == ((F(1, 2), F(1, 2)), (F(0), F(1)))
    assert m.diagonal() == (F(1, 2), F(1))
    assert m.is_upper_triangular()


def test_matrix_is_upper_triangular_with_factorial_diagonal():
    chi = factorial_character(5)
    for n in range(1, 6):
        m = morphism_matrix(chi, n)
        assert m.is_upper_triangular()
        for j, c in enumerate(m.basis):
            expected = F(1)
            for part in c:
                expected *= F(1, __import__("math").factorial(part))
            assert m.entries[j][j] == expected


def test_memoized_columns_are_in_normal_form():
    chars = [factorial_character(8), verify._random_characters(8)[1], _coprime_character(7)]
    for chi in chars:
        for n in range(1, chi.max_weight + 1):
            morphism_matrix(chi, n)
        assert len(chi._psi) == 2**chi.max_weight  # every column, and the unit's
        for c, (den, nums) in chi._psi.items():
            assert type(den) is int and den >= 1, c
            assert all(type(v) is int and v for v in nums.values()), c
            assert __import__("math").gcd(den, *nums.values()) == 1, c


def _dense_renderings(m):
    """cells, CSV and table drawn from the dense entries, as the renderer
    did before the sparse integer columns."""
    headers = [str(c) for c in m.basis]
    cells = [[str(v) for v in row] for row in m.entries]
    csv = "\n".join([",".join(headers)] + [",".join(row) for row in cells]) + "\n"
    widths = [
        max(len(headers[j]), max(len(cells[i][j]) for i in range(len(cells))))
        for j in range(len(headers))
    ]
    stub = max(len(h) for h in headers)
    lines = [" " * stub + "  " + "  ".join(h.rjust(w) for h, w in zip(headers, widths))]
    for label, row in zip(headers, cells):
        lines.append(
            label.rjust(stub) + "  " + "  ".join(v.rjust(w) for v, w in zip(row, widths))
        )
    return cells, csv, "\n".join(lines) + "\n"


def test_matrix_renderings_match_str_of_entries(tmp_path, capsys):
    # the convolved character gives negative and non-unit-fraction entries;
    # the CLI reads it from a character file
    convolved = verify._random_characters(7)[1]
    path = _write_character(tmp_path, {
        "label": "convolved",
        "max_weight": 7,
        "values": {str(c): str(convolved.value(c)) for c in compositions_up_to(7) if c},
    })
    for chi, source in [(factorial_character(12), []), (convolved, ["--char-file", str(path)])]:
        for n in range(1, 8):
            m = morphism_matrix(chi, n)
            cells, csv, table = _dense_renderings(m)
            doc = json.dumps({"weight": n, "basis": [list(c) for c in m.basis], "entries": cells})
            assert m.cells() == cells
            assert m.to_csv() == csv
            assert m.to_table() == table
            assert m.to_json() == doc
            # the CLI streams each format; the table and the JSON end in
            # one more newline
            for fmt, text in (("table", table + "\n"), ("csv", csv), ("json", doc + "\n")):
                argv = ["matrix", "--weight", str(n), "--format", fmt, *source]
                assert cli.main(argv) == 0
                assert capsys.readouterr().out == text


class _Discard:
    def write(self, text):
        return len(text)


@pytest.mark.parametrize("fmt", ["table", "csv", "json"])
def test_streamed_matrix_rendering_memory_is_bounded(monkeypatch, fmt):
    # The weight-10 matrix through the CLI, with its columns built beforehand.
    # Streamed from the row index, table, CSV and JSON peaked at 1.11, 0.83
    # and 1.04 MiB.  A renderer holding the whole text, one (column, text)
    # tuple and one fresh text per entry peaked at 17.1, 6.9 and 9.7 MiB.
    mat = morphism_matrix(factorial_character(10), 10)
    monkeypatch.setattr(morphisms, "morphism_matrix", lambda chi, n: mat)
    tracemalloc.start()
    try:
        with redirect_stdout(_Discard()):
            assert cli.main(["matrix", "--weight", "10", "--horizon", "10", "--format", fmt]) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


def test_row_index_shares_one_text_per_distinct_value():
    m = morphism_matrix(factorial_character(8), 8)
    cols, texts, widths = m._row_index()
    assert all(row.typecode == "I" for row in cols)
    shared: dict[tuple[int, int], set[int]] = {}
    for i, (row_cols, row_texts) in enumerate(zip(cols, texts)):
        assert len(row_cols) == len(row_texts)
        for j, s in zip(row_cols, row_texts):
            den, nums = m.columns[j]
            n = nums[m.basis[i]]
            assert s == str(F(n, den))
            shared.setdefault((n, den), set()).add(id(s))
    assert sum(map(len, shared.values())) == len(shared)
    assert sum(map(len, cols)) == sum(len(nums) for _, nums in m.columns)
    assert widths == [max(len(str(v)) for v in col if v) for col in zip(*m.entries)]


def test_matrix_csv_and_table():
    chi = factorial_character(3)
    m = morphism_matrix(chi, 2)
    csv = m.to_csv()
    lines = csv.strip().splitlines()
    assert lines[0] == "[2],[1,1]"
    assert lines[1].split(",") == ["1/2", "1/2"]
    table = m.to_table()
    assert "[1,1]" in table and "1/2" in table


def test_matrices_do_not_keep_dropped_characters_alive():
    def live_characters():
        gc.collect()
        return sum(type(o) is Character for o in gc.get_objects())

    before = live_characters()
    for _ in range(5):
        chi = factorial_character(7)
        assert morphism_matrix(chi, 7).dimension == 64
        del chi
    assert live_characters() == before


def test_matrix_requires_covered_weight():
    chi = factorial_character(3)
    with pytest.raises(CoverageError):
        morphism_matrix(chi, 4)
    with pytest.raises(ValueError):
        morphism_matrix(chi, 0)


def test_preimage_examples():
    chi = factorial_character(4)
    assert preimage(chi, Element.basis((1, 1))) == Element({(1, 1): 1, (2,): -1})
    assert preimage(chi, Element.basis((2,))) == Element.basis((2,), 2)


def test_preimage_inverts_morphism():
    chi = factorial_character(5)
    e = Element({(2, 1): 3, (1, 1, 1): F(1, 2), (4,): -2, (): 1})
    assert preimage(chi, induced_morphism(chi, e)) == e
    assert induced_morphism(chi, preimage(chi, e)) == e


def test_preimage_and_morphism_invert_each_other_at_weight_ten():
    chi = factorial_character(10)
    basis = enumerate_basis(10)
    rng = random.Random(10)
    for _ in range(4):
        a, b = rng.sample(basis, 2)
        e = Element({a: rng.randint(1, 9), b: F(-1, rng.randint(2, 9))})
        assert preimage(chi, induced_morphism_fast(chi, e)) == e
        assert induced_morphism_fast(chi, preimage(chi, e)) == e


def test_preimage_singular_character():
    chi = Character(
        {(1,): 1, (2,): 0, (1, 1): F(1, 2)},
        max_weight=2,
        label="vanishing",
    )
    assert validate_character(chi)
    m = morphism_matrix(chi, 2)
    assert m.entries[0][0] == 0
    with pytest.raises(SingularCharacterError) as err:
        preimage(chi, Element.basis((2,)))
    assert err.value.part == 2
    assert "[2]" in str(err.value)


def test_preimage_of_low_weight_ignores_deep_singularity():
    # the vanishing value sits at weight 2; weight-1 input inverts fine
    chi = Character(
        {(1,): 1, (2,): 0, (1, 1): F(1, 2)},
        max_weight=2,
    )
    assert preimage(chi, Element.basis((1,))) == Element.basis((1,))


def _write_character(tmp_path, payload):
    path = tmp_path / "char.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


def test_read_character_file_roundtrip(tmp_path):
    payload = {
        "label": "halving",
        "max_weight": 2,
        "values": {"1": "1", "[1]": "1/2", "[2]": "1/8", "[1,1]": "1/8"},
    }
    chi = read_character_file(_write_character(tmp_path, payload))
    assert chi.label == "halving"
    assert chi.max_weight == 2
    assert chi.value((1,)) == F(1, 2)
    assert chi.value((1, 1)) == F(1, 8)


def test_read_character_file_missing_entry(tmp_path):
    payload = {"max_weight": 2, "values": {"[1]": "1", "[2]": "1/2"}}
    with pytest.raises(InvalidCharacterError, match="missing value"):
        read_character_file(_write_character(tmp_path, payload))


def test_read_character_file_not_multiplicative(tmp_path):
    payload = {
        "max_weight": 2,
        "values": {"[1]": "1", "[2]": "1", "[1,1]": "1"},
    }
    with pytest.raises(InvalidCharacterError, match="not multiplicative"):
        read_character_file(_write_character(tmp_path, payload))


def test_read_character_file_garbage(tmp_path):
    path = tmp_path / "char.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(InvalidCharacterError):
        read_character_file(path)
