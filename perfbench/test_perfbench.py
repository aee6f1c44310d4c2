"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import mzhopf  # noqa: E402
import oracles  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _terms(e) -> dict:
    return {tuple(c): q for c, q in e.terms()}


def _flip(terms: dict, key=None) -> dict:
    """The same terms with one coefficient negated."""
    out = dict(terms)
    key = key if key is not None else next(iter(out))
    out[key] = -out[key]
    return out


# ---------------------------------------------------------------------------
# generator


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_deterministic_per_seed(workload):
    for p in (0, 3):
        assert workloads.pass_ops(workload, 7, p) == workloads.pass_ops(workload, 7, p)


def _inputs(workload, seed, p):
    return [{k: v for k, v in op.items() if k != "id"} for op in workloads.pass_ops(workload, seed, p)]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seeds_and_passes_give_different_inputs(workload):
    assert _inputs(workload, 7, 0) != _inputs(workload, 8, 0)
    if workload == "warm-algebra":  # a session repeats its ops in every pass
        assert _inputs(workload, 7, 0) == _inputs(workload, 7, 1)
    else:
        assert _inputs(workload, 7, 0) != _inputs(workload, 7, 1)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_pass_has_the_same_mix(workload):
    def mix(ops):
        return sorted((op["kind"], op.get("expect", {}).get("weight")) for op in ops)

    assert mix(workloads.pass_ops(workload, 1, 0)) == mix(workloads.pass_ops(workload, 2, 5))


def test_zeta_inputs_never_repeat_within_a_run():
    seen = set()
    for p in (0, 1, workloads.MAX_PASSES - 1):
        for op in workloads.pass_ops("zeta-sweep", 3, p):
            key = (tuple(op.get("comp", op.get("a"))), op.get("b") and tuple(op["b"]), op["terms"])
            assert key not in seen
            seen.add(key)


# ---------------------------------------------------------------------------
# oracles accept the program's outputs and reject corrupted ones


def test_matrix_oracle():
    mat = mzhopf.morphism_matrix(mzhopf.factorial_character(6), 6)
    rows = [list(r) for r in mat.entries]
    basis = [tuple(c) for c in mat.basis]
    assert oracles.check_matrix(6, basis, rows) is None
    for fmt, text in (("csv", mat.to_csv()), ("table", mat.to_table() + "\n")):
        assert oracles.parse_matrix(text, fmt) == (basis, rows)
    for i, j in ((0, 5), (3, 3), (7, 2)):
        bad = [list(r) for r in rows]
        bad[i][j] = bad[i][j] + 1
        assert oracles.check_matrix(6, basis, bad) is not None


def test_psi_and_psi_inv_oracles():
    chi = mzhopf.factorial_character(12)
    e = {(3, 1, 2): Fraction(3, 2), (1, 1, 1, 1, 1, 1): Fraction(-2), (2, 2, 3): Fraction(1, 3)}
    image = _terms(mzhopf.induced_morphism_fast(chi, mzhopf.Element(e)))
    assert oracles.check_psi(e, image) is None
    assert oracles.check_psi(e, _flip(image, (7,))) is not None
    assert oracles.check_psi(e, _flip(image, (1,) * 6)) is not None
    pre = _terms(mzhopf.preimage(chi, mzhopf.Element(e)))
    assert oracles.check_psi_inv(e, pre) is None
    assert oracles.check_psi_inv(e, _flip(pre, (6,))) is not None
    assert oracles.check_psi_inv(e, {**pre, (7,): Fraction(1)}) is not None


@pytest.mark.parametrize("form,src", [
    ("sh", "(3/2*[2,1] - [1,2]) sh (2*[1,1,3])"),
    ("st", "(3/2*[2,1] - [1,2]) st (-[1,1,3] + [4,1])"),
    ("shst", "([2,1]) sh (-1/2*[1,2]) st (3*[1,1] + [2])"),
])
def test_product_oracle(form, src):
    factors = {
        "sh": [{(2, 1): Fraction(3, 2), (1, 2): Fraction(-1)}, {(1, 1, 3): Fraction(2)}],
        "st": [{(2, 1): Fraction(3, 2), (1, 2): Fraction(-1)},
               {(1, 1, 3): Fraction(-1), (4, 1): Fraction(1)}],
        "shst": [{(2, 1): Fraction(1)}, {(1, 2): Fraction(-1, 2)},
                 {(1, 1): Fraction(3), (2,): Fraction(1)}],
    }[form]
    out = _terms(mzhopf.evaluate_expression(src))
    assert oracles.check_product(form, factors, out) is None
    assert oracles.check_product(form, factors, _flip(out)) is not None


def test_shuffle_and_stuffle_sums_match_closed_forms():
    for a, b in (((2, 1), (1, 3)), ((1, 1, 1), (2,)), ((3,), (1, 2, 1))):
        sh = _terms(mzhopf.shuffle(a, b))
        st = _terms(mzhopf.stuffle(a, b))
        assert sum(sh.values()) == math.comb(sum(a) + sum(b), sum(a))
        assert sum(st.values()) == oracles.delannoy(len(a), len(b))


def test_coproduct_and_antipode_oracles():
    x = {(2, 1, 3): Fraction(2), (1, 4, 1): Fraction(-1, 3)}
    e = mzhopf.Element(x)
    cop = {(tuple(u), tuple(v)): q for (u, v), q in mzhopf.shuffle_coproduct(e).terms()}
    assert oracles.check_coproduct(x, cop) is None
    assert oracles.check_coproduct(x, _flip(cop, ((), (2, 1, 3)))) is not None
    qa = _terms(mzhopf.quasi_antipode(e))
    assert oracles.check_quasi_antipode(x, qa) is None
    assert oracles.check_quasi_antipode(x, _flip(qa)) is not None
    assert oracles.check_graded(x, {(1, 1): Fraction(1)}) is not None


def test_zeta_oracles():
    def z(c, n):
        return mzhopf.zeta_truncated(c, mzhopf.TruncationConfig(terms=n))

    for c in ((2,), (3,), (2, 1), (3, 1), (2, 2, 2), (2, 1, 1, 1), (4, 1, 2)):
        assert oracles.check_zeta(c, 50_000, z(c, 50_000)) is None
    assert oracles.check_zeta((2,), 50_000, z((2,), 50_000) * (1 + 1e-6)) is not None
    assert oracles.check_zeta((2, 1), 50_000, z((2, 1), 50_000) + 1e-3) is not None
    assert oracles.check_zeta((4, 1, 2), 50_000, oracles.zeta(7) * 1.001) is not None
    assert oracles.check_zeta((4, 1, 2), 50_000, -z((4, 1, 2), 50_000)) is not None
    lo, hi = z((4, 1, 2), 1000), z((4, 1, 2), 50_000)
    assert oracles.check_zeta_monotone((4, 1, 2), 1000, lo, 50_000, hi) is None
    assert oracles.check_zeta_monotone((4, 1, 2), 1000, hi + 1e-6, 50_000, hi) is not None
    cfg = mzhopf.TruncationConfig(terms=20_000)
    st = mzhopf.eval_element(mzhopf.stuffle((2, 1), (3,)), cfg)
    sh = mzhopf.eval_element(mzhopf.shuffle((2, 1), (3,)), cfg)
    assert oracles.check_stuffle_value((2, 1), (3,), 20_000, st) is None
    assert oracles.check_stuffle_value((2, 1), (3,), 20_000, st * (1 + 1e-7)) is not None
    assert oracles.check_shuffle_value((2, 1), (3,), 20_000, sh) is None
    # the tail bound here is 20 * (1 + x + x^2/2) / N with x = 1 + ln N, about 0.07
    assert oracles.check_shuffle_value((2, 1), (3,), 20_000, sh + 0.2) is not None


def test_reference_zeta_matches_closed_forms():
    assert oracles.zeta(2) == pytest.approx(math.pi**2 / 6, rel=1e-15)
    assert oracles.zeta(4) == pytest.approx(math.pi**4 / 90, rel=1e-15)
    assert oracles.zeta_truncated((2, 1), 4000) == pytest.approx(
        mzhopf.zeta_truncated((2, 1), mzhopf.TruncationConfig(terms=4000)), rel=1e-12)


def test_verify_oracle():
    good = "[PASS] order/a\n[PASS] order/b\n2/2 checks passed\n"
    assert oracles.check_verify(good) == (2, None)
    assert oracles.check_verify(good.replace("[PASS] order/b", "[FAIL] order/b"))[1] is not None
    assert oracles.check_verify("0/0 checks passed\n")[1] is not None
    assert oracles.check_verify("")[1] is not None


# ---------------------------------------------------------------------------
# span arithmetic


def test_self_time_on_a_synthetic_tree():
    # root [0, 10] has children [1, 3] and [2, 5] (overlapping) and [8, 12]
    # (running past the root); the first child has a grandchild [1.5, 2]
    start = [0.0, 1.0, 2.0, 8.0, 1.5]
    end = [10.0, 3.0, 5.0, 12.0, 2.0]
    parent = [-1, 0, 0, 0, 1]
    selves = tracing.self_times(start, end, parent)
    assert selves == pytest.approx([10 - 4 - 2, 2 - 0.5, 3, 4, 0.5])


def test_layer_stats_counts_recursion_once():
    spans = {
        "names": ["expressions.evaluate", "elements.arith"],
        "name": [0, 0, 1, 0],
        "start": [0.0, 1.0, 2.0, 6.0],
        "end": [10.0, 4.0, 3.0, 7.0],
        "parent": [-1, 0, 1, 0],
        "op": [0, 0, 0, 0],
        "nested": [0, 1, 0, 1],
        "count": [0, 0, 0, 0],
    }
    stats = tracing.layer_stats(spans)
    assert stats["expressions.evaluate.total_s"] == 10
    assert stats["expressions.evaluate.calls"] == 3
    assert stats["expressions.evaluate.self_s"] == pytest.approx(6 + 2 + 1)
    assert stats["elements.arith.self_s"] == 1
    assert stats["expressions.self_s"] + stats["elements.self_s"] == pytest.approx(10)


def test_merge_and_subset_keep_parents():
    a = {"names": ["x", "y"], "name": [0, 1], "start": [0, 1], "end": [3, 2], "parent": [-1, 0],
         "op": [5, 5], "nested": [0, 0], "count": [0, 0]}
    b = {"names": ["y"], "name": [0], "start": [0], "end": [1], "parent": [-1],
         "op": [6], "nested": [0], "count": [4]}
    merged = tracing.merge([a, b])
    assert merged["names"] == ["x", "y"]
    assert merged["name"] == [0, 1, 1]
    assert merged["parent"] == [-1, 0, -1]
    part = tracing.subset(merged, [1, 2])
    assert part["parent"] == [-1, -1]
    assert part["count"] == [0, 4]


def test_working_set_counts_suffix_pairs():
    ws = tracing.working_sets([("shuffle_algebra.shuffle", [(1,), (2,)], [(1,)]),
                               ("quasi_shuffle.stuffle", [(2, 1)], [(1,)])])
    # words 1 and 01 against 1: ("1","1"), ("","1"), ("",""), ("01","1"), ("","01")
    assert ws["shuffle_algebra.shuffle.working_set"] == 5
    # ([2,1], [1]) gives six suffix pairs; ([1], 1) and (1, [1]) coincide
    assert ws["quasi_shuffle.stuffle.working_set"] == 5


def test_tracer_records_and_uninstall_restores():
    shuffle = mzhopf.shuffle_algebra.shuffle
    add = mzhopf.Element.__add__
    tracer = tracing.Tracer()
    restore = tracing.install(tracer)
    try:
        mzhopf.evaluate_expression("[2] sh [1] + [3]")
    finally:
        tracing.uninstall(tracer, restore)
    assert mzhopf.shuffle_algebra.shuffle is shuffle and mzhopf.shuffle is shuffle
    assert mzhopf.Element.__add__ is add
    names = {tracer.names[i] for i in tracer.name}
    assert {"expressions.evaluate_expression", "shuffle_algebra.shuffle", "elements.arith"} <= names
    stats = tracing.layer_stats(tracer.spans())
    assert stats["shuffle_algebra.shuffle.terms_out"] == 2  # [2] sh [1] = 2*[2,1] + [1,2]
    count = len(tracer.start)
    mzhopf.evaluate_expression("[2] sh [1]")
    assert len(tracer.start) == count


# ---------------------------------------------------------------------------
# statistics


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    assert run.tail(list(range(20)))[0] == 50
    assert run.tail(list(range(52)))[0] == 75
    assert run.tail(list(range(1000)))[0] == 99
    with pytest.raises(run.BenchError):
        run.tail(list(range(19)))
    assert run.percentile([1.0, 2.0, 3.0, 4.0], 50) == 2.5
