import math
import random
import tracemalloc

import numpy as np
import pytest

from mzhopf import cli, numeric
from mzhopf.compositions import Composition
from mzhopf.elements import Element
from mzhopf.numeric import (
    DEFAULT_CONFIG,
    MAX_TERMS,
    DivergentTermError,
    TruncationConfig,
    double_shuffle_residual,
    eval_element,
    zeta_truncated,
)
from mzhopf.quasi_shuffle import stuffle
from mzhopf.shuffle_algebra import shuffle


def test_config_validation():
    with pytest.raises(ValueError):
        TruncationConfig(terms=5)
    for bad in (float("nan"), float("inf"), 0, -1):
        # NaN and +inf would make every residual check pass
        with pytest.raises(ValueError, match="positive and finite"):
            TruncationConfig(tolerance=bad)
    assert DEFAULT_CONFIG.terms == 100_000
    assert DEFAULT_CONFIG.tolerance == 1e-3
    assert TruncationConfig(terms=MAX_TERMS).terms == MAX_TERMS
    with pytest.raises(ValueError, match="at most"):
        TruncationConfig(terms=MAX_TERMS + 1)
    with pytest.raises(TypeError, match="terms must be an integer, not float"):
        TruncationConfig(terms=100.5)


def test_cutoff_above_the_cap_exits_four_at_once(capsys):
    # refused before the sweep starts, which would take about 11 hours
    code = cli.main(["mzv", "[2]", "--terms", "10000000000000"])
    out, err = capsys.readouterr()
    assert code == 4
    assert out == ""
    assert err.startswith("error: truncation takes at most 1000000000 terms")
    assert err.count("\n") == 1


def test_zeta_frozen_small_cutoff():
    got = zeta_truncated((2,), TruncationConfig(terms=10))
    assert got == pytest.approx(1.5497677311665408, abs=1e-12)


def test_zeta_two_approaches_basel_value():
    got = zeta_truncated((2,), DEFAULT_CONFIG)
    assert abs(got - math.pi ** 2 / 6) < 2e-5


def test_zeta_agrees_with_nested_loops():
    from mzhopf.verify import _brute_zeta

    cfg = TruncationConfig(terms=40)
    for c in [(2,), (3,), (2, 1), (3, 2), (2, 1, 1)]:
        comp = Composition(c)
        assert zeta_truncated(comp, cfg) == pytest.approx(
            _brute_zeta(comp, 40), rel=1e-12
        )


def _dense_zeta(c, terms):
    # dense reference sweep: fresh arrays on every level and a sentinel slot 0
    n = np.arange(terms + 1, dtype=np.float64)
    n[0] = 1.0  # avoid 0**negative; slot 0 is zeroed below
    acc = np.ones(terms + 1)
    for s in reversed(c):
        powers = n ** float(-s)
        powers[0] = 0.0
        shifted = np.empty(terms + 1)
        shifted[0] = 0.0
        shifted[1:] = acc[:-1]
        acc = np.cumsum(powers * shifted)
    return float(acc[terms])


def _random_admissible(rng):
    depth = rng.randint(1, 6)
    return (rng.randint(2, 7),) + tuple(rng.randint(1, 5) for _ in range(depth - 1))


def test_zeta_bit_identical_to_dense_sweep():
    # the blocked sweep adds the same terms in the same order; the cutoffs
    # around multiples of the block size end a block one index early, on
    # time or one index late
    rng = random.Random(16)
    cutoffs = [(n, 40) for n in (10, 11, 57, 1000, 12345, 100_000)]
    cutoffs += [(n, 6) for n in (65_535, 65_536, 65_537, 131_073, 200_003)]
    for terms, pairs in cutoffs:
        cfg = TruncationConfig(terms=terms)
        for _ in range(pairs):
            c = _random_admissible(rng)
            assert zeta_truncated(c, cfg) == _dense_zeta(c, terms), (c, terms)


# parts that repeat shorten the block and are read from a shared power buffer;
# (2,2,2,2) copies that buffer at the innermost level
_REPEATED_PARTS = [(2, 2, 2, 2), (3, 1, 3, 1), (2, 1, 3, 1, 1), (2, 1, 1, 1, 1, 1)]


@pytest.mark.parametrize("chunk", [1, 7, 64])
def test_zeta_bit_identical_to_dense_sweep_in_small_blocks(monkeypatch, chunk):
    # many blocks per call carry every level's sum across many boundaries;
    # the uncached sweep is called so that no earlier value can answer.  At
    # chunk 1, 3 // (3 + r) is 0, so the repeated parts also check that a
    # block keeps at least one index (range() refuses a step of 0)
    monkeypatch.setattr(numeric, "_CHUNK", chunk)
    rng = random.Random(chunk)
    for terms in (10, 11, 63, 64, 65, 449):
        randoms = [_random_admissible(rng) for _ in range(12)]
        for c in map(Composition, randoms + _REPEATED_PARTS):
            assert numeric._zeta_dp.__wrapped__(c, terms) == _dense_zeta(c, terms), (
                chunk, c, terms)


@pytest.mark.parametrize("c", [(2, 1, 1, 1, 1, 1), (3, 1, 3, 1), (2, 2, 2), (3, 2, 1, 3, 2, 1),
                               (3, 2, 1)])
def test_zeta_sweep_memory_stays_within_three_blocks(c):
    # j, acc, buf and one power buffer per repeated part share 3 * 2^16
    # float64 entries (1.5 MiB); tracemalloc sees numpy's buffers
    tracemalloc.start()
    try:
        numeric._zeta_dp.__wrapped__(Composition(c), 10 ** 6)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.6 * 2 ** 20


_ZETA2 = math.pi ** 2 / 6


@pytest.mark.parametrize("terms", [1000, 100_000])
@pytest.mark.parametrize("c, exact, lo, hi", [
    ((2,), _ZETA2, lambda n: 1 / (n + 1), lambda n: 1 / n),
    ((4,), math.pi ** 4 / 90, lambda n: (n + 1) ** -3 / 3, lambda n: n ** -3 / 3),
    ((6,), math.pi ** 6 / 945, lambda n: (n + 1) ** -5 / 5, lambda n: n ** -5 / 5),
    ((2, 2), math.pi ** 4 / 120, lambda n: 0.0, lambda n: _ZETA2 / n),
    ((2, 2, 2), math.pi ** 6 / 5040, lambda n: 0.0, lambda n: _ZETA2 ** 2 / n),
    ((3, 1), math.pi ** 4 / 360, lambda n: 0.0, lambda n: (1 + math.log(n)) / n ** 2),
], ids=["2", "4", "6", "2,2", "2,2,2", "3,1"])
def test_zeta_tail_within_bounds_of_closed_forms(c, exact, lo, hi, terms):
    # the tail of a closed-form value lies between integral and majorant
    # bounds, widened by the rounding of a sweep over `terms` terms
    tail = exact - zeta_truncated(c, TruncationConfig(terms=terms))
    slack = 4 * terms * 2.0 ** -52
    assert lo(terms) - slack <= tail <= hi(terms) + slack


def test_zeta_strictly_ordered_summation():
    got = zeta_truncated((2, 1), TruncationConfig(terms=10))
    manual = sum(
        n1 ** -2 * n2 ** -1
        for n1 in range(1, 11)
        for n2 in range(1, n1)
    )
    assert got == pytest.approx(manual, rel=1e-13)


def test_divergent_composition_rejected():
    with pytest.raises(DivergentTermError) as err:
        zeta_truncated((1, 2))
    assert err.value.composition == Composition((1, 2))
    with pytest.raises(DivergentTermError):
        zeta_truncated(())


def test_eval_element_linear_and_unit():
    cfg = TruncationConfig(terms=100)
    e = Element({(2,): 2, (): 3})
    got = eval_element(e, cfg)
    assert got == pytest.approx(3 + 2 * zeta_truncated((2,), cfg), rel=1e-13)
    assert eval_element(Element.zero(), cfg) == 0.0


def test_eval_element_rejects_divergent_terms():
    with pytest.raises(DivergentTermError):
        eval_element(Element({(1, 1): 1}), TruncationConfig(terms=100))


def test_stuffle_matches_product_of_truncations():
    # both sides count exactly the lattice points with max index <= N
    cfg = TruncationConfig(terms=200)
    for s, t in [((2,), (2,)), ((2,), (3,)), ((2, 1), (2,))]:
        lhs = eval_element(stuffle(s, t), cfg)
        rhs = eval_element(Element.basis(s), cfg) * eval_element(Element.basis(t), cfg)
        assert lhs == pytest.approx(rhs, rel=1e-12)


def test_double_shuffle_residual_small():
    res = double_shuffle_residual((2,), (2,), DEFAULT_CONFIG)
    assert res < 1e-3
    assert res == abs(
        eval_element(stuffle((2,), (2,)) - shuffle((2,), (2,)), DEFAULT_CONFIG)
    )


def test_double_shuffle_residual_requires_admissible():
    with pytest.raises(DivergentTermError):
        double_shuffle_residual((1, 2), (2,), DEFAULT_CONFIG)
