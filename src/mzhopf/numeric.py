"""Floating-point truncations of multiple zeta values.

``zeta_truncated`` evaluates the nested sum

    sum over N >= n1 > n2 > ... > nk >= 1 of n1^-s1 * ... * nk^-sk

for an admissible composition by a cumulative-sum sweep from the innermost
index outward, so the cost is depth * N rather than N^depth.  The sweep
allocates three float64 buffers of about N entries once per call and updates
them in place, about 24 bytes per term: 48 MB at N = 2e6.  Truncation is
a hard cutoff on the outer index, and the tail decays only like
(log N)^(depth-1) / N.  At the default N = 100000 it is about 1e-5 for [2]
and 1.3e-4 for [2,1], but zeta_N([2,1,1,1,1,1]) - zeta(7) = -3.1e-2, far
above the default comparison tolerance of 1e-3; deep compositions with
trailing 1s need many more terms.

``eval_element`` extends this linearly (the unit evaluates to 1) and
``double_shuffle_residual`` measures how far the stuffle and shuffle products
of two admissible compositions are from each other numerically; for exact
arithmetic consistency the residual is tail noise only.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .compositions import Composition, is_admissible
from .elements import as_element
from . import quasi_shuffle, shuffle_algebra

__all__ = [
    "TruncationConfig",
    "DivergentTermError",
    "zeta_truncated",
    "eval_element",
    "double_shuffle_residual",
]


class DivergentTermError(ValueError):
    """A term outside the admissible range cannot be evaluated numerically."""

    def __init__(self, composition: Composition):
        self.composition = composition
        super().__init__(f"{composition} is not admissible; its series diverges")


@dataclass(frozen=True)
class TruncationConfig:
    """Numeric evaluation parameters: outer-index cutoff and comparison tolerance."""

    terms: int = 100_000
    tolerance: float = 1e-3

    def __post_init__(self):
        if self.terms < 10:
            raise ValueError("truncation needs at least 10 terms")
        if self.tolerance <= 0:
            raise ValueError("tolerance must be positive")


DEFAULT_CONFIG = TruncationConfig()


@lru_cache(maxsize=4096)
def _zeta_dp(c: Composition, terms: int) -> float:
    """zeta_N(c) by one in-place cumulative-sum recurrence, innermost part first.

    The cache keeps its place for callers that repeat (composition, cutoff)
    pairs: ``verify --suite double-shuffle`` makes 365 hits in 512 calls,
    while the cutoffs of a ``zeta-sweep`` benchmark pass never repeat and
    make 0 hits in 686 calls.
    """
    # imported here so that the exact-algebra commands never load numpy
    import numpy as np

    j = np.arange(1, terms + 1, dtype=np.float64)
    acc = np.ones(terms + 1)  # acc[m]: the inner sums over indices <= m
    buf = np.empty(terms)
    for s in reversed(c):
        np.power(j, float(-s), out=buf)
        buf *= acc[:-1]
        acc[0] = 0.0
        np.cumsum(buf, out=acc[1:])
    return float(acc[terms])


def zeta_truncated(c, config: TruncationConfig = DEFAULT_CONFIG) -> float:
    """Truncated nested series of an admissible composition."""
    c = Composition(c)
    if not is_admissible(c):
        raise DivergentTermError(c)
    return _zeta_dp(c, config.terms)


def eval_element(e, config: TruncationConfig = DEFAULT_CONFIG) -> float:
    """Linear extension of zeta_truncated; the unit contributes its coefficient.

    Raises DivergentTermError naming the first offending term when any
    non-unit term is inadmissible.
    """
    e = as_element(e)
    total = 0.0
    for c, q in e.terms():
        if c.is_unit:
            total += float(q)
        else:
            total += float(q) * zeta_truncated(c, config)
    return total


def double_shuffle_residual(s, t, config: TruncationConfig = DEFAULT_CONFIG) -> float:
    """|numeric value of stuffle(s,t) - shuffle(s,t)| for admissible s, t.

    Both products expand the same product of convergent series, so the exact
    difference is zero and the residual is pure truncation noise.
    """
    s = Composition(s)
    t = Composition(t)
    for c in (s, t):
        if not is_admissible(c):
            raise DivergentTermError(c)
    diff = quasi_shuffle.stuffle(s, t) - shuffle_algebra.shuffle(s, t)
    return abs(eval_element(diff, config))
