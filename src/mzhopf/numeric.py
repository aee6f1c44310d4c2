"""Floating-point truncations of multiple zeta values.

``zeta_truncated`` evaluates the nested sum

    sum over N >= n1 > n2 > ... > nk >= 1 of n1^-s1 * ... * nk^-sk

for an admissible composition by a cumulative-sum sweep from the innermost
index outward, so the cost is depth * N rather than N^depth.  The sweep runs
over blocks of at most 2^16 indices, every part of the composition in turn
within a block.  Each level carries its running sum, and its value at the
block's last index, into the next block, so the additions are those of one
dense cumulative sum per level, in the same order, and every value is
bit-identical to that dense sweep.  Three float64 buffers of one block are
allocated once per call: about 1.5 MB for any cutoff.  The cutoff is capped
at ``MAX_TERMS`` = 1e9 terms.  Truncation is
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

import operator
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


# The largest cutoff.  At N = 1e9 the rounding slack 4 * N * 2^-52 (about
# 9e-7) already exceeds the truncation tail of zeta(s) for every s >= 2, so
# more terms cannot improve a depth-one value, and the sweep stays within
# seconds per part instead of running for hours.
MAX_TERMS = 10 ** 9


@dataclass(frozen=True)
class TruncationConfig:
    """Numeric evaluation parameters: outer-index cutoff and comparison tolerance."""

    terms: int = 100_000
    tolerance: float = 1e-3

    def __post_init__(self):
        try:
            terms = operator.index(self.terms)
        except TypeError:
            raise TypeError(
                f"terms must be an integer, not {type(self.terms).__name__}"
            ) from None
        if terms < 10:
            raise ValueError("truncation needs at least 10 terms")
        if terms > MAX_TERMS:
            raise ValueError(f"truncation takes at most {MAX_TERMS} terms")
        if self.tolerance <= 0:
            raise ValueError("tolerance must be positive")


DEFAULT_CONFIG = TruncationConfig()

# Indices per block of the zeta sweep: three arrays of about this many float64
# entries, 1.5 MB in all, whatever the cutoff.
_CHUNK = 1 << 16


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

    chunk = min(_CHUNK, terms)
    j = np.arange(1, chunk + 1, dtype=np.float64)  # the indices of the block
    acc = np.empty(chunk + 1)  # acc[i]: the level last swept, at index base - 1 + i
    buf = np.empty(chunk)
    last = [0.0] * len(c)  # last[l]: level l summed over every index so far
    for base in range(1, terms + 1, chunk):
        m = min(chunk, terms + 1 - base)
        jm, bm = j[:m], buf[:m]
        for l, s in enumerate(reversed(c)):
            np.power(jm, float(-s), out=bm)
            if l:  # the level below the innermost part is all ones
                bm *= acc[:m]
            bm[0] += last[l]
            acc[0] = last[l]
            np.cumsum(bm, out=acc[1:m + 1])
            last[l] = float(acc[m])
        j += chunk
    return last[-1]


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
