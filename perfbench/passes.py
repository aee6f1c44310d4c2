"""The time-boxed pass loop, shared by run.py and the session worker."""

from __future__ import annotations

import time

from workloads import MAX_PASSES


def run_passes(run_pass, seconds: float, min_passes: int, trace: bool) -> list[dict]:
    """Run whole passes while the next one is expected to fit in ``seconds``.

    ``run_pass(p, traced)`` runs pass ``p`` and returns its record.  At least
    ``min_passes`` passes run whatever the time.  In a traced run pass 0 is
    untraced (it also warms whatever the program caches) and the passes
    after it alternate traced and untraced, so the two kinds can be compared.
    """
    records: list[dict] = []
    start = time.monotonic()
    while len(records) < MAX_PASSES:
        p = len(records)
        records.append(run_pass(p, trace and p % 2 == 1))
        done = len(records)
        elapsed = time.monotonic() - start
        if done >= min_passes and elapsed + elapsed / done > seconds:
            break
    return records


def min_passes(ops_per_pass: int) -> int:
    """At least two passes (a traced run needs one of each kind) and at
    least 20 op samples, so the median has ten samples beyond it."""
    return max(2, -(-20 // ops_per_pass))
