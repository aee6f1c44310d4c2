"""Benchmark of mzhopf, run from the root of a checkout:

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Workloads (see NOTES.md for why each exists): cold-morphism, warm-algebra,
zeta-sweep, verify-suites.  Each is one client in a closed loop.  The seed
only shapes the generated inputs; mzhopf runs from ``src/`` in child
processes and is never imported here.

With ``--trace 0`` the run reports the end-to-end metrics; with ``--trace 1``
it reports the per-layer metrics, measured from spans recorded around the
package's public functions, plus the tracing overhead.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import passes
import tracing
import workloads
from worker import OP_STRIDE

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_build" / "perfbench"
GOLDEN = HERE / "golden.json"

SETUP_PROBES = 7
#: Tail percentiles tried, highest first; the first with ten samples beyond it wins.
TAIL_PERCENTILES = (99, 95, 90, 75, 50)
#: Per-process time limit; a whole run has to end within 180 s.
WORKER_TIMEOUT = 150
#: Passes whose outputs are pinned by golden digests for the default seed.
DIGEST_PASSES = 2
CLI_WORKLOADS = ("cold-morphism", "verify-suites")

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "peak_rss_mb": "MB",
}

_SUITE_TOTALS = [f"verify.{s}.total_s" for s in workloads.SUITES]
PER_LAYER = {
    **{f"{m}.{stat}": unit for m in tracing.MODULES
       for stat, unit in (("calls", "count"), ("self_s", "s"))},
    "cli.import_s": "s",
    "cli.main.self_s": "s",
    "morphisms.induced_morphism_fast.calls": "count",
    "morphisms.induced_morphism_fast.self_s": "s",
    "morphisms.induced_morphism_fast.terms_out": "count",
    "morphisms.morphism_matrix.total_s": "s",
    "morphisms.GradedMatrix.to_table.total_s": "s",
    "morphisms.GradedMatrix.to_csv.total_s": "s",
    "morphisms.preimage.total_s": "s",
    "morphisms.induced_morphism.total_s": "s",
    "shuffle_algebra.shuffle.calls": "count",
    "shuffle_algebra.shuffle.self_s": "s",
    "shuffle_algebra.shuffle.terms_out": "count",
    "shuffle_algebra.shuffle.working_set": "count",
    "shuffle_algebra.coproduct.total_s": "s",
    "shuffle_algebra.antipode.total_s": "s",
    "quasi_shuffle.stuffle.calls": "count",
    "quasi_shuffle.stuffle.self_s": "s",
    "quasi_shuffle.stuffle.terms_out": "count",
    "quasi_shuffle.stuffle.working_set": "count",
    "quasi_shuffle.antipode.total_s": "s",
    "expressions.evaluate_expression.self_s": "s",
    "expressions.parse_expression.self_s": "s",
    "elements.arith.calls": "count",
    "elements.arith.self_s": "s",
    "numeric.zeta_truncated.calls": "count",
    "numeric.zeta_truncated.total_s": "s",
    "numeric.zeta_truncated.dp_ops": "count",
    "numeric.zeta_truncated.bytes_computed": "B",
    **{name: "s" for name in _SUITE_TOTALS},
    "compositions.enumerate_basis.total_s": "s",
    "compositions.coarsenings.total_s": "s",
    "trace.overhead_ratio": "ratio",
}


class BenchError(RuntimeError):
    """The benchmark itself could not run (as opposed to a wrong output)."""


def call_worker(job: dict) -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    try:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py")], input=json.dumps(job),
                              capture_output=True, text=True, cwd=ROOT, env=env,
                              timeout=WORKER_TIMEOUT)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{job['mode']} worker exceeded {WORKER_TIMEOUT} s") from exc
    if proc.returncode != 0:
        tail = (proc.stderr.strip().splitlines() or ["no output"])[-1]
        raise BenchError(f"{job['mode']} worker exited with {proc.returncode}: {tail}")
    return json.loads(proc.stdout.splitlines()[-1])


def percentile(values: list[float], p: float) -> float:
    """Linear interpolation between order statistics."""
    xs = sorted(values)
    pos = (len(xs) - 1) * p / 100
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail(values: list[float]) -> tuple[float, float]:
    """(percentile, value) for the highest tried percentile with at least
    ten samples beyond it."""
    for p in TAIL_PERCENTILES:
        if len(values) * (100 - p) / 100 >= 10:
            return p, percentile(values, p)
    raise BenchError(f"{len(values)} op samples are too few for a tail percentile")


def golden_key(seed: int, op: dict) -> str | None:
    """Outputs that do not depend on the seed are pinned for every seed;
    the others only for the default seed's first passes."""
    if op["kind"] == "matrix":
        return f"matrix/{op['expect']['weight']}/{op['expect']['format']}"
    if op["kind"] == "verify":
        return f"verify/{op['expect']['suite']}"
    if seed == workloads.DEFAULT_SEED and int(op["id"].split(".")[0]) < DIGEST_PASSES:
        return f"seed{seed}/{op['id']}"
    return None


# ---------------------------------------------------------------------------
# running passes


def cli_run(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    """One fresh `mzhopf` process per op; the op's latency runs from the
    spawn to the end of ``cli.main`` in the child."""
    digests: list[tuple[str, str]] = []
    spans: list[dict] = []
    ws: dict[str, int] = {}

    def run_pass(p: int, traced: bool) -> dict:
        ops = workloads.pass_ops(workload, seed, p)
        latencies, rss, checked, failures = [], [], 0, {}
        for i, op in enumerate(ops):
            t0 = time.monotonic()
            r = call_worker({"mode": "cli", "op": op, "trace": traced, "op_id": p * OP_STRIDE + i})
            latencies.append(r["t_end"] - t0)
            rss.append(r["rss_mb"])
            checked += r["checked"]
            if r["failure"]:
                failures[op["id"]] = r["failure"]
            key = golden_key(seed, op)
            if key:
                digests.append((key, r["digest"]))
            if traced:
                spans.append(r["spans"])
                if p == 1:
                    for name, size in r["working_set"].items():
                        ws[name] = max(ws.get(name, 0), size)
        return {"traced": traced, "seconds": sum(latencies), "latencies": latencies,
                "rss_mb": max(rss), "attempted": len(ops), "checked": checked,
                "failures": failures}

    m = len(workloads.pass_ops(workload, seed, 0))
    records = passes.run_passes(run_pass, seconds, passes.min_passes(m), trace)
    return {"passes": records, "digests": digests, "spans": tracing.merge(spans),
            "working_set": ws}


def session_run(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    """The whole op stream in one child process."""
    r = call_worker({"mode": "session", "workload": workload, "seed": seed, "seconds": seconds,
                     "trace": trace,
                     "digest_passes": DIGEST_PASSES if seed == workloads.DEFAULT_SEED else 0})
    digests = [(f"seed{seed}/{k}", v) for rec in r["passes"] for k, v in rec.pop("digests").items()]
    return {"passes": r["passes"], "digests": digests, "spans": r.get("spans"),
            "working_set": r.get("working_set", {})}


def source_digest() -> str:
    """Digest of the program and of the benchmark, which together fix the counts."""
    h = hashlib.sha256()
    for path in sorted([*(ROOT / "src").rglob("*.py"), *HERE.glob("*.py")]):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


# ---------------------------------------------------------------------------
# metrics


def end_to_end(records: list[dict], setup: list[dict]) -> tuple[dict, list[str]]:
    latencies = [x for rec in records for x in rec["latencies"]]
    p, tail_value = tail(latencies)
    metrics = {
        "setup_s": statistics.median(s["setup_s"] for s in setup),
        "wall_s": statistics.median(rec["seconds"] for rec in records),
        "op_p50_s": percentile(latencies, 50),
        "op_tail_s": tail_value,
        # a fixed amount of work, so a faster program fitting more passes
        # into the run does not read as more memory
        "peak_rss_mb": max(rec["rss_mb"] for rec in records[:2]),
    }
    notes = {
        "setup_s": f"median of {len(setup)} set-ups",
        "wall_s": f"median of {len(records)} passes",
        "op_p50_s": f"{len(latencies)} ops",
        "op_tail_s": f"p{p} of {len(latencies)} ops",
        "peak_rss_mb": "through the first two passes",
    }
    return metrics, [f"  {k:<12} {v:.6g} {END_TO_END[k]}  ({notes[k]})" for k, v in metrics.items()]


def per_layer(run: dict, setup: list[dict]) -> tuple[dict, dict]:
    """Metrics from the spans of pass 1 (the first traced pass), and the
    exact counts among them."""
    records = run["passes"]
    spans = run["spans"]
    first_traced = [i for i, op in enumerate(spans["op"]) if op // OP_STRIDE == 1]
    stats = tracing.layer_stats(tracing.subset(spans, first_traced))
    stats.update(run["working_set"])
    stats["cli.import_s"] = statistics.median(s["import_s"] for s in setup)
    traced = [rec["seconds"] for rec in records if rec["traced"]]
    plain = [rec["seconds"] for i, rec in enumerate(records) if not rec["traced"] and i > 0]
    plain = plain or [records[0]["seconds"]]
    stats["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(plain)
    metrics = {name: float(stats.get(name, 0)) for name in PER_LAYER}
    counts = {k: v for k, v in metrics.items() if PER_LAYER[k] in ("count", "B")}
    return metrics, counts


def check_repeat(workload: str, seed: int, counts: dict) -> str | None:
    """Exact counts must repeat between traced runs of the same code and seed."""
    path = OUT / f"counts-{workload}-{seed}-{source_digest()}.json"
    if path.exists():
        before = json.loads(path.read_text())
        moved = [k for k in counts if before.get(k) != counts[k]]
        if moved:
            return f"exact counts differ from an earlier run of the same code and seed: {moved}"
        return None
    path.write_text(json.dumps(counts, indent=1, sort_keys=True))
    return None


def compare_golden(workload: str, digests: list[tuple[str, str]], write: bool) -> list[str]:
    """One problem per output whose digest differs from the pinned one."""
    golden = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    pinned = golden.setdefault(workload, {})
    if write:
        pinned.update(digests)
        GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
        return []
    return [f"{key}: output differs from the golden digest"
            for key, d in digests if key in pinned and pinned[key] != d]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="mzhopf benchmark")
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-golden", action="store_true",
                    help="record this run's output digests as the golden ones")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "mzhopf" / "__init__.py").is_file():
        print(f"error: no mzhopf sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seconds < 1:
        print("error: --seconds must be at least 1", file=sys.stderr)
        return 2
    OUT.mkdir(parents=True, exist_ok=True)
    workload, seed, trace = args.workload, args.seed, bool(args.trace)
    try:
        setup = [call_worker({"mode": "probe", "workload": workload, "seed": seed})
                 for _ in range(SETUP_PROBES)]
        runner = cli_run if workload in CLI_WORKLOADS else session_run
        run = runner(workload, seed, args.seconds, trace)
        records = run["passes"]
        # an op fails when it raises, exits nonzero, fails an oracle or
        # differs from its golden digest
        problems = [f"{op}: {f}" for rec in records for op, f in rec["failures"].items()]
        problems += compare_golden(workload, run["digests"], args.write_golden)
        failed = len(problems)
        attempted = sum(rec["attempted"] for rec in records)
        checked = sum(rec["checked"] for rec in records)
        if checked == 0:
            problems.append("no output was checked")
        if trace:
            metrics, counts = per_layer(run, setup)
            (OUT / f"trace-{workload}-{seed}.json").write_text(json.dumps(run["spans"]))
            repeat = check_repeat(workload, seed, counts)
            if repeat:
                problems.append(repeat)
            lines = [f"  {k:<48} {v:.6g} {PER_LAYER[k]}" for k, v in metrics.items()]
        else:
            metrics, lines = end_to_end(records, setup)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"workload {workload}  seed {seed}  passes {len(records)}  ops {attempted}  "
          f"checked {checked}  failed {failed}  {'traced' if trace else 'untraced'}")
    print("\n".join(lines))
    print("  pass seconds " + " ".join(f"{rec['seconds']:.3f}" + "T" * rec["traced"] for rec in records))
    if not trace:
        print(f"  {'error_rate':<12} {failed / attempted:.6g} ratio  ({failed} of {attempted} ops)")
    for problem in problems[:20]:
        print(f"  FAIL {problem}")
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": (PER_LAYER if trace else END_TO_END)[k]}
                    for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
