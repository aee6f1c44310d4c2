"""Child process that runs mzhopf ops for the benchmark.

Reads one JSON job on stdin and prints one JSON result line on stdout:

* ``probe``: import mzhopf and build pass 0's inputs, once; report the time.
* ``cli``: run one ``mzhopf`` command line in this fresh process, so the
  interpreter start, the import and every cold cache are paid by the op.
* ``session``: run the warm-algebra or zeta-sweep op stream pass by pass in
  this one process, as a library user's session would.

Outputs are checked here, after the timed region and with tracing off.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time

import oracles
import passes
import tracing
import workloads

#: Op ids are pass * OP_STRIDE + index, so spans carry their pass.
OP_STRIDE = 100_000


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _attach_calls(ops: list[dict]) -> list[dict]:
    """Give each session op a ``call`` that runs it.  Inputs are built here,
    untimed; names are looked up on the package at call time, so wrappers
    installed by the tracer are seen."""
    import mzhopf

    for op in ops:
        kind = op["kind"]
        if kind == "expr":
            op["call"] = lambda src=op["src"]: mzhopf.evaluate_expression(src)
        elif kind in ("coproduct", "shuffle_antipode", "quasi_antipode"):
            fn = "shuffle_coproduct" if kind == "coproduct" else kind
            e = mzhopf.Element(oracles.terms_of(op["terms"]))
            op["call"] = lambda fn=fn, e=e: getattr(mzhopf, fn)(e)
        elif kind == "zeta":
            c, cfg = tuple(op["comp"]), mzhopf.TruncationConfig(terms=op["terms"])
            op["call"] = lambda c=c, cfg=cfg: mzhopf.zeta_truncated(c, cfg)
        else:
            a, b = tuple(op["a"]), tuple(op["b"])
            cfg = mzhopf.TruncationConfig(terms=op["terms"])
            op["call"] = lambda p=op["product"], a=a, b=b, cfg=cfg: mzhopf.eval_element(
                getattr(mzhopf, p)(a, b), cfg)
    return ops


def _prepare(workload: str, seed: int, p: int) -> list[dict]:
    ops = workloads.pass_ops(workload, seed, p)
    if workload in ("warm-algebra", "zeta-sweep"):
        _attach_calls(ops)
    return ops


def probe(job: dict) -> dict:
    t0 = time.perf_counter()
    import mzhopf.cli  # noqa: F401

    imported = time.perf_counter()
    _prepare(job["workload"], job["seed"], 0)
    return {"setup_s": time.perf_counter() - t0, "import_s": imported - t0}


# ---------------------------------------------------------------------------
# one command line per process


def _check_cli(op: dict, code, out: str) -> tuple[int, str | None]:
    """(checks examined, failure) for one command line's output."""
    if code != 0:
        return 1, f"exit code {code}"
    kind, expect = op["kind"], op["expect"]
    if kind == "verify":
        return oracles.check_verify(out)
    try:
        if kind == "matrix":
            basis, rows = oracles.parse_matrix(out, expect["format"])
            return 1, oracles.check_matrix(expect["weight"], basis, rows)
        inp = oracles.terms_of(expect["terms"])
        got = oracles.terms_of_json(json.loads(out))
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return 1, f"unreadable output: {exc}"
    if kind == "psi":
        return 1, oracles.check_psi(inp, got)
    failure = oracles.check_psi_inv(inp, got)
    if failure is None:
        import mzhopf

        back = mzhopf.induced_morphism_fast(mzhopf.factorial_character(12), mzhopf.Element(got))
        if back != mzhopf.Element(inp):
            failure = "psi(psi-inv(e)) is not e"
    return 1, failure


def cli_op(job: dict) -> dict:
    import mzhopf.cli

    op = job["op"]
    tracer = tracing.Tracer()
    restore = tracing.install(tracer) if job["trace"] else None
    tracer.op_id = job["op_id"]
    tracer.capture = True
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            code = mzhopf.cli.main(op["argv"])
    except Exception as exc:  # the op fails; the run goes on and reports it
        code = f"{type(exc).__name__}: {exc}"
    t_end = time.monotonic()
    rss = _rss_mb()
    if restore is not None:
        tracing.uninstall(tracer, restore)
    out = buf.getvalue()
    checked, failure = _check_cli(op, code, out)
    result = {"t_end": t_end, "rss_mb": rss, "checked": checked, "failure": failure,
              "digest": oracles.digest(out)}
    if restore is not None:
        result["spans"] = tracer.spans()
        result["working_set"] = tracing.working_sets(tracer.products)
    return result


# ---------------------------------------------------------------------------
# one long session


def _check_warm(mzhopf, op: dict, r) -> str | None:
    kind = op["kind"]
    if kind == "expr":
        factors = [oracles.terms_of(f) for f in op["expect"]["factors"]]
        return oracles.check_product(op["expect"]["form"], factors, dict(r.terms()))
    inp = oracles.terms_of(op["terms"])
    if kind == "coproduct":
        return oracles.check_coproduct(inp, dict(r.terms()))
    if kind == "quasi_antipode":
        return oracles.check_quasi_antipode(inp, dict(r.terms()))
    failure = oracles.check_graded(inp, dict(r.terms()))
    if failure is None:
        # antipode axiom through the program's own coproduct and shuffle:
        # sum S(u) sh v over the coproduct of x is counit(x) = 0
        total = mzhopf.Element()
        for (u, v), q in mzhopf.shuffle_coproduct(mzhopf.Element(inp)).terms():
            total = total + mzhopf.shuffle(mzhopf.shuffle_antipode(u), v) * q
        if total:
            failure = "sum of S(u) sh v over the coproduct is not zero"
    return failure


def _check_zeta(ops: list[dict], outs: list) -> list[str | None]:
    failures: list[str | None] = []
    pairs: dict[str, list] = {}
    for op, r in zip(ops, outs):
        if op["kind"] == "zeta":
            c = tuple(op["comp"])
            failures.append(oracles.check_zeta(c, op["terms"], r))
            pairs.setdefault(op["pair"], []).append((op["terms"], r, len(failures) - 1, c))
        elif op["product"] == "stuffle":
            failures.append(oracles.check_stuffle_value(tuple(op["a"]), tuple(op["b"]), op["terms"], r))
        else:
            failures.append(oracles.check_shuffle_value(tuple(op["a"]), tuple(op["b"]), op["terms"], r))
    for pair in pairs.values():
        if len(pair) != 2:
            continue  # the other cutoff already failed
        (lo_terms, lo, i, c), (hi_terms, hi, _, _) = sorted(pair)
        if failures[i] is None:
            failures[i] = oracles.check_zeta_monotone(c, lo_terms, lo, hi_terms, hi)
    return failures


def _check_session(workload: str, ops: list[dict], outs: list) -> list[str | None]:
    import mzhopf

    failures: list[str | None] = [None] * len(ops)
    for i, r in enumerate(outs):
        if isinstance(r, Exception):
            failures[i] = f"{type(r).__name__}: {r}"
        elif workload == "zeta-sweep" and not isinstance(r, float):
            failures[i] = f"value {r!r} is not a float"
    if workload == "zeta-sweep":
        good = [i for i, f in enumerate(failures) if f is None]
        checked = _check_zeta([ops[i] for i in good], [outs[i] for i in good])
        for i, f in zip(good, checked):
            failures[i] = f
    else:
        for i, (op, r) in enumerate(zip(ops, outs)):
            if failures[i] is None:
                failures[i] = _check_warm(mzhopf, op, r)
    return failures


def session(job: dict) -> dict:
    workload, seed = job["workload"], job["seed"]
    first = _prepare(workload, seed, 0)
    tracer = tracing.Tracer()

    def run_pass(p: int, traced: bool) -> dict:
        ops = first if p == 0 else _prepare(workload, seed, p)
        restore = tracing.install(tracer) if traced else None
        # operands are kept only in the first traced pass, for the working set
        tracer.capture = p == 1
        latencies, outs = [], []
        start = time.perf_counter()
        for i, op in enumerate(ops):
            tracer.op_id = p * OP_STRIDE + i
            t = time.perf_counter()
            try:
                r = op["call"]()
            except Exception as exc:  # the op fails; the run goes on and reports it
                r = exc
            latencies.append(time.perf_counter() - t)
            outs.append(r)
        seconds = time.perf_counter() - start
        if restore is not None:
            tracing.uninstall(tracer, restore)
        rss = _rss_mb()
        failures = _check_session(workload, ops, outs)
        digests = {}
        if p < job["digest_passes"] and workload == "warm-algebra":
            # keyed by position: every pass repeats the same ops, so the
            # cached answers of pass 1 are held to the same digests as pass 0
            digests = {str(i): oracles.digest(str(r)) for i, r in enumerate(outs)
                       if not isinstance(r, Exception)}
        return {"traced": traced, "seconds": seconds, "latencies": latencies, "rss_mb": rss,
                "attempted": len(ops), "checked": len(ops),
                "failures": {op["id"]: f for op, f in zip(ops, failures) if f}, "digests": digests}

    records = passes.run_passes(run_pass, job["seconds"], passes.min_passes(len(first)),
                                job["trace"])
    result = {"passes": records}
    if job["trace"]:
        result["spans"] = tracer.spans()
        result["working_set"] = tracing.working_sets(tracer.products)
    return result


def main() -> int:
    job = json.load(sys.stdin)
    handler = {"probe": probe, "cli": cli_op, "session": session}[job["mode"]]
    sys.stdout.write(json.dumps(handler(job)) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
