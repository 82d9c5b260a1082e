"""One workload in a fresh interpreter.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S
        --trace 0|1 --workdir DIR [--setup-only]

Run by ``run.py`` with the checkout's ``src`` on PYTHONPATH.  Times the
set-up (``import samfilt`` with a warm bytecode cache, then the
workload's inputs), runs whole rounds of the workload's query list until
the next round would end after ``--seconds``, checks every answer of the
first round against the references and every later round against the
first, and prints one JSON object as its last line of output.

With ``--trace 1`` untraced and traced rounds alternate; the traced
rounds give the per-layer counters and self times, the untraced ones
the overhead base.
"""

import os
import sys
import time

_T0 = time.perf_counter()
import samfilt  # noqa: E402  (timed: part of set-up)

_IMPORT_S = time.perf_counter() - _T0

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import traceback  # noqa: E402
from fractions import Fraction  # noqa: E402

# Work that every traced round must show, by workload.  A zero here means
# the trace missed a layer (or the workload stopped exercising it).
MUST_WORK = {
    "lattice_levels": (
        "kernels.reduce_antichain.calls", "kernels.any_le.calls",
        "kernels.staircase_gens_2d.calls", "kernels.colength_2d.calls",
        "valuation.system_level.calls", "monomial.ideal_new.calls",
        "filtration.level.calls", "filtration.level.built", "filtration.order.calls",
        "samuel.calls", "multiplicity.calls", "multiplicity.colength.calls",
    ),
    "polyhedral": (
        "monomial.np_value.calls", "monomial.closure.calls", "linprog.solves",
        "linprog.tableau_cells", "exactnum.ops", "samuel.calls", "equivalence.calls",
        "equivalence.oracle_evals", "multiplicity.calls",
    ),
    "cli_session": ("filtration.from_json.calls", "exactnum.scalar_io.calls", "cli.calls"),
}


def plain(x):
    """A hashable copy of a query's output, built without the tracer."""
    if x is None or isinstance(x, (bool, int, str, Fraction, float)):
        return x
    if isinstance(x, (list, tuple)):
        return tuple(plain(i) for i in x)
    if isinstance(x, (set, frozenset)):
        return tuple(sorted(plain(i) for i in x))
    if isinstance(x, dict):
        return tuple(sorted((plain(k), plain(v)) for k, v in x.items()))
    if hasattr(x, "horizon") and hasattr(x, "level"):  # a table of levels
        return ("levels",) + tuple(plain(x.level(m)) for m in range(1, x.horizon + 1))
    slots = [s for c in type(x).__mro__ for s in getattr(c, "__slots__", ())]
    names = slots or sorted(getattr(x, "__dict__", {}))
    return (type(x).__name__,) + tuple(
        (n, plain(getattr(x, n))) for n in names if not n.startswith("_")
    )


def run_round(queries, docs, times, tracer=None):
    """Run one round; returns (outputs, exceptions, wall seconds)."""
    import workloads

    ctx = workloads.Round(docs)
    outs, errs = [], []
    if tracer is not None:
        tracer.install()
    try:
        for q in queries:
            t0 = time.perf_counter()
            try:
                out, err = q.run(ctx), None
            except Exception as exc:  # a failed operation: counted, not fatal
                out, err = None, exc
            times.append(time.perf_counter() - t0)
            outs.append(out)
            errs.append(err)
    finally:
        if tracer is not None:
            tracer.uninstall()
    return outs, errs, sum(times)


def main(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--workdir", required=True)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    if args.workload == "cli_session":
        t0 = time.perf_counter()
        importlib.import_module("samfilt.cli")  # the CLI's own cold import
        import_s = _IMPORT_S + time.perf_counter() - t0
    else:
        import_s = _IMPORT_S
    import workloads

    t0 = time.perf_counter()
    docs, queries = workloads.build(args.workload, args.seed, args.workdir)
    setup_s = import_s + time.perf_counter() - t0
    result = {
        "setup_s": setup_s,
        "samfilt_file": samfilt.__file__,
        "kernel_implementation": samfilt.kernel_implementation,
    }
    if args.setup_only:
        print(json.dumps(result))
        return 0

    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer()
    problems = []
    failures = {}
    first = None
    plain_walls, traced_walls, traced = [], [], []
    query_times = []
    attempted = failed = 0
    start = time.perf_counter()
    rnd = 0
    while True:
        with_trace = tracer is not None and rnd % 2 == 1
        times = []
        outs, errs, wall = run_round(queries, docs, times, tracer if with_trace else None)
        rnd += 1
        attempted += len(queries)
        failed += sum(e is not None for e in errs)
        if with_trace:
            traced_walls.append(wall)
            traced.append(tracer.snapshot())
        else:
            plain_walls.append(wall)
            query_times.extend(times)
        digest = []
        for q, out, err in zip(queries, outs, errs):
            if err is not None:
                failures.setdefault(q.name, type(err).__name__)
                digest.append(hash(("failed", type(err).__name__)))
                continue
            if first is None:
                try:
                    q.check(out)
                except AssertionError as exc:
                    problems.append("%s: %s" % (q.name, exc))
                except Exception:  # a malformed output the check could not read
                    problems.append("%s: %s" % (q.name, traceback.format_exc(limit=2)))
            digest.append(hash(plain(out)))
        if first is None:
            first = digest
        elif digest != first:
            bad = [q.name for q, a, b in zip(queries, digest, first) if a != b]
            problems.append("round %d differs from round 1 on %s" % (rnd, bad[:3]))
        del outs
        elapsed = time.perf_counter() - start
        per_round = elapsed / rnd
        need_trace = tracer is not None and not traced
        if not need_trace and elapsed + per_round > args.seconds:
            break

    result.update({
        "rounds": rnd,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "problems": problems,
        "round_walls_s": plain_walls,
        "wall_s": statistics.median(plain_walls),
        "query_ms_p50": statistics.median(query_times) * 1e3,
        "queries": len(query_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    })
    if tracer is not None:
        metrics = dict(traced[0])
        for key in metrics:
            if key.endswith(".self_ms"):
                metrics[key] = statistics.median(t[key] for t in traced)
            elif any(t[key] != metrics[key] for t in traced):
                problems.append("counter %s differs between traced rounds" % key)
        metrics["trace.wall_s"] = statistics.median(traced_walls)
        metrics["trace.overhead"] = metrics["trace.wall_s"] / result["wall_s"]
        for key in MUST_WORK[args.workload]:
            if metrics[key] <= 0:
                problems.append("trace self-check: %s is 0" % key)
        result["trace"] = metrics
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
