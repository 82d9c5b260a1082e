"""The samfilt benchmark: one command, three seeded workloads.

    python3 perfbench/run.py [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout; ``src/samfilt`` is imported from there.
Each workload runs in a fresh interpreter (``worker.py``), one after
another, with no threads.  Without ``--workload`` all three run in turn.

With ``--trace 0`` a workload reports its end-to-end metrics: ``wall_s``
(median time of one round of its query list), ``query_ms_p50`` (median
latency of one query), ``setup_s`` (median of five fresh-interpreter
set-ups: ``import samfilt`` plus building the inputs) and ``peak_rss_mb``.
With ``--trace 1`` it reports the per-layer counters and self times of
traced rounds instead.  The last line of output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; a copy of it with
the run's metadata is written under ``perfbench/out/runs/``.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
WORKLOADS = ("lattice_levels", "polyhedral", "cli_session")
SETUP_REPEATS = 4  # set-up-only interpreters, besides the measuring one
UNITS = {"wall_s": "s", "query_ms_p50": "ms", "setup_s": "s", "peak_rss_mb": "MB"}


def per_layer_unit(name):
    if name.endswith("_ms"):
        return "ms"
    if name == "trace.wall_s":
        return "s"
    if name == "trace.overhead":
        return "ratio"
    return "count"


def git_sha():
    """The commit of the checkout, read from .git when there is one."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        path = os.path.join(ROOT, ".git", name)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + name):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def child_env():
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_worker(args, workload, workdir, setup_only=False):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--workdir", workdir]
    if setup_only:
        cmd.append("--setup-only")
    proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True,
                          timeout=150)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit("worker for %s exited with %d" % (workload, proc.returncode))
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    expected = os.path.join(ROOT, "src", "samfilt", "__init__.py")
    if os.path.realpath(result["samfilt_file"]) != os.path.realpath(expected):
        raise SystemExit("samfilt was imported from %s, not from this checkout"
                         % result["samfilt_file"])
    return result


def run_workload(args, workload):
    workdir = os.path.join(OUT, "work", "%s-%d" % (workload, os.getpid()))
    os.makedirs(workdir, exist_ok=True)
    try:
        setups = [run_worker(args, workload, workdir, setup_only=True)["setup_s"]
                  for _ in range(SETUP_REPEATS)]
        res = run_worker(args, workload, workdir)
    finally:
        for name in os.listdir(workdir):
            os.remove(os.path.join(workdir, name))
        os.rmdir(workdir)
    setups.append(res["setup_s"])
    for problem in res["problems"]:
        sys.stderr.write("%s: %s\n" % (workload, problem))
    for name, exc in sorted(res["failures"].items()):
        sys.stderr.write("%s: operation %r failed with %s\n" % (workload, name, exc))
    if args.trace:
        metrics = {k: {"value": v, "unit": per_layer_unit(k)} for k, v in res["trace"].items()}
    else:
        values = {
            "wall_s": res["wall_s"],
            "query_ms_p50": res["query_ms_p50"],
            "setup_s": statistics.median(setups),
            "peak_rss_mb": res["peak_rss_mb"],
        }
        metrics = {k: {"value": v, "unit": UNITS[k]} for k, v in values.items()}
    summary = {
        "correct": not res["problems"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }
    meta = {
        "workload": workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "rounds": res["rounds"],
        "queries_timed": res["queries"],
        "round_walls_s": res["round_walls_s"],
        "setup_samples_s": setups,
        "failures": res["failures"],
        "problems": res["problems"],
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "kernel_implementation": res["kernel_implementation"],
        "cpu_count": os.cpu_count(),
        "finished": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "result": summary,
    }
    runs = os.path.join(OUT, "runs")
    os.makedirs(runs, exist_ok=True)
    name = "%s-seed%d-trace%d-%d.json" % (workload, args.seed, args.trace, int(time.time() * 1000))
    with open(os.path.join(runs, name), "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=1, sort_keys=True)
    return summary, meta


def print_summary(workload, summary, meta):
    print("%s: attempted %d, failed %d, correct %s, %d rounds (python %s, %s kernels, %s cpus)"
          % (workload, summary["attempted"], summary["failed"], summary["correct"],
             meta["rounds"], meta["python"], meta["kernel_implementation"], meta["cpu_count"]))
    for name, m in summary["metrics"].items():
        print("  %-40s %14.6g %s" % (name, m["value"], m["unit"]))


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=None,
                   help="measuring time per workload (default: BENCHMARK.json run_seconds)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "samfilt", "__init__.py")):
        sys.stderr.write("no src/samfilt under %s: run from a samfilt checkout\n" % ROOT)
        return 2
    if args.seconds is None:
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            args.seconds = json.load(fh)["run_seconds"]
    # warm the bytecode cache so that set-up times a warm import
    subprocess.run([sys.executable, "-c", "import samfilt, samfilt.cli"], cwd=ROOT,
                   env=child_env(), check=True, capture_output=True, timeout=60)
    names = [args.workload] if args.workload else list(WORKLOADS)
    results = {}
    for workload in names:
        summary, meta = run_workload(args, workload)
        print_summary(workload, summary, meta)
        results[workload] = summary
    if args.workload:
        final = results[args.workload]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {"%s.%s" % (w, k): m for w, r in results.items()
                        for k, m in r["metrics"].items()},
        }
    print(json.dumps(final, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
