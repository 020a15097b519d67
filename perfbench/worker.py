"""One run of one workload in a fresh process; ``run.py`` starts it.

The worker imports the checkout's ``tscomplex`` (and refuses any other
copy), draws the inputs from the seed, and then either stops at once
(``--setup-only``, used to time set-up), answers passes of queries for the
given seconds, or (``--trace 1``) answers one pass untraced and the same
pass traced.  Its last line of output is a JSON summary for ``run.py``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import importlib.metadata
import json
import os
import platform
import random
import resource
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS, child_env

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    try:
        T = importlib.import_module("tscomplex")
    except ImportError as exc:
        print(f"worker: cannot import tscomplex: {exc}", file=sys.stderr)
        return 2
    module_path = Path(T.__file__).resolve()
    if not module_path.is_relative_to(SRC.resolve()):
        print(f"worker: tscomplex comes from {module_path}, not from {SRC}", file=sys.stderr)
        return 2

    rng = random.Random(args.seed)
    workdir = ROOT / ".perfbench" / f"work-{os.getpid()}"
    workload = WORKLOADS[args.workload](T, rng, workdir)
    try:
        cli = args.workload == "cli"
        first = workload.queries(0, in_process=True) if cli and args.trace else workload.queries(0)
        ready = time.monotonic()
        if args.setup_only:
            print(json.dumps({"ready": ready}))
            return 0
        if args.trace:
            result = traced_run(workload, first, args.workload, args.seed)
        else:
            result = timed_run(workload, first, args.seconds)
            usage = resource.RUSAGE_CHILDREN if cli else resource.RUSAGE_SELF
            result["peak_rss_mb"] = resource.getrusage(usage).ru_maxrss / 1024.0
    finally:
        workload.close()
    result["ready"] = ready
    result["meta"] = meta(T, args.seed)
    print(json.dumps(result))
    return 0


def run_pass(queries, tracer=None, keep_answers=True) -> list[dict]:
    """Answer the queries one after another and check each answer."""
    outcomes = []
    for q in queries:
        start = time.perf_counter()
        try:
            answer = tracer.call(q.layer, q.kind, q.run) if tracer else q.run()
            error = None
        except Exception as exc:  # a crash is a failed query, and the run goes on
            answer, error = None, f"raised {type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
        if error is None:
            error = q.check(answer)
        outcomes.append({"kind": q.kind, "subject": q.subject, "seconds": seconds,
                         "answer": answer if keep_answers else None, "error": error,
                         "known_defect": q.known_defect(error)})
    return outcomes


def timed_run(workload, first, seconds: float) -> dict:
    """Whole passes until the next one would end after ``seconds``.

    Answers are dropped once checked, and garbage is collected between
    passes, so that neither memory nor collection work grows with the
    number of passes.
    """
    begin = time.perf_counter()
    outcomes, latencies = [], []
    queries = first
    while True:
        gc.collect()
        done = run_pass(queries, keep_answers=False)
        outcomes += done
        latencies.append([o["seconds"] for o in done])
        if time.perf_counter() - begin + sum(latencies[-1]) > seconds:
            break
        queries = workload.queries(len(latencies))
    return summarize(outcomes) | {"pass_latencies": latencies,
                                  "queries": [f"{o['kind']} {o['subject']}" for o in done]}


def traced_run(workload, queries, name: str, seed: int) -> dict:
    """The same pass untraced and then traced; the answers must agree and
    every wrapped name must be restored afterwards."""
    import layers
    from spans import Tracer, leftover_wrappers

    untraced = run_pass(queries)
    tracer = Tracer()
    tracer.install(layers.TARGETS, layers.PACKAGE_MODULES)
    try:
        traced = run_pass(queries, tracer)
    finally:
        tracer.uninstall()
    leftovers = leftover_wrappers(layers.PACKAGE_MODULES)
    neutral = [o["answer"] for o in untraced] == [o["answer"] for o in traced]

    metrics = layers.layer_metrics(tracer)
    metrics.update(layers.src_line_counts(SRC))
    untraced_wall = sum(o["seconds"] for o in untraced)
    metrics["trace.untraced_wall_s"] = untraced_wall
    metrics["trace.overhead_s"] = sum(o["seconds"] for o in traced) - untraced_wall
    metrics["cli.import_s"] = metrics["cli.startup_s"] = 0.0
    if name == "cli":
        metrics["cli.import_s"] = fresh_interpreter_import()
        metrics["cli.startup_s"] = fresh_interpreter_help()

    results = ROOT / ".perfbench" / "results"
    results.mkdir(parents=True, exist_ok=True)
    spans_file = results / f"{name}-seed{seed}-spans.tsv.gz"
    tracer.write(spans_file)
    return summarize(untraced + traced) | {
        "layer_metrics": metrics,
        "neutral": neutral,
        "leftover_wrappers": leftovers,
        "missing_targets": [f"{t.module}.{t.qualname}" for t in tracer.missing],
        "spans_file": str(spans_file.relative_to(ROOT)),
    }


def summarize(outcomes) -> dict:
    failures = [o for o in outcomes if o["error"] is not None]
    return {
        "attempted": len(outcomes),
        "failed": len(failures),
        "unexpected": sum(1 for o in failures if not o["known_defect"]),
        "failures": _failure_table(failures),
    }


def _failure_table(failures) -> list[dict]:
    """One row per distinct (kind, subject, error), with its count."""
    rows: dict[tuple, dict] = {}
    for o in failures:
        key = (o["kind"], o["subject"], o["error"])
        row = rows.setdefault(key, {"kind": o["kind"], "subject": o["subject"],
                                    "error": o["error"], "known_defect": o["known_defect"],
                                    "count": 0})
        row["count"] += 1
    return list(rows.values())


def fresh_interpreter_import(samples: int = 3) -> float:
    """Median time a fresh interpreter spends in ``import tscomplex.cli``."""
    code = ("import time; t = time.perf_counter(); import tscomplex.cli; "
            "print(time.perf_counter() - t)")
    times = []
    for _ in range(samples):
        proc = subprocess.run([sys.executable, "-c", code], env=child_env(SRC), cwd=ROOT,
                              capture_output=True, text=True, timeout=60, check=True)
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return sorted(times)[samples // 2]


def fresh_interpreter_help(samples: int = 3) -> float:
    """Median wall time of ``python -m tscomplex --help``."""
    times = []
    for _ in range(samples):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-m", "tscomplex", "--help"], env=child_env(SRC), cwd=ROOT,
                       capture_output=True, timeout=60, check=True)
        times.append(time.perf_counter() - start)
    return sorted(times)[samples // 2]


def meta(T, seed: int) -> dict:
    import layers

    try:
        affinity = len(os.sched_getaffinity(0))
    except AttributeError:
        affinity = os.cpu_count()
    return {
        "seed": seed,
        "python": platform.python_version(),
        "numpy": importlib.import_module("numpy").__version__,
        "click": importlib.metadata.version("click"),
        "nproc": affinity,
        "tscomplex_module": str(Path(T.__file__).resolve().relative_to(ROOT)),
        "src_loc": layers.src_line_counts(SRC),
    }


if __name__ == "__main__":
    sys.exit(main())
