#!/usr/bin/env python3
"""flutterspec benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload pseudo_map --seed 1 --seconds 16 --trace 0

Run from the root of a source checkout; flutterspec is imported from its
``src/`` directory.  The run imports flutterspec in fresh interpreters,
sets the workload up several times, then repeats the workload's task list
("a pass") until ``--seconds`` have elapsed.  Every task's answer is
checked (see workloads.py).  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``).  The line before it is the run record: machine, versions,
seeded inputs, task failures and tracing overhead; it is also written to
``.bench_out/``.  ``--smoke`` runs tiny grids and short paths.

Tasks run one after another in this process (the CLI workload starts one
child interpreter at a time).  FLUTTERSPEC_THREADS is removed from the
environment, so fields take the default serial path, and BLAS runs one
thread.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

# One BLAS thread (within the nproc cap): the matrices here are at most
# 256 x 256, and two OpenBLAS threads on the 2-core machine made the SLP
# corrector twice as slow and the run-to-run spread twice as wide.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 3
END_TO_END = ("setup_s", "wall_s", "passed_ratio", "peak_rss_mb", "step_ms", "import_s")
UNITS = {"setup_s": "s", "wall_s": "s", "passed_ratio": "ratio", "peak_rss_mb": "MB",
         "step_ms": "ms", "import_s": "s"}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("pseudo_map", "flutter_search", "trace_envelope", "cli_session"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny grids and short paths")
    return p.parse_args(argv)


def machine_record(nproc: int) -> dict:
    import numpy
    import scipy
    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), "")
    except OSError:
        pass
    return {"nproc": nproc, "cpu": cpu, "machine": platform.machine(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS},
            "FLUTTERSPEC_THREADS": os.environ.get("FLUTTERSPEC_THREADS", "unset")}


def median(values):
    values = [v for v in values if v == v]
    return statistics.median(values) if values else float("nan")


def _cpu_s() -> float:
    """CPU time of this process and its finished children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def run_pass(workload, tasks, tracer, polish_counter, traced: bool) -> dict:
    from workloads import Raised

    ctx = {"meter": defaultdict(float), "traced": traced, "child_tables": []}
    times, outcomes = {}, {}
    polish_before = polish_counter.count
    if traced:
        tracer.reset()
        tracer.active = True
    cpu0 = _cpu_s()
    try:
        for task in tasks:
            t0 = time.perf_counter()
            try:
                out = task.run(ctx)
            except Exception as exc:  # a failed task; the run goes on
                out = Raised(f"{type(exc).__name__}: {exc}")
            times[task.id] = time.perf_counter() - t0
            ctx[task.id] = outcomes[task.id] = out
    finally:
        tracer.active = False
    result = {"ctx": ctx, "times": times, "outcomes": outcomes, "traced": traced,
              "wall_s": sum(times.values()), "cpu_s": _cpu_s() - cpu0,
              "step_ms": workload.step_ms(ctx)}
    if traced:
        import tracing
        tables = [tracer.table()]
        for path in ctx["child_tables"]:
            with open(path, encoding="utf-8") as fh:
                tables.append(json.load(fh))
        table = tracing.merge_tables(tables)
        logged = polish_counter.count - polish_before + table.get(
            "flutter.polish.logged_failures", {}).get("calls", 0)
        result["layers"] = {**tracing.layer_metrics(table, logged), **workload.layer_extras(ctx)}
    return result


def check_passes(tasks, passes, known: dict) -> dict:
    """Answer checks on the first pass, bit-identical results on the others."""
    from workloads import NONDETERMINISTIC, RAISED, WRONG, Raised, fingerprint

    first = passes[0]
    failures = {}
    for task in tasks:
        out = first["outcomes"][task.id]
        if isinstance(out, Raised):
            fails = [(RAISED, out.error)]
        else:
            try:
                fails = task.check(out, first["ctx"])
            except Exception as exc:  # a check that cannot read the answer
                fails = [(WRONG, f"answer check raised {type(exc).__name__}: {exc}")]
        digest = fingerprint(out)
        for later in passes[1:]:
            if fingerprint(later["outcomes"][task.id]) != digest:
                fails.append((NONDETERMINISTIC, "result differs between passes"))
                break
        if fails:
            failures[task.id] = fails
    unexpected = sorted(t for t in failures if t not in known)
    incorrect = sorted(t for t, fs in failures.items()
                       if any(kind in (WRONG, NONDETERMINISTIC) for kind, _ in fs))
    return {"failures": failures, "unexpected": unexpected, "incorrect": incorrect,
            "known_defects_fixed": sorted(t for t in known if t not in failures)}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "flutterspec", "__init__.py")):
        print(f"error: no flutterspec sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    nproc = os.cpu_count() or 1
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    os.environ.pop("FLUTTERSPEC_THREADS", None)
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)

    import flutterspec
    import flutterspec.cli  # noqa: F401  (traced like the other modules)
    if not os.path.abspath(flutterspec.__file__).startswith(SRC + os.sep):
        print(f"error: imported flutterspec from {flutterspec.__file__}", file=sys.stderr)
        return 2
    import tracing
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    inputs = workloads.make_inputs(args.seed)
    with open(os.path.join(HERE, "known_defects.json"), encoding="utf-8") as fh:
        known = {} if args.smoke else json.load(fh)[workload.name]

    tracer = tracing.Tracer()
    tracer.install()
    polish_counter = tracing.PolishFailureCounter().attach()

    # set-up: fresh-interpreter imports, then building operators and seeds;
    # a traced run traces the last repetition
    import_samples, setup_samples = [], []
    for rep in range(SETUP_REPEATS):
        import_samples.append(workloads.fresh_import_s())
        tracer.active = bool(args.trace) and rep == SETUP_REPEATS - 1
        t0 = time.perf_counter()
        state = workload.setup(inputs, args.smoke)
        setup_samples.append(time.perf_counter() - t0)
        tracer.active = False
    setup_table = tracer.table()
    tasks = workload.tasks(state)

    passes = []
    t_start = time.perf_counter()
    try:
        while True:
            traced = bool(args.trace) and len(passes) % 2 == 1
            passes.append(run_pass(workload, tasks, tracer, polish_counter, traced))
            # fresh-interpreter imports spread over the run, unless the pass made one
            import_samples.append(passes[-1]["ctx"]["meter"].get("import_s")
                                  or workloads.fresh_import_s())
            # a traced run needs an untraced and a traced pass
            enough = len(passes) >= max(workload.min_passes, 2 if args.trace else 1)
            if enough and time.perf_counter() - t_start >= args.seconds:
                break
    finally:
        tracer.uninstall()
        polish_counter.detach()

    verdict = check_passes(tasks, passes, known)
    attempted = len(tasks) * len(passes)
    failed = len(verdict["failures"]) * len(passes)
    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]

    setup_s = median(import_samples) + median(setup_samples)
    wall_plain = median([p["wall_s"] for p in plain])
    overhead = median([p["wall_s"] for p in traced]) - wall_plain if traced else None
    if args.trace:
        layers = {name: median([p["layers"][name] for p in traced])
                  for name in traced[0]["layers"]}
        layers["models.build.self_s"] += tracing.layer_metrics(setup_table, 0)["models.build.self_s"]
        for name in tracing.CLI_LAYER:
            if name.endswith(".wall_s"):
                task = "cli:" + name.split(".")[1]
                layers[name] = median([p["times"].get(task, 0.0) for p in plain])
        layers["trace.overhead_s"] = overhead
        layers["trace.overhead_share"] = overhead / wall_plain
        metrics = {name: {"value": layers.get(name, 0), "unit": tracing.unit(name)}
                   for name in tracing.per_layer_names()}
    else:
        values = {
            "setup_s": setup_s,
            "wall_s": wall_plain,
            "passed_ratio": 1.0 - failed / attempted,
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_CHILDREN if workload.runs_children else resource.RUSAGE_SELF
            ).ru_maxrss / 1024.0,
            "step_ms": median([p["step_ms"] for p in plain]),
            "import_s": median(import_samples),
        }
        metrics = {name: {"value": values[name], "unit": UNITS[name]} for name in END_TO_END}

    record = {
        "workload": workload.name, "why": workload.why, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "smoke": args.smoke,
        "machine": machine_record(nproc), "inputs": inputs.record(),
        "passes": len(passes), "traced_passes": len(traced),
        "pass_wall_s": [p["wall_s"] for p in passes],
        "pass_cpu_s": [p["cpu_s"] for p in passes],
        "setup_samples_s": setup_samples, "import_samples_s": import_samples,
        "tasks": [t.id for t in tasks],
        "failures": verdict["failures"], "unexpected_failures": verdict["unexpected"],
        "incorrect": verdict["incorrect"], "known_defects_fixed": verdict["known_defects_fixed"],
        "logged_polish_failures": polish_counter.count,
        "tracing_overhead_s": overhead,
    }
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(out_dir, f"{stem}.json"), "w", encoding="utf-8") as fh:
        json.dump({"record": record, "metrics": metrics}, fh, indent=1, default=str)
    if traced:
        tracer.dump_spans(os.path.join(out_dir, f"{stem}-spans.csv"))

    correct = not verdict["unexpected"] and not verdict["incorrect"]
    print(json.dumps({"record": record}, default=str))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
