"""dephasekit benchmark: one workload at one seed, measured for a fixed time.

    python3 perfbench/run.py --workload gate-powerlaw --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; dephasekit is imported from its `src/`.
With `--trace 0` the last stdout line carries the end-to-end metrics; with
`--trace 1` it carries the per-layer metrics of a traced run.  The line
before it is a JSON document with provenance, every wall-time sample and the
records digest.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

import tracing
import workloads

SETUP_SAMPLES = 3

# (name, unit, better); BENCHMARK.json holds the same names with their bounds
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("success_rate", "ratio", "higher"),
]
PER_LAYER = (
    [("cli.import_s", "s", "lower")]
    + [(f"cli.{stage}_s", "s", "lower") for stage in workloads.CliPipeline.stages]
    + [(metric, unit, better) for metric, _, _, unit, better in tracing.LAYER_METRICS]
    + [("trace.overhead_s", "s", "lower")]
)


def time_setup(workload) -> float:
    """Median wall time of fresh interpreters that only do the workload's set-up."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        code = subprocess.run(workload.setup_probe(), env=workloads.child_env(),
                              stdout=subprocess.DEVNULL).returncode
        samples.append(time.perf_counter() - start)
        if code != 0:
            raise SystemExit(f"benchmark: set-up of {workload.name} exited {code}")
    return statistics.median(samples)


def measure(workload, seconds: float, tracer) -> dict:
    """Closed loop: iterate until `seconds` have passed; check outputs untimed.

    A traced run alternates untraced and traced iterations, starting
    untraced, so that it can report the tracing overhead.
    """
    walls = {False: [], True: []}
    roots, failures, digest = [], [], None
    start = time.perf_counter()
    i = 0
    while time.perf_counter() - start < seconds or i < (2 if tracer else 1):
        traced = bool(tracer) and i % 2 == 1
        t0 = time.perf_counter()
        try:
            if traced:
                with tracer.span("iteration") as root:
                    output = workload.run(tracer)
                roots.append(root)
            else:
                output = workload.run()
            wall = time.perf_counter() - t0
            got, problems = workload.check(output)
        except Exception:
            wall, got, problems = None, None, [traceback.format_exc()]
        if got is not None:
            digest = digest or got
            if got != digest:
                problems.append(f"records digest {got} differs from {digest}")
        if problems:
            failures.append({"iteration": i, "problems": problems})
            print(f"iteration {i} failed: {problems}", file=sys.stderr)
        elif wall is not None:
            walls[traced].append(wall)
        i += 1
    workload.cleanup()
    return {"attempted": i, "failures": failures, "walls": walls[False],
            "traced_walls": walls[True], "roots": roots, "digest": digest}


def _median(samples: list) -> float:
    """Median, or 0.0 when there is no sample (every iteration failed)."""
    return statistics.median(samples) if samples else 0.0


def peak_rss_mb(source: str) -> float:
    who = resource.RUSAGE_SELF if source == "self" else resource.RUSAGE_CHILDREN
    return resource.getrusage(who).ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux


def provenance(seed: int, digest) -> dict:
    import numpy
    import scipy

    root = workloads.ROOT
    git_sha = None
    if (root / ".git").exists():
        git = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        git_sha = git.stdout.strip() or None
    src = hashlib.sha256()
    for path in sorted((workloads.SRC / "dephasekit").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": git_sha,
        "src_sha256": src.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_env": {k: os.environ.get(k) for k in (
            "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")},
        "seed": seed,
        "records_sha256": digest,
    }


def end_to_end(workload, run: dict, setup_s: float) -> dict:
    attempted = run["attempted"]
    return {
        "setup_s": setup_s,
        "wall_s": _median(run["walls"]),
        "peak_rss_mb": peak_rss_mb(workload.rss_source),
        "success_rate": (attempted - len(run["failures"])) / attempted,
    }


def metrics_of(values: dict, table: list) -> dict:
    return {name: {"value": values[name], "unit": unit} for name, unit, _ in table}


def per_layer(run: dict, tracer, setup_root: int) -> tuple:
    spans = tracer.spans
    values, counts_repeat = tracing.run_layers(spans, setup_root, run["roots"])
    durations: dict = {}
    for root in run["roots"]:
        for i in tracing.subtree(spans, root)[1:]:
            name, start, end = spans[i][:3]
            if name.startswith("cli."):
                durations.setdefault(name + "_s", []).append(end - start)
    for name, _, _ in PER_LAYER:
        if name.startswith("cli."):
            values[name] = _median(durations.get(name, []))
    untraced, traced = run["walls"], run["traced_walls"]
    values["trace.overhead_s"] = _median(traced) - _median(untraced) if traced and untraced else 0.0
    return values, counts_repeat


def dump_spans(workload, seed: int, spans: list, roots: list) -> str:
    """Write the set-up spans and those of the first traced iteration."""
    end = tracing.subtree(spans, roots[0])[-1] + 1 if roots else len(spans)
    workloads.OUT.mkdir(parents=True, exist_ok=True)
    path = workloads.OUT / f"spans-{workload.name}-seed{seed}.json"
    with open(path, "w") as fh:
        json.dump({"fields": ["name", "start", "end", "parent", "amount"],
                   "spans": spans[:end]}, fh)
    return str(path.relative_to(workloads.ROOT))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workloads.use_checkout_source()
    workload = workloads.make(args.workload, args.seed)
    tracer = tracing.Tracer() if args.trace else None
    setup_root = None
    if tracer:
        with tracer.span("setup") as setup_root, tracing.installed(tracer):
            workload.setup()
    else:
        setup_s = time_setup(workload)
        workload.setup()

    run = measure(workload, args.seconds, tracer)
    attempted, failed = run["attempted"], len(run["failures"])
    detail = {
        "workload": workload.name,
        "trace": args.trace,
        "provenance": provenance(args.seed, run["digest"]),
        "wall_samples_s": run["walls"],
        "traced_wall_samples_s": run["traced_walls"],
        "fail_rate": failed / attempted,
        "failures": run["failures"],
    }
    if tracer:
        values, detail["counts_repeat"] = per_layer(run, tracer, setup_root)
        detail["spans_file"] = dump_spans(workload, args.seed, tracer.spans, run["roots"])
        detail["spans_recorded"] = len(tracer.spans)
        units = PER_LAYER
    else:
        values = end_to_end(workload, run, setup_s)
        units = END_TO_END
    print(json.dumps(detail))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics_of(values, units)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
