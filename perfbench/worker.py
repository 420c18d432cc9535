"""One benchmark run of one workload, in a fresh interpreter.

``run.py`` starts this script once per set-up sample and once for the
measured run, so set-up time and peak memory belong to this process alone.
It imports ``hrmix`` from ``<root>/src``, builds the workload's inputs
(set-up ends there), and unless ``--setup-only`` runs passes through
``hrmix.cli.main`` for ``--seconds`` (at least ``MIN_PASSES``), checking
every pass against the reference.  With ``--trace 1`` every third pass,
starting with the first, is untraced and the others are traced: a run then
holds at least two traced passes, whose work counts must repeat, and
measures the tracing overhead and checks that tracing leaves every output
unchanged.  The last line of standard output is one JSON record for
``run.py``.
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
from pathlib import Path

from tracer import Tracer
from workloads import N_INPUT_SETS, WORKLOADS, run_command

MIN_PASSES = 3
BLAS_ENV = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def import_hrmix(root: Path):
    """Import ``hrmix`` from the checkout's sources, never from elsewhere."""
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    import hrmix
    import hrmix.cli

    if not Path(hrmix.__file__).resolve().is_relative_to(src):
        raise ImportError(f"hrmix was imported from {hrmix.__file__}, not from {src}")
    return hrmix


def environment(hrmix) -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "hrmix": hrmix.__version__,
        "cpu_count": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "blas_env": {k: os.environ[k] for k in BLAS_ENV if k in os.environ},
    }


def run_pass(hrmix, workload, commands, reference, tracer=None) -> dict:
    results = []
    wall = 0.0
    if tracer is not None:
        tracer.install()
    try:
        for cmd in commands:
            res, elapsed = run_command(hrmix.cli, cmd)
            results.append(res)
            wall += elapsed
    finally:
        if tracer is not None:
            tracer.uninstall()
    attempted = failed = 0
    errors = []
    for cmd, res in zip(commands, results):
        a, f = workload.check(cmd, res, reference)
        attempted += a
        failed += f
        if f:
            detail = f"\n{res.error}" if res.error else ""
            errors.append(f"{cmd.key}: exit {res.code}, {f} of {a} failed{detail}")
    return {
        "wall_s": wall,
        "traced": tracer is not None,
        "attempted": attempted,
        "failed": failed,
        "items": sum(cmd.items for cmd in commands),
        "errors": errors,
        "outputs": [res.text() for res in results],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--root", required=True, help="checkout root holding src/hrmix")
    parser.add_argument("--work-dir", required=True, help="directory for inputs and outputs")
    parser.add_argument("--spans", help="gzip JSON-lines file for the traced spans")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    hrmix = import_hrmix(Path(args.root))
    workload = WORKLOADS[args.workload](args.seed % N_INPUT_SETS)
    work_dir = Path(args.work_dir)
    work_dir.mkdir(parents=True, exist_ok=True)
    workload.prepare(work_dir)
    ready_at = time.time()
    if args.setup_only:
        print(json.dumps({"ready_at": ready_at}))
        return 0

    reference = workload.load_reference()
    commands = workload.commands()
    passes = []
    tracers = []
    start = time.perf_counter()
    # start another pass only if it should end within --seconds
    while len(passes) < MIN_PASSES or (
        time.perf_counter() - start + statistics.median(p["wall_s"] for p in passes) <= args.seconds
    ):
        tracer = Tracer() if args.trace and len(passes) % 3 else None
        passes.append(run_pass(hrmix, workload, commands, reference, tracer))
        if tracer is not None:
            tracers.append(tracer)

    first = passes[0]["outputs"]
    record = {
        "ready_at": ready_at,
        "input_set": workload.input_set,
        "env": environment(hrmix),
        "outputs_identical": all(p["outputs"] == first for p in passes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "passes": [{k: v for k, v in p.items() if k != "outputs"} for p in passes],
    }
    if tracers:
        record["counts"] = [dict(t.counts) for t in tracers]
        record["layers"] = [t.summary() for t in tracers]
        record["missing_sites"] = tracers[0].missing
        traced = [p["wall_s"] for p in passes if p["traced"]]
        untraced = [p["wall_s"] for p in passes if not p["traced"]]
        record["trace_overhead_s"] = statistics.median(traced) - statistics.median(untraced)
        if args.spans:
            Path(args.spans).unlink(missing_ok=True)
            for i, t in enumerate(tracers):
                t.write_spans(args.spans, start, i)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
