"""Benchmark of the hrmix command line: grid, sweep and lines workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload grid --seed 0 --seconds 30 --trace 0

The workload runs in fresh interpreters (``worker.py``): first
``SETUP_SAMPLES - 1`` set-up-only processes, then the measured one.  Set-up
time is taken from process start to the end of input building, and its
median over all of them is reported.  With ``--trace 0`` the last line
reports the end-to-end metrics, with ``--trace 1`` the per-layer ones; the
lines before it summarise the run for a reader.  A full record of each run,
with the environment, goes to ``.perfbench_work/results/``.

Exit status: 0 with a result line, 1 if the workload's process failed,
2 if the checkout holds no ``src/hrmix``.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SETUP_SAMPLES = 5
# every run must end well inside the three minutes a run is allowed
RUN_DEADLINE_S = 170.0


def git_sha(root: Path) -> str:
    if not (root / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def run_worker(args, root: Path, work_dir: Path, deadline: float, setup_only: bool, spans=None):
    """Start one worker, wait for it, and return (its record, set-up seconds)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload]
    cmd += ["--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    cmd += ["--root", str(root), "--work-dir", str(work_dir)]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    if setup_only:
        cmd.append("--setup-only")
    started_at = time.time()
    proc = subprocess.run(
        cmd,
        cwd=root,
        stdout=subprocess.PIPE,
        text=True,
        timeout=max(deadline - time.monotonic(), 1.0),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with status {proc.returncode}")
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    return record, record["ready_at"] - started_at


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def end_to_end(record: dict, setups: list) -> dict:
    walls = [p["wall_s"] for p in record["passes"]]
    items = sum(p["items"] for p in record["passes"])
    return {
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "wall_s": {"value": statistics.median(walls), "unit": "s"},
        "items_per_s": {"value": items / sum(walls), "unit": "1/s"},
        "peak_rss_mb": {"value": record["peak_rss_mb"], "unit": "MB"},
    }


# Per-layer metrics.  Counts are per traced pass; times are medians over the
# traced passes of each pass's summed span times.
COUNT_METRICS = [
    "numerics.integrate_semi_infinite.calls",
    "numerics.integrate_semi_infinite.panels",
    "numerics.brent_root.calls",
    "numerics.brent_root.residual_evals",
    "numerics.newton_nd.calls",
    "numerics.newton_nd.iterations",
    "numerics.newton_nd.residual_evals",
    "numerics.solve_linear.calls",
    "estimators.solve_cpl_binary.calls",
    "estimators.solve_theta_pl_general.calls",
    "estimators.theta_m_estimate.calls",
    "cox.fit_cox.calls",
    "cox.fit_cox.subjects",
    "cox.fit_cox.iterations",
    "cox.fit_cox.failed",
    "data.read_patient_csv.rows",
    "analysis.bias_sweep.replicates_failed",
]
TIME_METRICS = [
    ("numerics.integrate_semi_infinite", "self_s"),
    ("numerics.brent_root", "self_s"),
    ("numerics.newton_nd", "self_s"),
    ("estimators.solve_cpl_binary", "total_s"),
    ("estimators.solve_theta_pl_general", "total_s"),
    ("estimators.theta_pl_sensitivity", "total_s"),
    ("estimators.theta_m_estimate", "total_s"),
    ("estimators.theta_hm_estimate", "total_s"),
    ("cox.fit_cox", "total_s"),
    ("data.simulate_trial", "total_s"),
    ("data.censor_administrative", "total_s"),
    ("data.pool", "total_s"),
    ("data.read_patient_csv", "total_s"),
    ("analysis.figure2_grid", "self_s"),
    ("analysis.bias_sweep", "self_s"),
    ("cli.main", "self_s"),
]
# ratio name -> (numerator, base, unit): work attempted per useful result
RATIO_METRICS = {
    "numerics.integrate_semi_infinite.panels_per_call": (
        "numerics.integrate_semi_infinite.panels",
        "numerics.integrate_semi_infinite.calls",
        "panels/call",
    ),
    "numerics.brent_root.residual_evals_per_call": (
        "numerics.brent_root.residual_evals",
        "numerics.brent_root.calls",
        "evals/call",
    ),
    "numerics.newton_nd.residual_evals_per_call": (
        "numerics.newton_nd.residual_evals",
        "numerics.newton_nd.calls",
        "evals/call",
    ),
    "cox.fit_cox.iterations_per_fit": ("cox.fit_cox.iterations", "cox.fit_cox.calls", "iters/fit"),
}


def per_layer(record: dict) -> dict:
    counts = record["counts"][0]
    out = {name: {"value": counts.get(name, 0), "unit": "count"} for name in COUNT_METRICS}
    for name, (num, base, unit) in RATIO_METRICS.items():
        out[name] = {"value": ratio(counts.get(num, 0), counts.get(base, 0)), "unit": unit}
    for span, field in TIME_METRICS:
        values = [layers.get(span, {}).get(field, 0.0) for layers in record["layers"]]
        out[f"{span}.{field}"] = {"value": statistics.median(values), "unit": "s"}
    out["trace.overhead_s"] = {"value": record["trace_overhead_s"], "unit": "s"}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="hrmix benchmark (see perfbench/README.md)")
    parser.add_argument("--workload", required=True, choices=("grid", "sweep", "lines"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    deadline = time.monotonic() + RUN_DEADLINE_S
    root = Path.cwd()
    if not (root / "src" / "hrmix" / "__init__.py").is_file():
        print(f"perfbench: no hrmix sources under {root / 'src'}", file=sys.stderr)
        return 2
    out_root = root / ".perfbench_work"
    run_dir = out_root / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans = out_root / "spans" / f"{args.workload}-seed{args.seed}.jsonl.gz"
    shutil.rmtree(run_dir, ignore_errors=True)
    try:
        setups = []
        for i in range(SETUP_SAMPLES - 1):
            _, setup = run_worker(args, root, run_dir / f"setup{i}", deadline, True)
            setups.append(setup)
        if args.trace:
            spans.parent.mkdir(parents=True, exist_ok=True)
        record, setup = run_worker(
            args, root, run_dir / "run", deadline, False, spans if args.trace else None
        )
        setups.append(setup)
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError, IndexError) as exc:
        print(f"perfbench: {args.workload} run failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    passes = record["passes"]
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    correct = failed == 0 and record["outputs_identical"]
    if args.trace:
        metrics = per_layer(record)
        counts = record["counts"]
        counts_repeat = len(counts) >= 2 and all(c == counts[0] for c in counts)
        correct = correct and counts_repeat
    else:
        metrics = end_to_end(record, setups)
    record.update(
        workload=args.workload,
        seed=args.seed,
        trace=args.trace,
        git_sha=git_sha(root),
        setup_samples_s=setups,
        metrics=metrics,
    )
    results = out_root / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1)
    )

    print(f"workload {args.workload}  seed {args.seed}  input set {record['input_set']}")
    print(f"env {json.dumps(dict(record['env'], git_sha=record['git_sha']))}")
    walls = [round(p["wall_s"], 3) for p in passes]
    traced = sum(p["traced"] for p in passes)
    print(f"passes {len(passes)} ({traced} traced), pass times {walls} s")
    print(f"failed_frac {ratio(failed, attempted)!r} ({failed} of {attempted} operations)")
    if args.trace:
        print(f"work counts repeat across traced passes: {counts_repeat}")
        if record["missing_sites"]:
            print(f"binding sites not found (their metrics read 0): {record['missing_sites']}")
    print(f"outputs identical across passes: {record['outputs_identical']}")
    for p in passes:
        for err in p["errors"][:3]:
            print(f"  check failed: {err}")
    for name, m in metrics.items():
        print(f"  {name:55s} {m['value']!r} {m['unit']}")
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
