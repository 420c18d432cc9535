"""Tests of the benchmark itself, on one input set of each workload.

Run from the repository root: ``python3 -m pytest -q perfbench/tests``
(about a minute and a half: four passes of each workload).
"""

import csv
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from tracer import Tracer  # noqa: E402
from worker import import_hrmix, run_pass  # noqa: E402
from workloads import (  # noqa: E402
    LINES_SIZES,
    PRINTED_TABLE,
    SWEEP_REPLICATES,
    WORKLOADS,
    _grid_cell_ok,
    run_command,
)

hrmix = import_hrmix(ROOT)

# span -> workloads on which it must fire; it must read 0 on the others
FIRES_ON = {
    "numerics.integrate_semi_infinite": {"grid", "sweep", "lines"},
    "numerics.brent_root": {"grid", "sweep"},
    "numerics.newton_nd": {"lines"},
    "numerics.solve_linear": {"lines"},
    "estimators.solve_cpl_binary": {"grid", "sweep"},
    "estimators.solve_theta_pl_general": {"lines"},
    "estimators.theta_pl_sensitivity": {"lines"},
    "estimators.theta_m_estimate": {"lines"},
    "estimators.theta_hm_estimate": {"lines"},
    "cox.fit_cox": {"sweep", "lines"},
    "data.simulate_trial": {"sweep"},
    "data.censor_administrative": {"sweep"},
    "data.pool": {"sweep", "lines"},
    "data.read_patient_csv": {"lines"},
    "analysis.table1_grid": {"grid"},
    "analysis.figure2_grid": {"grid"},
    "analysis.bias_sweep": {"sweep"},
    "cli.main": {"grid", "sweep", "lines"},
}


@pytest.fixture(scope="module", params=sorted(WORKLOADS))
def passes(request, tmp_path_factory):
    """One untraced pass, then two traced ones, against the committed reference."""
    workload = WORKLOADS[request.param](0)
    workload.prepare(tmp_path_factory.mktemp(request.param))
    commands = workload.commands()
    reference = workload.load_reference()
    untraced = run_pass(hrmix, workload, commands, reference)
    tracers = [Tracer(), Tracer()]
    traced = [run_pass(hrmix, workload, commands, reference, t) for t in tracers]
    return request.param, workload, commands, reference, untraced, traced, tracers


def test_tracing_leaves_outputs_identical(passes):
    _, _, _, _, untraced, traced, _ = passes
    assert untraced["failed"] == 0 and untraced["attempted"] > 0
    for run in traced:
        assert run["traced"] and run["failed"] == 0
        assert run["outputs"] == untraced["outputs"]


def test_work_counts_repeat_exactly(passes):
    tracers = passes[-1]
    first, second = (t.counts for t in tracers)
    assert first and first == second


def test_spans_fire_where_predicted(passes):
    name, tracers = passes[0], passes[-1]
    counts = tracers[0].counts
    assert not tracers[0].missing
    for span, workloads in FIRES_ON.items():
        calls = counts.get(f"{span}.calls", 0)
        if name in workloads:
            assert calls > 0, f"{span} did not fire on {name}"
        else:
            assert calls == 0, f"{span} fired {calls} times on {name}"
    assert counts.get("numerics.integrate_semi_infinite.panels", 0) >= counts.get(
        "numerics.integrate_semi_infinite.calls", 0
    )
    if name == "lines":
        assert counts["data.read_patient_csv.rows"] == 3 * sum(LINES_SIZES)
        assert counts["numerics.newton_nd.iterations"] > 0
    if name == "sweep":
        # pooled and per-trial fits at each of 6 study ends
        assert counts["cox.fit_cox.subjects"] == 2 * 570 * 6 * SWEEP_REPLICATES


def test_self_time_excludes_children(passes):
    tracers = passes[-1]
    for span, agg in tracers[0].summary().items():
        assert 0.0 <= agg["self_s"] <= agg["total_s"] + 1e-9, span


def _corrupt(name, reference):
    """Return a copy of the reference with one value moved by 1e-6 relative."""
    ref = json.loads(json.dumps(reference))
    if name == "grid":
        ref["grid"][3][3] *= 1 + 1e-6  # one cell's c_pl
    elif name == "sweep":
        row = ref["sweep"][0]
        row["theta_m_mean"] = repr(float(row["theta_m_mean"]) * (1 + 1e-6))
    else:
        ref["n570-arm"]["harmonic_mean"]["estimate"][0] *= 1 + 1e-6
    return ref


def test_corrupted_reference_fails(passes):
    name, workload, commands, reference = passes[:4]
    results = [run_command(hrmix.cli, cmd)[0] for cmd in commands]
    assert sum(workload.check(c, r, reference)[1] for c, r in zip(commands, results)) == 0
    bad = _corrupt(name, reference)
    assert sum(workload.check(c, r, bad)[1] for c, r in zip(commands, results)) >= 1
    if name == "sweep":
        bad = json.loads(json.dumps(reference))
        bad["sweep"][1]["n_failed"] = "1"
        assert workload.check(commands[0], results[0], bad)[1] == SWEEP_REPLICATES
    # a command with no reference fails every one of its operations
    assert workload.check(commands[0], results[0], {}) == (commands[0].ops, commands[0].ops)


def test_printed_table_is_checked(tmp_path):
    workload = WORKLOADS["grid"](0)
    workload.prepare(tmp_path)
    res = run_command(hrmix.cli, workload.commands()[0])[0]
    rows = {(float(r["a"]), float(r["b"])): r for r in csv.DictReader(io.StringIO(res.output))}
    row = rows[(0.5, 1.0)]
    ref = (float(row["c_hm"]), float(row["c_pl"]))
    printed = PRINTED_TABLE[(0.5, 1.0)]
    assert _grid_cell_ok(row, ref, printed)
    assert not _grid_cell_ok(row, ref, (printed[0], printed[1] + 0.02) + printed[2:])


def test_run_fails_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "grid", "--seed", "0"]
        + ["--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
