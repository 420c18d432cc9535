import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from hrmix import NonConvergenceError, TrialDataset, scenario_to_json
from hrmix.cli import _empirical_dist, main
from hrmix.data import scenario_with


@pytest.fixture()
def scenario_file(tmp_path, example3_scenario):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario_to_json(example3_scenario)))
    return str(path)


def _run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    assert code == 0
    return json.loads(out)


class TestSolve:
    def test_reference_values(self, capsys):
        out = _run_json(
            capsys, ["solve", "--a", "0.5", "--b", "1.0", "--p", "0.5", "--q", "0.5"]
        )
        assert out["c_l"] == pytest.approx(0.750, abs=1e-12)
        assert out["exp_theta_l"] == pytest.approx(math.sqrt(0.5), abs=1e-12)
        assert out["c_hm"] == pytest.approx(2.0 / 3.0, abs=1e-12)
        assert out["c_pl"] == pytest.approx(0.682, abs=0.015)

    def test_homogeneous(self, capsys):
        out = _run_json(
            capsys, ["solve", "--a", "0.7", "--b", "0.7", "--p", "0.4", "--q", "0.6"]
        )
        for key in ("c_l", "exp_theta_l", "c_hm", "c_pl"):
            assert out[key] == pytest.approx(0.7, abs=1e-9)

    def test_censored_limit_flag(self, capsys):
        out = _run_json(
            capsys,
            ["solve", "--a", "0.3", "--b", "0.8", "--p", "0.7", "--q", "0.5", "--tmax-H", "50"],
        )
        assert out["c_censored"] == pytest.approx(out["c_pl"], abs=1e-6)

    def test_invalid_input_exit_code(self, capsys):
        assert main(["solve", "--a", "-1", "--b", "1.0", "--p", "0.5", "--q", "0.5"]) == 2
        assert main(["solve", "--a", "1.0", "--b", "1.0", "--p", "1.5", "--q", "0.5"]) == 2

    def test_solver_failure_exit_code(self, capsys, monkeypatch):
        import hrmix.cli as cli_mod

        def boom(*args, **kwargs):
            raise NonConvergenceError("forced failure")

        monkeypatch.setattr(cli_mod.estimators, "solve_cpl_binary", boom)
        assert main(["solve", "--a", "0.5", "--b", "1.0", "--p", "0.5", "--q", "0.5"]) == 3


_LAW = {"support": [[0.0], [1.0]], "probs": [0.5, 0.5]}


class TestEstimate:
    def _aggregates_file(self, tmp_path, beta1, beta2, var=0.02):
        payload = {
            "trials": [
                {"label": "t1", "n": 400, "beta_hat": [beta1], "covariance": [[var]]},
                {"label": "t2", "n": 170, "beta_hat": [beta2], "covariance": [[var]]},
            ],
            "covariate_dist": _LAW,
        }
        path = tmp_path / "aggs.json"
        path.write_text(json.dumps(payload))
        return str(path)

    def test_homogeneous_aggregates_collapse(self, capsys, tmp_path):
        path = self._aggregates_file(tmp_path, -0.4, -0.4)
        out = _run_json(capsys, ["estimate", "--aggregates", path])
        assert out["misspecified"]["estimate"][0] == pytest.approx(-0.4, abs=1e-8)
        assert out["harmonic_mean"]["estimate"][0] == pytest.approx(-0.4, abs=1e-8)
        assert out["linear_log"]["estimate"][0] == pytest.approx(-0.4, abs=1e-12)

    def test_zero_covariance_reports_zero_variance(self, capsys, tmp_path):
        path = self._aggregates_file(tmp_path, math.log(0.3), math.log(0.8), var=0.0)
        out = _run_json(capsys, ["estimate", "--aggregates", path])
        assert out["harmonic_mean"]["covariance"][0][0] == pytest.approx(0.0, abs=1e-15)
        assert out["misspecified"]["covariance"][0][0] == pytest.approx(0.0, abs=1e-12)
        assert out["linear_log"]["covariance"][0][0] == 0.0

    def test_example3_aggregates(self, capsys, tmp_path):
        path = self._aggregates_file(tmp_path, math.log(0.3), math.log(0.8))
        out = _run_json(capsys, ["estimate", "--aggregates", path])
        assert math.exp(out["misspecified"]["estimate"][0]) == pytest.approx(0.396, abs=0.005)
        assert out["wald_harmonic_mean"]["p_value"] < 0.05

    def test_lines_input(self, capsys, tmp_path, scenario_file):
        lines = tmp_path / "lines.csv"
        assert main(["simulate", "--scenario", scenario_file, "--out", str(lines)]) == 0
        out = _run_json(capsys, ["estimate", "--lines", str(lines)])
        assert "pooled_mple" in out and len(out["per_trial"]) == 2
        # uncensored pooled fit lands near the pooled limit
        assert out["pooled_mple"]["estimate"][0] == pytest.approx(-0.922, abs=0.3)
        assert out["per_trial"][0]["n"] == 400

    def test_missing_file_is_input_error(self, capsys):
        assert main(["estimate", "--aggregates", "/nonexistent.json"]) == 2

    @pytest.mark.parametrize(
        "payload",
        [
            {"trials": 5, "covariate_dist": _LAW},
            {"trials": [7, 7], "covariate_dist": _LAW},
            {"trials": [], "covariate_dist": [1, 2]},
            [1, 2],
        ],
        ids=["trials-int", "trial-int", "law-list", "top-level-list"],
    )
    def test_wrong_typed_field_is_schema_error(self, capsys, tmp_path, payload):
        path = tmp_path / "aggs.json"
        path.write_text(json.dumps(payload))
        assert main(["estimate", "--aggregates", str(path)]) == 2
        assert "wrong type" in capsys.readouterr().err

    def test_oversized_trial_id_is_input_error(self, capsys, tmp_path):
        lines = tmp_path / "lines.csv"
        huge = "x" * (csv.field_size_limit() + 1)
        lines.write_text(f"trial_id,time,event,z1\nt1,1.0,1,0.0\n{huge},1.0,1,0.0\n")
        assert main(["estimate", "--lines", str(lines)]) == 2
        assert capsys.readouterr().err.startswith("hrmix: input error: line 3: field larger")


def _law_of(z):
    n = z.shape[0]
    return _empirical_dist(
        TrialDataset(
            times=np.ones(n), events=np.ones(n), covariates=z, trial_ids=np.full(n, "t", dtype=object)
        )
    )


def _assert_same_law(law, z):
    """The empirical law must equal np.unique's; -0.0 and 0.0 are one value."""
    rows, counts = np.unique(z, axis=0, return_counts=True)
    assert np.array_equal(law.support, rows)
    assert law.probs.tobytes() == (counts / counts.sum()).tobytes()


# up to 400 rows of k = 1..3 columns with many ties, signed zeros among them
_covariate_matrices = st.integers(1, 3).flatmap(
    lambda k: arrays(
        float,
        st.tuples(st.integers(1, 400), st.just(k)),
        elements=st.sampled_from([-1.5, -0.0, 0.0, 0.1, 0.5, 2.0]),
    )
)


class TestEmpiricalLaw:
    @given(z=_covariate_matrices)
    @settings(max_examples=100, deadline=None)
    def test_matches_np_unique(self, z):
        _assert_same_law(_law_of(z), z)


class TestSimulateAndSweep:
    def test_simulate_deterministic(self, tmp_path, scenario_file):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["simulate", "--scenario", scenario_file, "--out", str(out1)]) == 0
        assert main(["simulate", "--scenario", scenario_file, "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        manifest = json.loads((tmp_path / "a.csv.manifest.json").read_text())
        assert manifest["seed"] == 20260808
        assert manifest["command"] == "simulate"

    def test_simulate_seed_override_changes_output(self, tmp_path, scenario_file):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["simulate", "--scenario", scenario_file, "--out", str(out1)])
        main(["simulate", "--scenario", scenario_file, "--seed", "7", "--out", str(out2)])
        assert out1.read_bytes() != out2.read_bytes()

    def test_sweep_thread_invariance(self, tmp_path, scenario_file):
        out1, out2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
        base = [
            "sweep",
            "--scenario",
            scenario_file,
            "--tmax-grid",
            "1,inf",
            "--replicates",
            "100",
        ]
        assert main(base + ["--threads", "1", "--out", str(out1)]) == 0
        assert main(base + ["--threads", "3", "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        rows = list(csv.DictReader(out1.open()))
        assert [r["t_max"] for r in rows] == ["1.0", "inf"]
        assert float(rows[0]["censored_fraction"]) == pytest.approx(0.51, abs=0.03)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("covariate_dist", [1, 2]),
            ("baseline", 5),
            ("censoring", 5),
            ("trial_effects", 5),
            (None, [1, 2]),
        ],
    )
    def test_wrong_typed_scenario_is_schema_error(
        self, capsys, tmp_path, example3_scenario, field, value
    ):
        config = scenario_to_json(example3_scenario)
        if field is None:
            config = value
        else:
            config[field] = value
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(config))
        assert main(["simulate", "--scenario", str(path), "--out", str(tmp_path / "x.csv")]) == 2
        assert "wrong type" in capsys.readouterr().err

    def test_sweep_rejects_bad_grid(self, tmp_path, scenario_file):
        code = main(
            [
                "sweep",
                "--scenario",
                scenario_file,
                "--tmax-grid",
                "",
                "--replicates",
                "100",
                "--out",
                str(tmp_path / "x.csv"),
            ]
        )
        assert code == 2


class TestTableAndGrid:
    def test_table_csv(self, tmp_path):
        out = tmp_path / "table.csv"
        assert main(["table", "--out", str(out)]) == 0
        rows = list(csv.DictReader(out.open()))
        assert len(rows) == 21
        cell = {(float(r["a"]), float(r["b"])): r for r in rows}[(1.0, 2.0)]
        assert float(cell["c_pl"]) == pytest.approx(1.327, abs=0.015)

    def test_grid_csv(self, tmp_path):
        out = tmp_path / "grid.csv"
        code = main(
            [
                "grid",
                "--out",
                str(out),
                "--a-min",
                "0.5",
                "--a-max",
                "1.0",
                "--b-min",
                "0.5",
                "--b-max",
                "1.0",
                "--step",
                "0.25",
            ]
        )
        assert code == 0
        rows = list(csv.DictReader(out.open()))
        assert len(rows) == 9

    def test_grid_deterministic(self, tmp_path):
        args = ["grid", "--a-min", "0.5", "--a-max", "0.7", "--b-min", "0.5", "--b-max", "0.7", "--step", "0.1"]
        out1, out2 = tmp_path / "g1.csv", tmp_path / "g2.csv"
        main(args + ["--out", str(out1)])
        main(args + ["--out", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()


class TestBreslowCommand:
    def test_small_run(self, tmp_path):
        out = tmp_path / "breslow.csv"
        code = main(
            [
                "breslow",
                "--a",
                "0.5",
                "--b",
                "1.0",
                "--p",
                "0.5",
                "--subjects",
                "4000",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        rows = list(csv.DictReader(out.open()))
        series = {r["series"] for r in rows}
        assert series == {"analytic", "empirical"}
        manifest = json.loads((tmp_path / "breslow.csv.manifest.json").read_text())
        assert manifest["config"]["c_star"] == pytest.approx(0.685, abs=0.01)

    @pytest.mark.parametrize("window", ["0", "-5"])
    def test_window_below_one_is_input_error(self, capsys, tmp_path, window):
        out = tmp_path / "breslow.csv"
        argv = ["breslow", "--a", "0.5", "--b", "1.0", "--p", "0.5", "--subjects", "4000"]
        assert main(argv + ["--window", window, "--out", str(out)]) == 2
        assert "window" in capsys.readouterr().err
        assert not out.exists()


def test_censoring_bias_script_writes_csv(tmp_path):
    # the reproduction scripts are run by no other test
    root = Path(__file__).resolve().parents[1]
    script = root / "scripts" / "reproduce_censoring_bias.py"
    args = ["--replicates", "100", "--tmax-grid", "1,inf", "--out-dir", str(tmp_path)]
    subprocess.run(
        [sys.executable, str(script), *args],
        env={**os.environ, "PYTHONPATH": str(root / "src")},
        capture_output=True,
        check=True,
    )
    with open(tmp_path / "censoring_bias_sweep.csv", newline="") as fh:
        assert len(list(csv.DictReader(fh))) == 2
