import contextlib
import csv
import hashlib
import io
import json
import math
import re
import shlex
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import hrmix
from hrmix import (
    InverseVariance,
    NonConvergenceError,
    TrialAggregate,
    TrialDataset,
    linear_hr,
    linear_log_hr,
    scenario_to_json,
    solve_cpl_binary,
)
from hrmix import cli
from hrmix.cli import _build_parser, _empirical_dist, main


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


def _exit_status(argv):
    """main's exit status, counting argparse's own rejection of a value."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


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
        # a study end of 50 or more is the uncensored limit exactly
        for h in ("50", "inf"):
            out = _run_json(
                capsys,
                ["solve", "--a", "0.3", "--b", "0.8", "--p", "0.7", "--q", "0.5", "--tmax-H", h],
            )
            assert out["c_censored"] == out["c_pl"]

    def test_subnormal_hazard_ratio(self, capsys):
        # p / a overflows in the direct harmonic mean; warnings are errors here
        out = _run_json(capsys, ["solve", "--a", "1e-320", "--b", "1", "--p", "0.5", "--q", "0.5"])
        assert 1e-320 <= out["c_hm"] <= 1.0
        assert out["c_hm"] == pytest.approx(2e-320, rel=1e-3)

    def test_invalid_input_exit_code(self, capsys):
        assert main(["solve", "--a", "-1", "--b", "1.0", "--p", "0.5", "--q", "0.5"]) == 2
        assert main(["solve", "--a", "1.0", "--b", "1.0", "--p", "1.5", "--q", "0.5"]) == 2

    def test_solver_failure_exit_code(self, capsys, monkeypatch):
        import hrmix.cli as cli_mod

        def boom(*args, **kwargs):
            raise NonConvergenceError("forced failure")

        monkeypatch.setattr(cli_mod.estimators, "solve_cpl_binary", boom)
        assert main(["solve", "--a", "0.5", "--b", "1.0", "--p", "0.5", "--q", "0.5"]) == 3

    @pytest.mark.parametrize(
        "flag, value, error",
        [
            *[
                (f, v, "hazard ratios must be positive and finite")
                for f in ("--a", "--b")
                for v in ("0", "-1", "nan", "inf")
            ],
            *[("--p", v, "p must lie in (0, 1)") for v in ("0", "-0.5", "nan", "inf", "1")],
            *[("--q", v, "q must lie in (0, 1)") for v in ("0", "-0.5", "nan", "inf", "1")],
            *[("--tmax-H", v, "H must be positive") for v in ("0", "-1", "nan", "-inf")],
        ],
    )
    def test_out_of_domain_exits_2(self, capsys, flag, value, error):
        argv = ["solve", "--a=0.5", "--b=1.0", "--p=0.5", "--q=0.5", "--tmax-H=1.0"]
        assert main(argv + [f"{flag}={value}"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"hrmix: input error: {error}\n"


# README's domain table for solve: hazard ratios positive and finite, p and q
# in (0, 1), --tmax-H positive (inf included) or absent
_legal_hr = st.floats(0.05, 20.0)
_legal_unit = st.floats(0.001, 0.999)
_legal_H = st.one_of(st.none(), st.floats(0.01, 100.0), st.sampled_from([50.0, math.inf]))


_ILLEGAL = [math.nan, -math.inf, 0.0, -0.0, -1.0]


def _or_illegal(legal, *illegal):
    return st.one_of(legal, st.sampled_from([*_ILLEGAL, *illegal]))


@st.composite
def _solve_flags(draw):
    """Legal solve flags, then up to two of them set to an illegal value; a
    broken H is passed even where the legal draw left ``--tmax-H`` out."""
    flags = {
        "a": draw(_legal_hr),
        "b": draw(_legal_hr),
        "p": draw(_legal_unit),
        "q": draw(_legal_unit),
        "H": draw(_legal_H),
    }
    for flag in draw(st.lists(st.sampled_from("abpqH"), max_size=2, unique=True)):
        # an infinite study end is legal, and p and q must stay below 1
        extra = [] if flag == "H" else [math.inf] + ([1.0, 1.5] if flag in "pq" else [])
        flags[flag] = draw(st.sampled_from([*_ILLEGAL, *extra]))
    return flags


@given(flags=_solve_flags())
@settings(max_examples=100, deadline=None)
def test_solve_exits_2_exactly_outside_its_domain(flags):
    a, b, p, q, H = (flags[f] for f in "abpqH")
    argv = ["solve", f"--a={a!r}", f"--b={b!r}", f"--p={p!r}", f"--q={q!r}"]
    if H is not None:
        argv.append(f"--tmax-H={H!r}")
    legal = (
        all(math.isfinite(v) and v > 0 for v in (a, b))
        and all(0 < v < 1 for v in (p, q))
        and (H is None or H > 0)
    )
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code == (0 if legal else 2), err.getvalue()
    if legal:
        assert math.isfinite(json.loads(out.getvalue())["c_pl"])
    else:
        assert out.getvalue() == ""


def _assert_rows_exactly_inside_domain(argv, legal, n_rows):
    """Exit 0 with ``n_rows`` finite rows inside the domain, else exit 2 and no file."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out.csv"
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main([*argv, f"--out={out}"])
        assert code == (0 if legal else 2), err.getvalue()
        if not legal:
            assert list(Path(tmp).iterdir()) == []
            return
        with out.open(newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))[1:]
        assert len(rows) == n_rows
        assert all(math.isfinite(float(x)) for row in rows for x in row)


_p_or_q = _or_illegal(_legal_unit, math.inf, 1.0, 1.5)


@given(p=_p_or_q, q=_p_or_q)
@settings(max_examples=30, deadline=None)
def test_table_exits_2_exactly_outside_its_domain(p, q):
    legal = 0 < p < 1 and 0 < q < 1
    _assert_rows_exactly_inside_domain(["table", f"--p={p!r}", f"--q={q!r}"], legal, 21)


@st.composite
def _grid_flags(draw):
    """Legal grid flags, then up to two of them set to an illegal value.

    Range ends are multiples of 1/16 and the steps are coarse, so every grid
    value is exact and a legal grid has at most 5 x 5 cells.
    """
    step = draw(st.sampled_from([0.25, 0.5, 0.75]))
    flags = {"--step": step, "--p": draw(_legal_unit), "--q": draw(_legal_unit)}
    for axis in "ab":
        low = draw(st.sampled_from([0.25, 0.5, 1.0]))
        # the maximum sits k steps above the minimum; k < 0 puts it below
        k = draw(st.sampled_from([-1.0, -0.25, 0.0, 1.0, 1.5, 1.75, 2.0, 4.0]))
        flags[f"--{axis}-min"], flags[f"--{axis}-max"] = low, low + k * step
    for flag in draw(st.lists(st.sampled_from(sorted(flags)), max_size=2, unique=True)):
        unit = [1.0, 1.5] if flag in ("--p", "--q") else []
        flags[flag] = draw(st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, -1.0, *unit]))
    return flags


@given(flags=_grid_flags())
@settings(max_examples=100, deadline=None)
def test_grid_exits_2_exactly_outside_its_domain(flags):
    step = flags["--step"]
    a_min, a_max, b_min, b_max = (flags[f] for f in ("--a-min", "--a-max", "--b-min", "--b-max"))
    legal = (
        all(0 < flags[f] < 1 for f in ("--p", "--q"))
        and math.isfinite(step)
        and step > 0
        and all(math.isfinite(v) for v in (a_min, a_max, b_min, b_max))
        and 0 < a_min <= a_max
        and 0 < b_min <= b_max
    )
    n_rows = 0
    if legal:  # every value is exact, so floor counts the values up to each maximum
        n_rows = (math.floor((a_max - a_min) / step) + 1) * (math.floor((b_max - b_min) / step) + 1)
    argv = ["grid", *(f"{flag}={value!r}" for flag, value in flags.items())]
    _assert_rows_exactly_inside_domain(argv, legal, n_rows)


_LAW = {"support": [[0.0], [1.0]], "probs": [0.5, 0.5]}

_SEED = (st.integers(0, 2**64 - 1), ["-1", str(2**64), "1.5", "nan"])
_HR = (st.floats(0.2, 3.0), ["0", "-1", "nan", "inf"])
_ENDS = st.sampled_from(["0.5", "1", "2.5", "inf"])
_STUDY_ENDS = st.lists(_ENDS, min_size=1, max_size=3, unique=True).map(",".join)
# per command: each flag's legal values and values outside its domain
_RUN_FLAGS = {
    "estimate": {
        "--null": (st.floats(-3.0, 3.0), ["nan", "inf", "-inf"]),
        "--weights": (st.sampled_from(list(cli._WEIGHTS)), ["equal", ""]),
    },
    "simulate": {
        "--replicate": (st.integers(0, 2**64 - 1), ["-1", str(2**64), "2.5"]),
        "--seed": _SEED,
    },
    "sweep": {
        "--tmax-grid": (_STUDY_ENDS, ["", "0", "-1", "nan", "1,1.0", "inf,none"]),
        "--replicates": (st.integers(100, 110), ["99", "0", "-1", "1e3"]),
        "--threads": (st.integers(-2, 4), ["x", "1.5"]),
        "--seed": _SEED,
    },
    "breslow": {
        "--a": _HR,
        "--b": _HR,
        "--p": (st.floats(0.05, 0.95), ["0", "1", "-0.5", "nan"]),
        "--subjects": (st.integers(400, 1500), ["3", "0", "-5", "nan"]),
        "--seed": _SEED,
        "--window": (st.integers(5, 40), ["0", "-1", "1000000"]),
        "--t-max": (st.floats(0.5, 3.0), ["0", "-1", "nan", "inf"]),
        "--points": (st.integers(1, 8), ["0", "-1", "2.5"]),
    },
}
# estimate's keys from aggregates; patient lines add pooled_mple and per_trial
_ESTIMATE_KEYS = {
    "weights", "linear_log", "linear_hr", "misspecified", "harmonic_mean", "wald_harmonic_mean"
}


@st.composite
def _run(draw, command):
    """Small legal flags for ``command``, then up to two of them set to an
    illegal value; returns the flags and how many were broken."""
    table = _RUN_FLAGS[command]
    flags = {flag: draw(legal) for flag, (legal, _) in table.items()}
    broken = draw(st.lists(st.sampled_from(sorted(table)), max_size=2, unique=True))
    for flag in broken:
        flags[flag] = draw(st.sampled_from(table[flag][1]))
    return flags, len(broken)


def _csv_rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


@pytest.mark.parametrize("command", sorted(_RUN_FLAGS))
@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_commands_exit_0_2_or_3_and_keep_their_promise(command, data):
    """No traceback; exit 2 only for a broken flag, and then no output file;
    exit 0 with the promised JSON keys or rows."""
    flags, n_broken = data.draw(_run(command))
    # every command but breslow pools 2 to 4 trials
    sizes = data.draw(st.lists(st.integers(8, 30), min_size=2, max_size=4))
    trials = list(zip(sizes, (-1.2, -0.2, -0.7, 0.3)))
    with tempfile.TemporaryDirectory() as tmp:
        inputs, outputs = Path(tmp) / "in", Path(tmp) / "out"
        inputs.mkdir()
        outputs.mkdir()
        scenario = {
            "trial_effects": [[beta] for _, beta in trials],
            "sizes": sizes,
            "covariate_dist": _LAW,
        }
        (inputs / "scenario.json").write_text(json.dumps(scenario))
        argv = [command, *(f"{flag}={value}" for flag, value in flags.items())]
        out = outputs / "out.csv"
        lines = command == "estimate" and data.draw(st.booleans())
        if lines:
            spec = hrmix.scenario_from_json(inputs / "scenario.json")
            hrmix.write_patient_csv(hrmix.simulate_scenario(spec), inputs / "lines.csv")
            argv += ["--lines", str(inputs / "lines.csv")]
        elif command == "estimate":
            aggs = {
                "trials": [{"n": n, "beta_hat": [beta], "covariance": [[0.05]]} for n, beta in trials],
                "covariate_dist": _LAW,
            }
            (inputs / "aggs.json").write_text(json.dumps(aggs))
            argv += ["--aggregates", str(inputs / "aggs.json")]
        else:
            argv += [f"--out={out}"]
            if command != "breslow":
                argv += ["--scenario", str(inputs / "scenario.json")]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = _exit_status(argv)
        assert code in (0, 2, 3) and "Traceback" not in stderr.getvalue()
        if not n_broken:
            assert code != 2, stderr.getvalue()
        if code != 0:
            assert list(outputs.iterdir()) == []
            return
        if command == "estimate":
            keys = _ESTIMATE_KEYS | ({"pooled_mple", "per_trial"} if lines else set())
            assert json.loads(stdout.getvalue()).keys() == keys
            return
        assert json.loads(Path(f"{out}.manifest.json").read_text())["command"] == command
        rows = _csv_rows(out)
        if command == "simulate":
            assert len(rows) == sum(sizes)
        elif command == "sweep":
            ends = {float(v) for v in flags["--tmax-grid"].split(",")}
            assert [float(r["t_max"]) for r in rows] == sorted(ends)
        else:
            series = [r["series"] for r in rows]
            assert series.count("analytic") == flags["--points"] and series.count("empirical") >= 1


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

    def test_three_trials_report_every_effect(self, capsys, tmp_path):
        path = self._aggregates_file(tmp_path, math.log(0.3), math.log(0.8))
        payload = json.loads(Path(path).read_text())
        payload["trials"].append({"n": 250, "beta_hat": [-0.6], "covariance": [[0.03]]})
        Path(path).write_text(json.dumps(payload))
        out = _run_json(capsys, ["estimate", "--aggregates", path])
        assert out.keys() == _ESTIMATE_KEYS
        for key in ("misspecified", "harmonic_mean"):
            assert out[key]["mixing_p"] == 400 / 820
        # the harmonic mean of the three hazard ratios, weighted by size share
        shares = (400 / 820, 170 / 820, 250 / 820)
        inverse = sum(w / hr for w, hr in zip(shares, (0.3, 0.8, math.exp(-0.6))))
        assert out["harmonic_mean"]["estimate"][0] == pytest.approx(-math.log(inverse), abs=1e-12)

    def test_pooled_limit_out_of_range_is_solver_error(self, capsys, tmp_path):
        # e^{300 z} is finite at z = 1, where the linear combiners take it,
        # and overflows at the law's support point z = 3
        path = self._aggregates_file(tmp_path, 300.0, 0.1)
        payload = json.loads(Path(path).read_text())
        payload["covariate_dist"] = {"support": [[0.0], [3.0]], "probs": [0.5, 0.5]}
        Path(path).write_text(json.dumps(payload))
        assert main(["estimate", "--aggregates", path]) == 3
        assert "out of the fixed rule's range" in capsys.readouterr().err

    def test_zero_variance_inverse_weighting_is_input_error(self, capsys, tmp_path):
        path = self._aggregates_file(tmp_path, math.log(0.3), math.log(0.8), var=0.0)
        assert main(["estimate", "--aggregates", path, "--weights=inverse-variance"]) == 2
        assert capsys.readouterr() == (
            "",
            "hrmix: input error: inverse-variance weighting needs strictly positive variances\n",
        )

    def test_missing_file_is_input_error(self, capsys):
        assert main(["estimate", "--aggregates", "/nonexistent.json"]) == 2

    def test_inverse_variance_weights(self, capsys, tmp_path):
        path = self._aggregates_file(tmp_path, math.log(0.3), math.log(0.8))
        out = _run_json(capsys, ["estimate", "--aggregates", path, "--weights=inverse-variance"])
        aggs = [
            TrialAggregate(beta_hat=[math.log(0.3)], covariance=[[0.02]], size=400),
            TrialAggregate(beta_hat=[math.log(0.8)], covariance=[[0.02]], size=170),
        ]
        for key, effect in (
            ("linear_log", linear_log_hr(aggs, InverseVariance())),
            ("linear_hr", linear_hr(aggs, InverseVariance(), z=1.0)),
        ):
            assert out[key]["estimate"] == effect.estimate.tolist()
            assert out[key]["covariance"] == effect.covariance.tolist()
        assert out["weights"] == "inverse-variance"

    def test_default_weights_are_size(self, capsys, tmp_path):
        path = self._aggregates_file(tmp_path, math.log(0.3), math.log(0.8))
        default = _run_json(capsys, ["estimate", "--aggregates", path])
        assert default == _run_json(capsys, ["estimate", "--aggregates", path, "--weights=size"])
        assert default != _run_json(
            capsys, ["estimate", "--aggregates", path, "--weights=inverse-variance"]
        )

    def test_unknown_weights_exit_2(self, capsys, tmp_path):
        path = self._aggregates_file(tmp_path, math.log(0.3), math.log(0.8))
        assert _exit_status(["estimate", "--aggregates", path, "--weights=equal"]) == 2
        assert "invalid choice: 'equal'" in capsys.readouterr().err

    def test_uncertified_root_exits_3(self, capsys, tmp_path, uncertified_rule):
        path = self._aggregates_file(tmp_path, math.log(0.3), math.log(0.8))
        assert main(["estimate", "--aggregates", path]) == 3
        assert capsys.readouterr() == (
            "",
            "hrmix: the fixed rule cannot certify the pooled-limit root\n",
        )

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

    @pytest.mark.parametrize(
        "trial, error",
        [
            ({"covariance": [[1.0, 0.0], [0.0, 1.0]]}, "covariance must be 1x1"),
            ({"beta_hat": [0.1, 0.2], "covariance": [[1.0, 0.0], [0.0, 1.0]]}, "dimension 1"),
            ({"n": 400.5}, "n must be an integer"),
            ({"n": "400"}, "n must be an integer"),
        ],
        ids=["covariance-2x2", "beta-2d", "n-fraction", "n-string"],
    )
    def test_schema_error_exits_2(self, capsys, tmp_path, trial, error):
        path = self._aggregates_file(tmp_path, -0.4, -0.4)
        payload = json.loads(Path(path).read_text())
        payload["trials"][0].update(trial)
        Path(path).write_text(json.dumps(payload))
        assert main(["estimate", "--aggregates", path]) == 2
        assert error in capsys.readouterr().err

    @pytest.mark.parametrize("null", ["nan", "inf"])
    def test_non_finite_null_is_input_error(self, capsys, tmp_path, null):
        path = self._aggregates_file(tmp_path, -0.4, -0.4)
        assert main(["estimate", "--aggregates", path, "--null", null]) == 2
        assert "--null must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "law, error",
        [
            ({"support": [[0.0], [1.0]], "probs": [math.nan, 0.5]}, "probabilities must be finite"),
            ({"support": [[0.0], [math.nan]], "probs": [0.5, 0.5]}, "support points must be finite"),
            ({"support": [[0.0], [math.inf]], "probs": [0.5, 0.5]}, "support points must be finite"),
        ],
        ids=["probs-nan", "support-nan", "support-inf"],
    )
    def test_non_finite_law_is_input_error(self, capsys, tmp_path, law, error):
        path = self._aggregates_file(tmp_path, -0.4, -0.4)
        payload = json.loads(Path(path).read_text())
        payload["covariate_dist"] = law
        Path(path).write_text(json.dumps(payload))
        assert main(["estimate", "--aggregates", path]) == 2
        assert capsys.readouterr() == ("", f"hrmix: input error: {error}\n")

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

    @pytest.mark.parametrize(
        "field, value",
        [("sizes", [400.5, 170]), ("sizes", [True, 170]), ("seed", 1.5), ("seed", "7")],
        ids=["size-fraction", "size-bool", "seed-fraction", "seed-string"],
    )
    def test_non_integral_scenario_field_is_schema_error(
        self, capsys, tmp_path, example3_scenario, field, value
    ):
        config = scenario_to_json(example3_scenario)
        config[field] = value
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(config))
        assert main(["simulate", "--scenario", str(path), "--out", str(tmp_path / "x.csv")]) == 2
        assert f"{field} must be an integer" in capsys.readouterr().err

    def test_scenario_dimension_mismatch_is_input_error(self, capsys, tmp_path, example3_scenario):
        config = scenario_to_json(example3_scenario)
        config["sizes"] = [400, 170, 10]
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(config))
        assert main(["simulate", "--scenario", str(path), "--out", str(tmp_path / "x.csv")]) == 2
        assert "one size per trial" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "field, value, error",
        [
            ("trial_effects", [[math.nan], [-0.2]], "trial effects must be finite"),
            ("trial_effects", [[-1.2], [math.inf]], "trial effects must be finite"),
            ("trial_effects", [[-math.inf], [-0.2]], "trial effects must be finite"),
            (
                "covariate_dist",
                {"support": [[0.0], [math.inf]], "probs": [0.5, 0.5]},
                "support points must be finite",
            ),
            (
                "covariate_dist",
                {"support": [[0.0], [1.0]], "probs": [math.nan, 0.5]},
                "probabilities must be finite",
            ),
        ],
        ids=["effect-nan", "effect-inf", "effect-minus-inf", "support-inf", "probs-nan"],
    )
    @pytest.mark.parametrize("command", ["sweep", "simulate"])
    def test_non_finite_scenario_is_input_error(
        self, capsys, tmp_path, example3_scenario, command, field, value, error
    ):
        config = scenario_to_json(example3_scenario)
        config[field] = value
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "x.csv"
        argv = [command, "--scenario", str(path), "--out", str(out)]
        if command == "sweep":
            argv += ["--tmax-grid", "1,inf", "--replicates", "100"]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"hrmix: input error: {error}\n"
        assert not out.exists()

    @pytest.mark.parametrize("grid", ["nan,inf", "1,nan"])
    def test_sweep_rejects_non_positive_study_end(self, capsys, tmp_path, scenario_file, grid):
        out = tmp_path / "x.csv"
        argv = ["sweep", "--scenario", scenario_file, "--tmax-grid", grid, "--replicates", "100"]
        assert main(argv + ["--out", str(out)]) == 2
        assert "t_max values must be positive" in capsys.readouterr().err
        assert not out.exists()

    def test_sweep_rejects_repeated_study_end(self, capsys, tmp_path, scenario_file):
        # inf - inf is NaN, so a difference test would let two infinities pass
        for grid in ("1,1.0", "inf,none"):
            argv = ["sweep", "--scenario", scenario_file, f"--tmax-grid={grid}"]
            assert main(argv + ["--replicates=100", f"--out={tmp_path / 'x.csv'}"]) == 2
            assert "distinct values" in capsys.readouterr().err
            assert not (tmp_path / "x.csv").exists()

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

    @pytest.mark.parametrize(
        "field, value",
        [
            ("baseline", {"kind": "weibull", "shape": 2.0, "scale": 1.5}),
            ("baseline", {"kind": "weibull", "shape": 2.0}),
            ("censoring", {"kind": "exponential", "rate": 0.7}),
            ("censoring", {"kind": "administrative", "t_max": 3.0}),
        ],
        ids=["weibull", "weibull-default-scale", "exponential", "administrative"],
    )
    def test_simulate_every_baseline_and_censoring_kind(
        self, tmp_path, scenario_file, example3_scenario, field, value
    ):
        config = scenario_to_json(example3_scenario) | {field: value}
        path = tmp_path / "kind.json"  # scenario_file is the identity-baseline, uncensored one
        path.write_text(json.dumps(config))
        outs = [tmp_path / "a.csv", tmp_path / "b.csv", tmp_path / "identity.csv"]
        assert main(["simulate", "--scenario", str(path), "--out", str(outs[0])]) == 0
        assert main(["simulate", "--scenario", str(path), "--out", str(outs[1])]) == 0
        assert main(["simulate", "--scenario", scenario_file, "--out", str(outs[2])]) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes() != outs[2].read_bytes()
        rows = list(csv.DictReader(outs[0].open()))
        times = np.array([float(r["time"]) for r in rows])
        events = np.array([int(r["event"]) for r in rows])
        assert (0 < events.sum() < events.size) == (field == "censoring")
        if "t_max" in value:
            assert np.all(np.where(events == 1, times < 3.0, times == 3.0))

    @pytest.mark.parametrize(
        "field, value, error",
        [
            ("baseline", {"kind": "weibull", "shape": math.inf}, "shape and scale"),
            ("baseline", {"kind": "weibull", "shape": 2.0, "scale": math.inf}, "shape and scale"),
            ("censoring", {"kind": "exponential", "rate": math.inf}, "rate"),
        ],
        ids=["weibull-shape", "weibull-scale", "exponential-rate"],
    )
    def test_infinite_simulator_parameter_exits_2(
        self, capsys, tmp_path, example3_scenario, field, value, error
    ):
        # json writes and reads math.inf as Infinity
        config = scenario_to_json(example3_scenario) | {field: value}
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "x.csv"
        assert main(["simulate", "--scenario", str(path), "--out", str(out)]) == 2
        message = f"hrmix: input error: {error} must be positive and finite\n"
        assert capsys.readouterr().err == message
        assert not out.exists()

    @pytest.mark.parametrize("field", ["baseline", "censoring"])
    def test_unknown_scenario_kind_exits_2(self, capsys, tmp_path, example3_scenario, field):
        config = scenario_to_json(example3_scenario)
        config[field] = {"kind": "gompertz"}
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "x.csv"
        assert main(["simulate", "--scenario", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"hrmix: input error: unknown {field} kind 'gompertz'\n"
        assert not out.exists()


def _manifest_bytes(command, config):
    """The manifest the CLI must write for ``config``, built here from scratch."""
    payload = {
        "command": command,
        "config": config,
        "seed": config.get("seed"),
        "package": {"name": "hrmix", "version": hrmix.__version__},
        "library_versions": {"numpy": np.__version__},
        "config_sha256": hashlib.sha256(json.dumps(config, sort_keys=True).encode()).hexdigest(),
    }
    return (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode()


class TestManifests:
    """Each manifest's bytes, pinned against the configuration it must record."""

    def _assert_manifest(self, tmp_path, argv, config):
        out = tmp_path / "out.csv"
        assert main([*argv, "--out", str(out)]) == 0
        manifest = tmp_path / "out.csv.manifest.json"
        assert manifest.read_bytes() == _manifest_bytes(argv[0], config)

    def test_table(self, tmp_path):
        self._assert_manifest(tmp_path, ["table", "--q=0.25"], {"p": 0.5, "q": 0.25})

    def test_grid(self, tmp_path):
        argv = ["grid", "--a-min=0.5", "--a-max=1", "--b-max=0.7", "--step=0.25", "--p=0.4"]
        config = {"a_min": 0.5, "a_max": 1.0, "b_min": 0.2, "b_max": 0.7, "step": 0.25}
        self._assert_manifest(tmp_path, argv, config | {"p": 0.4, "q": 0.5})

    @pytest.mark.parametrize(
        "flags, replicate, seed", [([], 0, 20260808), (["--seed=7", "--replicate=3"], 3, 7)]
    )
    def test_simulate(self, tmp_path, scenario_file, example3_scenario, flags, replicate, seed):
        scenario = scenario_to_json(replace(example3_scenario, seed=seed))
        config = {"scenario": scenario, "replicate": replicate, "seed": seed}
        self._assert_manifest(tmp_path, ["simulate", "--scenario", scenario_file, *flags], config)

    @pytest.mark.parametrize("threads", ["1", "4"])
    @pytest.mark.parametrize("flags, seed", [([], 20260808), (["--seed=5"], 5)])
    def test_sweep(self, tmp_path, scenario_file, example3_scenario, threads, flags, seed):
        argv = ["sweep", "--scenario", scenario_file, "--tmax-grid=inf,1", "--replicates=100"]
        config = {
            "scenario": scenario_to_json(replace(example3_scenario, seed=seed)),
            "tmax_grid": [1.0, math.inf],
            "replicates": 100,
            "seed": seed,
        }
        self._assert_manifest(tmp_path, [*argv, f"--threads={threads}", *flags], config)

    def test_sweep_study_end_order_leaves_the_manifest_alone(self, tmp_path, scenario_file):
        manifests = []
        for grid in ("1,inf", "inf,1"):
            out = tmp_path / f"{grid}.csv"
            argv = ["sweep", "--scenario", scenario_file, f"--tmax-grid={grid}", "--replicates=100"]
            assert main([*argv, "--out", str(out)]) == 0
            manifests.append(Path(f"{out}.manifest.json").read_bytes())
        assert manifests[0] == manifests[1]

    def test_breslow(self, tmp_path):
        argv = ["breslow", "--a=0.5", "--b=1", "--p=0.5", "--subjects=4000", "--points=5"]
        config = {"a": 0.5, "b": 1.0, "p": 0.5, "c_star": solve_cpl_binary(0.5, 1.0, 0.5, 0.5)}
        config |= {"t_max": 2.0, "points": 5, "subjects": 4000, "window": 200, "seed": 0}
        self._assert_manifest(tmp_path, argv, config)


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

    @pytest.mark.parametrize(
        "flag, value, error",
        [
            ("--step", "nan", "resolution must be positive and finite"),
            ("--step", "inf", "resolution must be positive and finite"),
            ("--step", "0", "resolution must be positive and finite"),
            ("--a-min", "nan", "grid ranges must be finite"),
            ("--b-max", "inf", "grid ranges must be finite"),
            ("--a-min", "3.5", "minimum at or below its maximum"),
        ],
        ids=["step-nan", "step-inf", "step-0", "a-min-nan", "b-max-inf", "a-min-above-max"],
    )
    def test_grid_rejects_bad_flag(self, capsys, tmp_path, flag, value, error):
        out = tmp_path / "grid.csv"
        assert main(["grid", flag, value, "--out", str(out)]) == 2
        assert error in capsys.readouterr().err
        assert not out.exists()

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


    @pytest.mark.parametrize(
        "flag, value, error",
        [
            ("--t-max", "-1", "--t-max must be positive and finite"),
            ("--t-max", "nan", "--t-max must be positive and finite"),
            ("--t-max", "inf", "--t-max must be positive and finite"),
            ("--points", "0", "--points must be at least 1"),
            ("--subjects", "0", "n_subjects must be at least 4"),
            ("--subjects", "-5", "n_subjects must be at least 4"),
            ("--window", "100000", "window 100000 exceeds the 4000 event times"),
        ],
        ids=[
            "t-max-negative",
            "t-max-nan",
            "t-max-inf",
            "points-0",
            "subjects-0",
            "subjects-negative",
            "window-above-events",
        ],
    )
    def test_bad_flag_is_input_error(self, capsys, tmp_path, flag, value, error):
        out = tmp_path / "breslow.csv"
        argv = ["breslow", "--a", "0.5", "--b", "1.0", "--p", "0.5", "--subjects", "4000"]
        assert main(argv + [flag, value, "--out", str(out)]) == 2
        assert error in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "flag, value",
        [
            *[(f, v) for f in ("--a", "--b", "--t-max") for v in ("0", "-1", "nan", "inf")],
            *[("--p", v) for v in ("0", "-0.5", "nan", "inf", "1")],
            *[("--subjects", v) for v in ("0", "-5", "1", "nan", "inf")],
            *[("--seed", v) for v in ("-1", str(2**64), "nan", "inf")],
            *[(f, v) for f in ("--window", "--points") for v in ("0", "-1", "nan", "inf")],
        ],
    )
    def test_out_of_domain_exits_2(self, tmp_path, flag, value):
        out = tmp_path / "breslow.csv"
        argv = ["breslow", "--a=0.5", "--b=1.0", "--p=0.5", "--subjects=4000", f"--out={out}"]
        assert _exit_status(argv + [f"{flag}={value}"]) == 2
        assert list(tmp_path.iterdir()) == []

    def test_p_message_names_p_alone(self, capsys, tmp_path):
        # breslow has no --q, so its message must not name one
        argv = ["breslow", "--a=0.5", "--b=1.0", "--p=0", f"--out={tmp_path / 'b.csv'}"]
        assert main(argv) == 2
        assert capsys.readouterr().err == "hrmix: input error: p must lie in (0, 1)\n"


def _readme_commands():
    """Every ``hrmix`` command in README's ``sh`` blocks, as argv lists."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    commands = []
    for block in re.findall(r"^```sh\n(.*?)^```", text, flags=re.M | re.S):
        for line in block.replace("\\\n", " ").splitlines():
            words = shlex.split(line, comments=True)
            if words[:1] == ["hrmix"]:
                commands.append(words[1:])
    return commands


def test_readme_commands_parse():
    commands = _readme_commands()
    assert len(commands) >= 10
    parser = _build_parser()
    for argv in commands:
        try:
            parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"README command does not parse: hrmix {shlex.join(argv)}")
