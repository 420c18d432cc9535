"""The three benchmark workloads: their inputs, one pass, and its checks.

Each workload runs in-process through ``hrmix.cli.main``, as a user would
run the command line:

* ``grid``  - ``hrmix table`` then ``hrmix grid --step 0.05``.  All the work
  is the binary pooled limit (Brent over adaptive GK15 quadrature) with no
  ``data`` or ``cox`` work, so a Cox change should read as no change here.
* ``sweep`` - ``hrmix sweep`` on the Example-3 scenario: thousands of small
  Cox fits, the binary plug-in and the simulator.
* ``lines`` - ``hrmix estimate --lines`` over nine patient-line files of
  570, 5.7k and 57k subjects under three covariate laws: the only workload
  that runs the general Newton solve, with a few large Cox fits.

Inputs depend on ``input_set = seed % N_INPUT_SETS``.  The patient-line files
are drawn by this module's own numpy generator, not by ``hrmix simulate``, so
a change to ``hrmix.data`` cannot alter them.  The grid has no random input.
Every pass is compared with outputs recorded at commit 3ac9cef under
``reference/`` (written by ``make_reference.py``).
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

N_INPUT_SETS = 16
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# Example 3: hazard ratios 0.3 and 0.8, sizes 400 and 170, Bernoulli(0.5) arm.
SWEEP_BASE_SEED = 20260808
SWEEP_REPLICATES = 200
SWEEP_TMAX_GRID = "1,2,4,7,10,inf"

GRID_STEP = 0.05
GRID_P = 0.5

LINES_SIZES = (570, 5_700, 57_000)
LINES_LAWS = ("arm", "stratum", "continuous")
LINES_SHARE_TRIAL1 = 0.7
LINES_CENSORED_SHARE = 0.3
# log hazard ratios (trial 1, trial 2) per law; the arm effect is Example 3's
LINES_EFFECTS = {
    "arm": ([math.log(0.3)], [math.log(0.8)]),
    "stratum": ([math.log(0.3), 0.4], [math.log(0.8), 0.2]),
    "continuous": ([math.log(0.3), 0.3], [math.log(0.8), 0.1]),
}
LINES_SEED_TAG = 0x11E5
LINES_WRITE_ROWS = 4096

# Tolerances against the reference outputs.  They sit far above the
# solvers' own accuracy (quadrature rel 1e-10, Brent residual 1e-9, Cox
# score 1e-10), so a faithful re-implementation passes, and far below any
# difference a reader of the outputs would notice.
RTOL = 1e-7
ATOL = 1e-10
# The plug-in covariance comes from nested finite differences today; an
# analytic replacement is expected to agree to about 1e-6 relative.
RTOL_PLUGIN_COV = 1e-5
# Proposition 3 orderings are non-strict: they are equalities when a = b.
ORDER_SLACK = 1e-9
# The printed Table 1 carries about 0.01 of numerical noise.
PRINTED_TOL = 0.015
PRINTED_TABLE = {
    (0.5, 0.5): (0.5, 0.5, 0.5, 0.5),
    (0.5, 1.0): (0.662, 0.682, 0.705, 0.750),
    (0.5, 1.5): (0.741, 0.781, 0.857, 0.992),
    (0.5, 2.0): (0.792, 0.848, 0.994, 1.248),
    (0.5, 2.5): (0.823, 0.892, 1.107, 1.490),
    (0.5, 3.0): (0.847, 0.925, 1.216, 1.747),
    (1.0, 1.0): (1.0, 1.0, 1.0, 1.0),
    (1.0, 1.5): (1.202, 1.198, 1.225, 1.248),
    (1.0, 2.0): (1.340, 1.327, 1.420, 1.505),
    (1.0, 2.5): (1.433, 1.409, 1.582, 1.747),
    (1.0, 3.0): (1.507, 1.471, 1.738, 2.003),
    (2.0, 2.0): (2.0, 2.0, 2.0, 2.0),
    (2.0, 2.5): (2.219, 2.212, 2.232, 2.245),
    (2.0, 3.0): (2.402, 2.375, 2.452, 2.502),
}


def close(x: float, ref: float, rtol: float = RTOL, atol: float = ATOL) -> bool:
    return abs(x - ref) <= atol + rtol * abs(ref)


@dataclass
class Command:
    """One CLI invocation within a pass.

    ``ops`` is how many operations it attempts (cells, replicate x t_max
    points, files) and ``items`` how many work items it completes.
    """

    key: str
    argv: list
    out: Path | None
    ops: int
    items: int


@dataclass
class CommandResult:
    code: int
    stdout: str
    output: str | None
    error: str | None

    def text(self) -> str:
        """Everything the command produced, for exact comparisons."""
        return f"{self.code}\n{self.stdout}\n{self.output}"


def run_command(cli, cmd: Command) -> tuple[CommandResult, float]:
    """Run one command through ``cli.main``; return its result and wall time.

    An exception is a failed operation, not a crash of the benchmark.
    """
    buf = io.StringIO()
    error = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            code = cli.main(cmd.argv)
    except Exception:  # noqa: BLE001 - the pass reports it as failed operations
        code = -1
        error = traceback.format_exc()
    elapsed = time.perf_counter() - start
    output = None
    if cmd.out is not None and code == 0 and cmd.out.exists():
        output = cmd.out.read_text(encoding="utf-8")
    return CommandResult(code, buf.getvalue(), output, error), elapsed


class Workload:
    """Inputs, commands and checks of one workload at one input set."""

    name = ""

    def __init__(self, input_set: int):
        self.input_set = input_set

    def prepare(self, work_dir: Path) -> None:
        """Build the inputs; this is the workload's share of set-up time."""
        self.work_dir = work_dir

    def commands(self) -> list:
        raise NotImplementedError

    def reference_of(self, cmd: Command, res: CommandResult):
        """The JSON-able record of a command's output that later passes must match."""
        raise NotImplementedError

    def failures(self, cmd: Command, res: CommandResult, ref) -> tuple[int, int]:
        """(attempted, failed) operations of a successful command against ``ref``."""
        raise NotImplementedError

    def check(self, cmd: Command, res: CommandResult, reference: dict) -> tuple[int, int]:
        if res.code != 0 or cmd.key not in reference:
            return cmd.ops, cmd.ops
        return self.failures(cmd, res, reference[cmd.key])

    def reference_key(self) -> str:
        return str(self.input_set)

    def load_reference(self) -> dict:
        obj = json.loads((REFERENCE_DIR / f"{self.name}.json").read_text(encoding="utf-8"))
        return obj["input_sets"].get(self.reference_key(), {})


# ---------------------------------------------------------------------------
# grid
# ---------------------------------------------------------------------------


def _grid_cell_ok(row: dict, ref: tuple, printed) -> bool:
    a, b = float(row["a"]), float(row["b"])
    v = {k: float(row[k]) for k in row if k not in ("a", "b")}
    p = GRID_P
    ok = close(v["c_hm"], ref[0]) and close(v["c_pl"], ref[1])
    ok = ok and close(v["exp_theta_l"], a**p * b ** (1 - p))
    ok = ok and close(v["c_l"], p * a + (1 - p) * b)
    pct = {
        "pct_hm_vs_pl": (v["c_hm"], v["c_pl"]),
        "pct_expl_vs_pl": (v["exp_theta_l"], v["c_pl"]),
        "pct_expl_vs_hm": (v["exp_theta_l"], v["c_hm"]),
    }
    ok = ok and all(
        close(v[k], 100.0 * (x - base) / base, atol=1e-8) for k, (x, base) in pct.items()
    )
    # Proposition 3: min <= c_hm <= exp(theta_l) <= c_l <= max, min <= c_pl <= c_l
    lo, hi, s = min(a, b), max(a, b), ORDER_SLACK
    ok = ok and lo - s <= v["c_hm"] <= v["exp_theta_l"] + s
    ok = ok and v["exp_theta_l"] <= v["c_l"] + s and v["c_l"] <= hi + s
    ok = ok and lo - s <= v["c_pl"] <= v["c_l"] + s
    if printed is not None:
        names = ("c_hm", "c_pl", "exp_theta_l", "c_l")
        ok = ok and all(abs(v[n] - t) <= PRINTED_TOL for n, t in zip(names, printed))
    return ok


class GridWorkload(Workload):
    name = "grid"

    def commands(self) -> list:
        n = len(np.arange(0.2, 3.0 + GRID_STEP / 2, GRID_STEP))
        table = self.work_dir / "table.csv"
        grid = self.work_dir / "grid.csv"
        return [
            Command("table", ["table", "--out", str(table)], table, 21, 21),
            Command(
                "grid", ["grid", "--step", repr(GRID_STEP), "--out", str(grid)], grid, n * n, n * n
            ),
        ]

    def reference_key(self) -> str:
        return "all"

    def reference_of(self, cmd, res):
        rows = csv.DictReader(io.StringIO(res.output))
        return [[float(r["a"]), float(r["b"]), float(r["c_hm"]), float(r["c_pl"])] for r in rows]

    def failures(self, cmd, res, ref):
        """Cells missing, extra, off the reference, out of Proposition-3 order,
        or (for the table) off the printed Table 1."""
        want = {(a, b): (hm, pl) for a, b, hm, pl in ref}
        rows = {(float(r["a"]), float(r["b"])): r for r in csv.DictReader(io.StringIO(res.output))}
        printed = PRINTED_TABLE if cmd.key == "table" else {}
        failed = sum(1 for key in want if key not in rows)
        extra = 0
        for key, row in rows.items():
            if key not in want:
                extra += 1
            elif not _grid_cell_ok(row, want[key], printed.get(key)):
                failed += 1
        return len(want) + extra, failed + extra


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def sweep_scenario(input_set: int) -> dict:
    return {
        "trial_effects": [[math.log(0.3)], [math.log(0.8)]],
        "sizes": [400, 170],
        "covariate_dist": {"support": [[0.0], [1.0]], "probs": [0.5, 0.5]},
        "baseline": {"kind": "identity"},
        "censoring": {"kind": "none"},
        "seed": SWEEP_BASE_SEED + input_set,
    }


class SweepWorkload(Workload):
    name = "sweep"

    def prepare(self, work_dir: Path) -> None:
        super().prepare(work_dir)
        self.scenario = work_dir / "scenario.json"
        self.scenario.write_text(json.dumps(sweep_scenario(self.input_set)), encoding="utf-8")

    def commands(self) -> list:
        out = self.work_dir / "sweep.csv"
        points = SWEEP_REPLICATES * len(SWEEP_TMAX_GRID.split(","))
        argv = ["sweep", "--scenario", str(self.scenario), "--tmax-grid", SWEEP_TMAX_GRID]
        argv += ["--replicates", str(SWEEP_REPLICATES), "--out", str(out)]
        return [Command("sweep", argv, out, points, points)]

    def reference_of(self, cmd, res):
        return list(csv.DictReader(io.StringIO(res.output)))

    def failures(self, cmd, res, ref):
        """Replicates that failed, plus every replicate of a t_max row whose
        summaries miss the reference; ``n_failed`` must match exactly."""
        rows = list(csv.DictReader(io.StringIO(res.output)))
        if len(rows) != len(ref):
            return cmd.ops, cmd.ops
        exact = ("t_max", "n_failed", "replicates")
        failed = 0
        for row, want in zip(rows, ref):
            ok = row.keys() == want.keys() and all(row[k] == want[k] for k in exact)
            ok = ok and all(close(float(row[k]), float(want[k])) for k in want if k not in exact)
            failed += int(row["n_failed"]) if ok else SWEEP_REPLICATES
        return cmd.ops, failed


# ---------------------------------------------------------------------------
# lines
# ---------------------------------------------------------------------------


def make_lines_file(path: Path, n: int, law: str, rng: np.random.Generator) -> None:
    """Draw one two-trial patient-line file and write it in the CLI schema.

    Trial 1 holds 70% of the subjects.  Latent times are exponential with
    hazard exp(beta'z); a common study end at the pooled 70th percentile of
    the latent times censors 30% administratively.
    """
    n1 = round(LINES_SHARE_TRIAL1 * n)
    trial = np.repeat([0, 1], (n1, n - n1))
    arm = (rng.random(n) < 0.5).astype(float)
    if law == "arm":
        z = arm[:, None]
    elif law == "stratum":
        z = np.column_stack([arm, (rng.random(n) < 0.4).astype(float)])
    else:
        # rounded to 0.1, so the empirical law has a few hundred support points
        z = np.column_stack([arm, np.round(rng.normal(0.0, 1.5, n), 1) + 0.0])
    beta = np.array(LINES_EFFECTS[law], dtype=float)[trial]
    latent = rng.exponential(size=n) / np.exp(np.sum(z * beta, axis=1))
    end = float(np.quantile(latent, 1.0 - LINES_CENSORED_SHARE))
    events = (latent <= end).astype(int)
    times = np.minimum(latent, end)
    header = "trial_id,time,event," + ",".join(f"z{j + 1}" for j in range(z.shape[1]))
    # written a block of rows at a time, so that building the inputs does not
    # set this process's peak memory in place of the passes
    with path.open("w", encoding="utf-8", newline="") as fh:
        fh.write(header + "\n")
        for lo in range(0, n, LINES_WRITE_ROWS):
            rows = slice(lo, lo + LINES_WRITE_ROWS)
            columns = [
                [f"trial{t + 1}" for t in trial[rows].tolist()],
                list(map(repr, times[rows].tolist())),
                list(map(str, events[rows].tolist())),
            ] + [list(map(repr, col)) for col in z[rows].T.tolist()]
            fh.write("".join(row + "\n" for row in map(",".join, zip(*columns))))


def _json_close(got, want, path: str = "") -> bool:
    if isinstance(want, dict):
        return (
            isinstance(got, dict)
            and got.keys() == want.keys()
            and all(_json_close(got[k], want[k], f"{path}/{k}") for k in want)
        )
    if isinstance(want, list):
        return (
            isinstance(got, list)
            and len(got) == len(want)
            and all(_json_close(g, w, path) for g, w in zip(got, want))
        )
    if isinstance(want, (bool, str)) or want is None:
        return got == want
    if isinstance(got, bool) or not isinstance(got, (int, float)):
        return False
    rtol = RTOL_PLUGIN_COV if path == "/misspecified/covariance" else RTOL
    return close(float(got), float(want), rtol=rtol)


class LinesWorkload(Workload):
    name = "lines"

    def prepare(self, work_dir: Path) -> None:
        super().prepare(work_dir)
        self.files = []
        for n in LINES_SIZES:
            for j, law in enumerate(LINES_LAWS):
                rng = np.random.default_rng([LINES_SEED_TAG, self.input_set, n, j])
                key = f"n{n}-{law}"
                path = work_dir / f"{key}.csv"
                make_lines_file(path, n, law, rng)
                self.files.append((key, path, n))

    def commands(self) -> list:
        return [
            Command(key, ["estimate", "--lines", str(path)], None, 1, n)
            for key, path, n in self.files
        ]

    def reference_of(self, cmd, res):
        return json.loads(res.stdout)

    def failures(self, cmd, res, ref):
        try:
            got = json.loads(res.stdout)
        except json.JSONDecodeError:
            return 1, 1
        return 1, int(not _json_close(got, ref))


WORKLOADS = {"grid": GridWorkload, "sweep": SweepWorkload, "lines": LinesWorkload}
