"""Reproduction studies and property suites built on the estimator layer.

Covers the ordering checks between the combined-effect definitions, the
Monte Carlo censoring-bias sweep, the overall-hazard-ratio comparison
grids, the pooled-baseline hazard limit with its simulation check, and
the information-projection objective that characterizes the harmonic-mean
effect.  Everything here emits plain data (arrays, and CSV files through
``data._write_csv``); no plotting.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .cox import _breslow_ordered, _CountTables, _descending, _fit_ordered, fit_cox_rows
from .data import (
    CovariateDistribution,
    NoCensoring,
    ScenarioSpec,
    TrialDataset,
    _draw_latent,
    _integer,
    _write_csv,
    replicate_stream,
)
from .errors import HrmixError
from .estimators import (
    _binary_definitions,
    _pl_root,
    _pooled_limit_binary,
    _size_shares,
    _validate_binary_args,
)

__all__ = [
    "OrderingReport",
    "SweepResult",
    "GridResult",
    "BreslowComparison",
    "proposition3_check",
    "bias_sweep",
    "table1_grid",
    "figure2_grid",
    "breslow_limit",
    "breslow_limit_hazard",
    "breslow_limit_at_zero",
    "breslow_limit_at_infinity",
    "kl_objective",
    "kl_gradient",
    "write_sweep_csv",
    "write_grid_csv",
    "write_breslow_csv",
]

# Ordering flags require margins above 10x the solver tolerance so that a
# "strict" inequality is never an artifact of quadrature noise.
_ORDERING_MARGIN = 1e-10

TABLE1_VALUES = (0.5, 1.0, 1.5, 2.0, 2.5, 3.0)


@dataclass(frozen=True)
class OrderingReport:
    """Computed combined-effect values and their ordering for one (a,b,p,q).

    ``margins_hm`` holds the slacks of a < c_hm < exp(theta_l) < c_l < b
    and ``margins_pl`` those of a < c_pl < c_l < b.  ``boundary`` marks
    the degenerate case a = b where every margin is zero by construction.
    """

    a: float
    b: float
    p: float
    q: float
    c_hm: float
    exp_theta_l: float
    c_l: float
    c_pl: float
    margins_hm: tuple
    margins_pl: tuple
    chain_hm_holds: bool
    chain_pl_holds: bool
    boundary: bool


def proposition3_check(a: float, b: float, p: float, q: float) -> OrderingReport:
    """Evaluate both ordering chains between the combined-effect definitions.

    Requires 0 < a <= b and p, q in (0, 1); the solvers check p and q.
    Flags are true only when every margin in the chain exceeds 10x the
    solver tolerance; the a = b case is reported as a boundary rather than
    a violation.
    """
    if not (0 < a <= b):
        raise ValueError("need 0 < a <= b")
    values = _binary_definitions(a, b, p, q)
    c_hm, c_pl, exp_theta_l, c_l = values.values()
    margins_hm = (c_hm - a, exp_theta_l - c_hm, c_l - exp_theta_l, b - c_l)
    margins_pl = (c_pl - a, c_l - c_pl, b - c_l)
    boundary = a == b
    return OrderingReport(
        a=a,
        b=b,
        p=p,
        q=q,
        **values,
        margins_hm=margins_hm,
        margins_pl=margins_pl,
        chain_hm_holds=all(m > _ORDERING_MARGIN for m in margins_hm),
        chain_pl_holds=all(m > _ORDERING_MARGIN for m in margins_pl),
        boundary=boundary,
    )


@dataclass(frozen=True)
class SweepResult:
    """Per-censoring-time summaries of the two pooled estimates.

    For each entry of ``t_max`` (math.inf means no censoring): the mean
    and empirical 2.5/97.5 percentiles over replicates of the pooled-fit
    log hazard ratio and of the aggregate plug-in, the mean pooled
    censored fraction, and the count of replicates whose fits failed
    (excluded from the summaries, never fatal).
    """

    t_max: np.ndarray
    theta_pl_mean: np.ndarray
    theta_pl_lo: np.ndarray
    theta_pl_hi: np.ndarray
    theta_m_mean: np.ndarray
    theta_m_lo: np.ndarray
    theta_m_hi: np.ndarray
    censored_fraction: np.ndarray
    n_failed: np.ndarray
    replicates: int
    master_seed: int

    def __post_init__(self):
        t = np.asarray(self.t_max, dtype=float)
        if not np.all(t[1:] > t[:-1]):
            raise ValueError("t_max grid must be strictly ascending")
        for lo, mean, hi in (
            (self.theta_pl_lo, self.theta_pl_mean, self.theta_pl_hi),
            (self.theta_m_lo, self.theta_m_mean, self.theta_m_hi),
        ):
            ok = np.isfinite(mean)
            if not (np.all(lo[ok] <= mean[ok]) and np.all(mean[ok] <= hi[ok])):
                raise ValueError("percentiles must bracket the mean")


# Replicates fitted together, in one Newton solve over the pooled data and
# every trial.  Results do not depend on it (each row fits to the same bits
# in any batch); it trades interpreter overhead against the size of the
# count tables, which hold every dataset's and study end's event blocks.
# On the Example-3 sweep (200 replicates x 6 study ends, 2 vCPUs), 6 makes
# 34 solves where one solve per dataset made 102, for about 10% less
# benchmark wall time.  Against 6, in four 15 s benchmark runs each, 3
# took about 20% more wall time for 1.3 MB (3%) less peak RSS, and 12 the
# same time for 2.8 MB (6%) more.
_SWEEP_CHUNK = 6

# Count tables serve laws of at most this many support points per
# covariate; larger laws are fitted by running sums over the subjects
# (fit_cox_rows).  A table sum costs O(m) per event block, a running sum
# O(1) per subject.  On the sweep of Example-3 sizes the two cost the same
# near m = 8 with k = 1 and near m = 16 with k = 2; at m = 256, k = 2 the
# tables took ten times as long and nearly twice the memory.
_TABLE_LEVELS_PER_COVARIATE = 8


def _sorted_latent(scenario, replicates):
    """Latent (uncensored) data of a run of replicates, sorted per row.

    Each replicate draws its trials on its own stream in the usual order.
    Returns (times, levels) for the pooled data and then each trial,
    stacked over replicates as (R, n) and sorted by descending time within
    each row; ``levels`` index the rows of the covariate support.
    """
    bounds = np.cumsum((0,) + scenario.sizes)
    times = np.empty((len(replicates), bounds[-1]))
    levels = np.empty(times.shape, dtype=np.intp)
    for row, r in enumerate(replicates):
        rng = replicate_stream(scenario.seed, r)
        for i, (effect, size) in enumerate(zip(scenario.trial_effects, scenario.sizes)):
            part = slice(bounds[i], bounds[i + 1])
            levels[row, part], times[row, part] = _draw_latent(
                effect, size, scenario.covariate_dist, scenario.baseline, rng
            )
    # a trial's own stable sort is the pooled one restricted to its
    # columns, since that keeps its ties in column order too
    pooled = np.argsort(-times, axis=1, kind="stable")
    orders = [pooled] + [
        pooled[(pooled >= lo) & (pooled < hi)].reshape(len(replicates), hi - lo)
        for lo, hi in zip(bounds[:-1], bounds[1:])
    ]
    return [
        (np.take_along_axis(times, order, axis=1), np.take_along_axis(levels, order, axis=1))
        for order in orders
    ]


def bias_sweep(scenario: ScenarioSpec, t_max_grid, replicates: int) -> SweepResult:
    """Monte Carlo study of censoring bias in the pooled estimates.

    Each replicate draws latent (uncensored) datasets once on its own
    stream, then re-censors them administratively at every grid value
    (math.inf means no censoring).  The study ends are the only censoring: a
    scenario whose ``censoring`` is not :class:`NoCensoring` raises
    ValueError rather than be silently ignored.  Per grid point the pooled
    fit and the per-trial-fit plug-in are recomputed; component 0 of each
    estimate (the arm indicator) is summarized.  Two or more trials are
    pooled, and the plug-in weights each trial by its share of the subjects.

    Replicates are fitted in chunks, one Newton solve per chunk whose rows
    are dataset (the pooled data, then each trial) x study end x replicate.
    The simulator's covariate law is tabulated, so each risk-set sum is read
    off count tables: the at-risk count of every support point, an int32,
    times e^{beta'z} z^r, an O(m) sum over the m support points.  Censoring at
    t_max only caps the largest times, so the tables come from the one
    latent descending-time order of the chunk and every study end reads a
    suffix of its event blocks.  A law with more than
    ``_TABLE_LEVELS_PER_COVARIATE`` points per covariate is fitted by
    running sums over the subjects instead (:func:`fit_cox_rows`, every
    study end of a dataset in one call).  The binary plug-in is one batched
    solve of the binary limit over every cell whose fits succeeded, and a
    general law takes one Newton solve per cell; a cell that its solve
    cannot certify counts as failed.  A NaN study end is rejected.
    Replicate streams depend only on (seed, replicate) and no row's fit
    depends on its chunk, so results do not depend on the chunk size.
    """
    if not isinstance(scenario.censoring, NoCensoring):
        raise ValueError(
            "the sweep censors only at its study ends, so the scenario's censoring "
            f"must be none, not {scenario.censoring}"
        )
    replicates = _integer(replicates, "replicates")
    if replicates < 100:
        raise ValueError("need at least 100 replicates for stable percentiles")
    grid = np.asarray(sorted(float(t) for t in t_max_grid), dtype=float)
    if grid.size == 0 or np.any(grid[1:] <= grid[:-1]):
        raise ValueError("t_max grid must be nonempty with distinct values")
    if not np.all(grid > 0):
        raise ValueError("t_max values must be positive (and not NaN)")
    theta_pl, frac, effects = _sweep_fits(scenario, grid, replicates)
    theta_m = _sweep_plugin(effects, _size_shares(scenario.sizes), scenario.covariate_dist)

    failed = ~np.isfinite(theta_pl) | ~np.isfinite(theta_m)
    # failed cells drop out; a study end where all failed is zero-filled so
    # that numpy meets no empty slice, and its summaries are then set to NaN
    empty = failed.all(axis=0)
    fill = np.where(empty, 0.0, np.nan)

    def summarize(values, *percentiles):
        vals = np.where(failed, fill, values)
        stats = [np.nanmean(vals, axis=0)]
        stats += [np.nanpercentile(vals, q, axis=0) for q in percentiles]
        return [np.where(empty, np.nan, v) for v in stats]

    pl_mean, pl_lo, pl_hi = summarize(theta_pl, 2.5, 97.5)
    m_mean, m_lo, m_hi = summarize(theta_m, 2.5, 97.5)
    (frac_mean,) = summarize(frac)
    return SweepResult(
        t_max=grid,
        theta_pl_mean=pl_mean,
        theta_pl_lo=pl_lo,
        theta_pl_hi=pl_hi,
        theta_m_mean=m_mean,
        theta_m_lo=m_lo,
        theta_m_hi=m_hi,
        censored_fraction=frac_mean,
        n_failed=failed.sum(axis=0),
        replicates=replicates,
        master_seed=scenario.seed,
    )


def _sweep_fits(scenario, grid, replicates):
    """Pooled and per-trial fits of every replicate at every study end.

    Returns component 0 of the pooled fit and the censored fraction, as
    (replicates, study ends) arrays, and the per-trial log hazard ratios
    of the cells whose pooled and trial fits all succeeded, as (trials,
    replicates, study ends, k); failed cells hold NaN.  Each chunk's
    datasets are fitted by one call, which on the count tables is one
    Newton solve over every dataset, each in its own columns of the one
    layout, and on running sums one solve per dataset.  The count tables
    and their work rows, reused by every chunk, are freed on return,
    before the plug-in solve.
    """
    shape = (replicates, grid.size)
    theta_pl = np.full(shape, np.nan)
    frac = np.empty(shape)
    effects = np.full((len(scenario.sizes),) + shape + (scenario.covariate_dist.k,), np.nan)

    def by_cell(values):
        # fitted row g * R + r is replicate r of the chunk at study end g
        return values.reshape((grid.size, -1) + values.shape[1:]).swapaxes(0, 1)

    support = scenario.covariate_dist.support
    if len(support) <= _TABLE_LEVELS_PER_COVARIATE * support.shape[1]:
        fit = _CountTables(support, grid).fit
    else:
        fit = functools.partial(_capped_rows, support=support, grid=grid)

    for start in range(0, replicates, _SWEEP_CHUNK):
        chunk = slice(start, min(start + _SWEEP_CHUNK, replicates))
        latent = _sorted_latent(scenario, range(chunk.start, chunk.stop))
        pooled, *trials = fit(latent)
        frac[chunk] = 1.0 - by_cell(pooled.n_events) / latent[0][0].shape[1]
        theta_pl[chunk] = by_cell(np.where(pooled.ok, pooled.beta_hat[:, 0], np.nan))
        fitted = np.logical_and.reduce([pooled.ok] + [t.ok for t in trials])[:, None]
        for j, trial in enumerate(trials):
            effects[j, chunk] = by_cell(np.where(fitted, trial.beta_hat, np.nan))
    return theta_pl, frac, effects


def _capped_rows(latent, support, grid):
    """:func:`fit_cox_rows` on every latent row of each dataset censored at
    every study end, one call per dataset.

    Each dataset's rows are laid out as in the count-table fit: fitted row
    g * R + r is row r censored at ``grid[g]``.
    """
    k = support.shape[1]
    ends = grid[:, None, None]
    fits = []
    for times, levels in latent:
        n = times.shape[1]
        covariates = np.broadcast_to(support[levels], (grid.size,) + levels.shape + (k,))
        fits.append(
            fit_cox_rows(
                np.minimum(times, ends).reshape(-1, n),
                (times <= ends).reshape(-1, n),
                covariates.reshape(-1, n, k),
            )
        )
    return fits


def _sweep_plugin(effects, weights, dist):
    """Component 0 of the plug-in at every cell with finite trial fits.

    ``effects`` holds the per-trial log hazard ratios, shaped (trials,
    ..., k), and ``weights`` each trial's share of the subjects.  The
    binary limit is one batched solve, in which a cell the rule cannot
    certify comes back NaN without touching the others.  General
    covariates take one Newton solve per cell.  Failed cells hold NaN.
    """
    theta_m = np.full(effects.shape[1:-1], np.nan)
    cells = np.flatnonzero(np.isfinite(effects[0, ..., 0]))
    effects = effects.reshape(len(effects), -1, effects.shape[-1])[:, cells]
    out = theta_m.reshape(-1)
    q = dist.arm_probability()
    if q is not None:
        out[cells] = np.log(_pooled_limit_binary(np.exp(effects[..., 0]), weights, q, np.inf))
        return theta_m
    for i, cell in enumerate(cells):
        try:
            out[cell] = _pl_root(list(effects[:, i]), weights, dist)[0][0]
        except HrmixError:
            continue
    return theta_m


@dataclass(frozen=True)
class GridResult:
    """Combined-effect surfaces over an (a, b) grid of hazard ratios.

    Each surface is an (len(a_values), len(b_values)) array; unpopulated
    cells (below the diagonal for the triangular table) hold NaN.  The
    percentage-difference surfaces take the second-listed estimator as
    the basis: 100 * (x - basis) / basis.
    """

    a_values: np.ndarray
    b_values: np.ndarray
    c_hm: np.ndarray
    c_pl: np.ndarray
    exp_theta_l: np.ndarray
    c_l: np.ndarray
    pct_hm_vs_pl: np.ndarray
    pct_expl_vs_pl: np.ndarray
    pct_expl_vs_hm: np.ndarray
    p: float
    q: float


def _grid_from_values(a_values, b_values, p, q, populated) -> GridResult:
    """Every surface over the cells of the (a, b) grid where ``populated`` is true."""
    a_values = np.asarray(a_values, dtype=float)
    b_values = np.asarray(b_values, dtype=float)
    a = np.broadcast_to(a_values[:, None], populated.shape)[populated]
    b = np.broadcast_to(b_values[None, :], populated.shape)[populated]

    def surface(values):
        out = np.full(populated.shape, np.nan)
        out[populated] = values
        return out

    values = {name: surface(v) for name, v in _binary_definitions(a, b, p, q).items()}
    c_hm, c_pl, exp_tl, _ = values.values()
    with np.errstate(invalid="ignore"):
        pct_hm_vs_pl = 100.0 * (c_hm - c_pl) / c_pl
        pct_expl_vs_pl = 100.0 * (exp_tl - c_pl) / c_pl
        pct_expl_vs_hm = 100.0 * (exp_tl - c_hm) / c_hm
    return GridResult(
        a_values=a_values,
        b_values=b_values,
        **values,
        pct_hm_vs_pl=pct_hm_vs_pl,
        pct_expl_vs_pl=pct_expl_vs_pl,
        pct_expl_vs_hm=pct_expl_vs_hm,
        p=p,
        q=q,
    )


def table1_grid(p: float = 0.5, q: float = 0.5) -> GridResult:
    """All 21 upper-triangle cells of the reference comparison table.

    Hazard ratios a <= b range over {0.5, 1.0, 1.5, 2.0, 2.5, 3.0} with
    equal trial sizes and 1:1 allocation by default.
    """
    values = np.asarray(TABLE1_VALUES)
    return _grid_from_values(values, values, p, q, values[:, None] <= values[None, :])


def figure2_grid(
    a_range=(0.2, 3.0),
    b_range=(0.2, 3.0),
    resolution: float = 0.05,
    p: float = 0.5,
    q: float = 0.5,
) -> GridResult:
    """Rectangular comparison grid for percentage-difference contours.

    A range holds lo + i * resolution for every i with i <= (hi - lo) / resolution + 1e-9.
    """
    if not (np.isfinite(resolution) and resolution > 0):
        raise ValueError("resolution must be positive and finite")
    if not np.all(np.isfinite([*a_range, *b_range])):
        raise ValueError("grid ranges must be finite")
    if a_range[0] > a_range[1] or b_range[0] > b_range[1]:
        raise ValueError("each grid range needs its minimum at or below its maximum")
    a_values, b_values = (
        np.round(lo + resolution * np.arange(np.floor((hi - lo) / resolution + 1e-9) + 1), 12)
        for lo, hi in (a_range, b_range)
    )
    if np.any(a_values <= 0) or np.any(b_values <= 0):
        raise ValueError("grid ranges must be positive")
    populated = np.ones((a_values.size, b_values.size), dtype=bool)
    return _grid_from_values(a_values, b_values, p, q, populated)


# ---------------------------------------------------------------------------
# Baseline-hazard limit of the pooled fit
# ---------------------------------------------------------------------------


def _check_limit_args(a, b, p, c_star) -> None:
    """ValueError unless a and b are positive and finite, p lies in (0, 1)
    and ``c_star`` is positive and finite."""
    _validate_binary_args(a, b, p)
    if not (np.isfinite(c_star) and c_star > 0):
        raise ValueError("c_star must be positive and finite")


def _times(t, name: str) -> np.ndarray:
    t = np.asarray(t, dtype=float)
    if not np.all(np.isfinite(t) & (t >= 0)):
        raise ValueError(f"{name} must be finite and nonnegative")
    return t


def breslow_limit_hazard(t, a: float, b: float, p: float, c_star: float):
    """Limiting baseline hazard of the pooled fit as a function of time.

    The pooled partial-likelihood procedure absorbs the mixture structure
    into its baseline estimate; against a true unit baseline the limit is

        [p a e^-at + (1-p) b e^-bt + e^-t]
        / [(p e^-at + (1-p) e^-bt) c_star + e^-t].

    It needs a and b positive and finite, p in (0, 1), ``c_star``
    positive and finite and ``t`` finite and nonnegative; anything else
    raises ValueError, as for the two limits below.  Numerator and
    denominator are divided by e^{-lambda t}, lambda = min(a, b, 1), so
    that a slowest-decaying term is 1 and the ratio stays finite where
    every exponential would underflow.
    """
    _check_limit_args(a, b, p, c_star)
    t = _times(t, "t")
    slowest = min(a, b, 1.0)
    # (rate - slowest) * t may overflow to inf, and e^-inf is the 0 it should be
    with np.errstate(over="ignore"):
        decay = [np.exp(-(rate - slowest) * t) for rate in (a, b, 1.0)]
    return _limit_ratio(a, b, p, c_star, *decay)


def _limit_ratio(a, b, p, c_star, ea, eb, e1):
    """The Breslow limit from the three groups' decay terms, each rescaled."""
    return (p * a * ea + (1 - p) * b * eb + e1) / ((p * ea + (1 - p) * eb) * c_star + e1)


def breslow_limit_at_zero(a: float, b: float, p: float, c_star: float) -> float:
    _check_limit_args(a, b, p, c_star)
    return (p * a + (1 - p) * b + 1.0) / (c_star + 1.0)


def breslow_limit_at_infinity(a: float, b: float, p: float, c_star: float) -> float:
    _check_limit_args(a, b, p, c_star)
    # the groups of the slowest decay rate, min(a, b, 1), make the tail
    slowest = min(a, b, 1.0)
    return _limit_ratio(a, b, p, c_star, *(float(rate == slowest) for rate in (a, b, 1.0)))


@dataclass(frozen=True)
class BreslowComparison:
    """Analytic baseline-hazard limit versus a pooled-simulation estimate.

    ``block_times``/``block_hazard`` hold the smoothed empirical curve:
    baseline-hazard increments of the pooled fit summed over consecutive
    windows of ``window`` events and divided by the window's time span
    (the unit-hazard reference).  Raw per-event increments are far too
    noisy to compare pointwise.
    """

    t_grid: np.ndarray
    analytic: np.ndarray
    block_times: np.ndarray
    block_hazard: np.ndarray
    n_subjects: int
    window: int
    seed: int
    fitted_c: float
    a: float
    b: float
    p: float
    c_star: float

    def __post_init__(self):
        if np.any(self.analytic <= 0):
            raise ValueError("analytic hazard curve must be positive")

    def binned(self, t_lo: float, t_hi: float, n_bins: int):
        """Average empirical blocks inside equal-width time bins.

        Returns (bin_centers, empirical_means, analytic_means) where the
        analytic means average the limit curve over the same block
        midpoints, so both sides estimate the identical functional.  The
        range must be finite with t_lo < t_hi and ``n_bins`` an integer of
        at least 1; anything else raises ValueError.
        """
        if not (np.isfinite(t_lo) and np.isfinite(t_hi) and t_lo < t_hi):
            raise ValueError("binned needs finite t_lo < t_hi")
        n_bins = _integer(n_bins, "n_bins")
        if n_bins < 1:
            raise ValueError("n_bins must be at least 1")
        edges = np.linspace(t_lo, t_hi, n_bins + 1)
        centers = 0.5 * (edges[:-1] + edges[1:])
        emp = np.full(n_bins, np.nan)
        ana = np.full(n_bins, np.nan)
        which = np.digitize(self.block_times, edges) - 1
        for i in range(n_bins):
            sel = which == i
            if not np.any(sel):
                continue
            emp[i] = float(np.mean(self.block_hazard[sel]))
            ana[i] = float(
                np.mean(breslow_limit_hazard(self.block_times[sel], self.a, self.b, self.p, self.c_star))
            )
        return centers, emp, ana


def _example4_pool(a: float, b: float, p: float, n_subjects: int, seed: int) -> TrialDataset:
    """Two trials, equal arms: treated Exp(a)/Exp(b), controls Exp(1)."""
    pairs = n_subjects // 2
    n1 = max(1, round(p * pairs))
    n2 = max(1, pairs - n1)
    rng = replicate_stream(seed, 0)
    labels, arms = ("trial1", "trial1", "trial2", "trial2"), (1.0, 0.0, 1.0, 0.0)
    rates, sizes = (a, 1.0, b, 1.0), (n1, n1, n2, n2)
    times = np.concatenate([rng.exponential(scale=1.0 / r, size=n) for r, n in zip(rates, sizes)])
    return TrialDataset(
        times=times,
        events=np.ones(times.size, dtype=np.int64),
        covariates=np.repeat(arms, sizes)[:, None],
        trial_ids=np.repeat(np.array(labels, dtype=object), sizes),
        label="pooled",
    )


def breslow_limit(
    a: float,
    b: float,
    p: float,
    c_star: float,
    t_grid,
    n_subjects: int = 200_000,
    seed: int = 0,
    window: int = 200,
) -> BreslowComparison:
    """Analytic baseline-hazard limit plus its large-sample simulation check.

    ``c_star`` should be the pooled-fit limit for (a, b, p) under 1:1
    allocation (q = 0.5).  The empirical side simulates the four
    exponential groups, fits the pooled model, and smooths the baseline
    increments over ``window``-event blocks before forming hazard ratios
    against the unit-hazard reference.  It needs a and b positive and
    finite, p in (0, 1), ``c_star`` positive and finite, a finite,
    nonnegative ``t_grid``, at least 4 subjects, one per group, and at
    least one full block of event times; anything else raises ValueError.
    The counts and the seed must be integers, as for :class:`ScenarioSpec`.
    """
    _check_limit_args(a, b, p, c_star)
    t_grid = _times(t_grid, "t_grid")
    n_subjects, window = _integer(n_subjects, "n_subjects"), _integer(window, "window")
    if n_subjects < 4:
        raise ValueError("n_subjects must be at least 4, one per group")
    if window < 1:
        raise ValueError("window must be at least 1 event")
    pooled = _example4_pool(a, b, p, n_subjects, seed)
    # one sort serves the fit and the curve
    order = _descending(pooled)
    fit = _fit_ordered(pooled, order)
    curve = _breslow_ordered(pooled, fit.beta_hat, order)
    n_blocks = curve.event_times.size // window
    if n_blocks == 0:
        raise ValueError(f"window {window} exceeds the {curve.event_times.size} event times")
    edges_idx = np.arange(1, n_blocks + 1) * window - 1
    edge_t = np.r_[0.0, curve.event_times[edges_idx]]
    edge_h = np.r_[0.0, curve.cumulative[edges_idx]]
    spans = np.diff(edge_t)
    block_hazard = np.diff(edge_h) / spans
    block_times = 0.5 * (edge_t[:-1] + edge_t[1:])
    return BreslowComparison(
        t_grid=t_grid,
        analytic=breslow_limit_hazard(t_grid, a, b, p, c_star),
        block_times=block_times,
        block_hazard=block_hazard,
        n_subjects=n_subjects,
        window=window,
        seed=seed,
        fitted_c=float(np.exp(fit.beta_hat[0])),
        a=a,
        b=b,
        p=p,
        c_star=c_star,
    )


# ---------------------------------------------------------------------------
# Information projection characterizing the harmonic-mean effect
# ---------------------------------------------------------------------------


def _kl_terms(theta, alpha, beta, p, dist):
    """theta'z and e^{theta'z} E[H0(T) | Z = z] at each support point z."""
    if not 0 < p < 1:
        raise ValueError("p must lie in (0, 1)")
    theta, alpha, beta = (np.atleast_1d(np.asarray(v, dtype=float)) for v in (theta, alpha, beta))
    z = dist.support
    mix = p * np.exp(-z @ alpha) + (1 - p) * np.exp(-z @ beta)
    return z @ theta, np.exp(z @ theta) * mix


def _finite(value, name: str):
    if not np.all(np.isfinite(value)):
        raise ValueError(f"{name} is not finite: an input is not, or an exponent overflows")
    return value


def kl_objective(theta, alpha, beta, p: float, dist: CovariateDistribution) -> float:
    """Expected working-model log likelihood, up to theta-free terms.

    Under the two-trial mixture, E[H0(T) | Z] = p e^{-alpha'Z} +
    (1-p) e^{-beta'Z}, so the objective reduces to the finite sum

        sum_z pi_z [theta'z - e^{theta'z} (p e^{-alpha'z} + (1-p) e^{-beta'z})].

    Maximizing it is the same as minimizing the Kullback-Leibler distance
    from the true mixture to the working model, and the maximizer is the
    harmonic-mean combined effect.  It needs p in (0, 1); a sum that is
    not finite (an exponent that overflows, a non-finite input) raises
    ValueError.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        linear, scaled = _kl_terms(theta, alpha, beta, p, dist)
        return _finite(float(dist.probs @ (linear - scaled)), "the KL objective")


def kl_gradient(theta, alpha, beta, p: float, dist: CovariateDistribution) -> np.ndarray:
    """Gradient of :func:`kl_objective`; zero exactly at the harmonic-mean effect.

    Its domain is the objective's, and a gradient that is not finite
    raises ValueError.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        _, scaled = _kl_terms(theta, alpha, beta, p, dist)
        w = dist.probs * (1.0 - scaled)
        return _finite(w @ dist.support, "the KL gradient")


# ---------------------------------------------------------------------------
# CSV emission
# ---------------------------------------------------------------------------


def write_sweep_csv(result: SweepResult, path) -> None:
    r = result
    header = ["t_max", "theta_pl_mean", "theta_pl_p2_5", "theta_pl_p97_5", "theta_m_mean"]
    header += ["theta_m_p2_5", "theta_m_p97_5", "censored_fraction", "n_failed", "replicates"]
    columns = [r.t_max, r.theta_pl_mean, r.theta_pl_lo, r.theta_pl_hi, r.theta_m_mean]
    columns += [r.theta_m_lo, r.theta_m_hi, r.censored_fraction, r.n_failed]
    _write_csv(path, header, columns + [np.full(r.t_max.size, r.replicates)])


def write_grid_csv(result: GridResult, path) -> None:
    """One row per populated cell (finite ``c_pl``), in row-major (a, b) order."""
    i, j = np.nonzero(np.isfinite(result.c_pl))
    surfaces = ["c_hm", "c_pl", "exp_theta_l", "c_l"]
    surfaces += ["pct_hm_vs_pl", "pct_expl_vs_pl", "pct_expl_vs_hm"]
    columns = [getattr(result, name)[i, j] for name in surfaces]
    _write_csv(path, ["a", "b", *surfaces], [result.a_values[i], result.b_values[j], *columns])


def write_breslow_csv(comparison: BreslowComparison, path) -> None:
    """The analytic series on ``t_grid``, then the empirical blocks."""
    c = comparison
    sizes = [c.t_grid.size, c.block_times.size]
    series = np.repeat(np.array(["analytic", "empirical"], dtype=object), sizes)
    times = np.concatenate([c.t_grid, c.block_times])
    values = np.concatenate([c.analytic, c.block_hazard])
    _write_csv(path, ["series", "t", "value"], [series, times, values])
