"""The batched Cox fitter against the scalar loop it replaced, the
count-table fit against the batched fitter, and the replicate-batched
censoring sweep against a per-replicate loop."""

import itertools
import math
import re

import numpy as np
import pytest

from hrmix import (
    CovariateDistribution,
    HrmixError,
    NonConvergenceError,
    ScenarioSpec,
    TrialDataset,
    bias_sweep,
    fit_cox,
    fit_cox_rows,
    pool,
    simulate_scenario,
    solve_censored_binary,
    solve_cpl_binary,
    solve_theta_pl_general,
)
from hrmix import analysis, cox, estimators
from hrmix.cox import _NO_EVENTS, _SINGULAR, _CountTables, _RiskSets

from conftest import censor_administrative, naive_log_partial_likelihood, reference_fit_cox


def _tied_rows(seed, R, n, k):
    """Small datasets with times on a 0.1 lattice, sorted per row.

    Each row has its own event rate, so that 40% (k = 1) to 65% (k = 2)
    of the rows are degenerate: no events, no contrast, a singular
    information matrix, or a covariate that separates the events.
    """
    rng = np.random.default_rng(seed)
    times = np.round(rng.exponential(size=(R, n)), 1)
    events = (rng.random((R, n)) < rng.uniform(0.3, 1.0, size=(R, 1))).astype(np.int64)
    z = rng.integers(0, 2, size=(R, n, k)).astype(float)
    order = np.argsort(-times, axis=1, kind="stable")
    return (
        np.take_along_axis(times, order, axis=1),
        np.take_along_axis(events, order, axis=1),
        np.take_along_axis(z, order[..., None], axis=1),
    )


def _dataset(times, events, z):
    return TrialDataset(
        times=times,
        events=events,
        covariates=z,
        trial_ids=np.full(len(times), "t", dtype=object),
    )


@pytest.mark.parametrize("k", [1, 2])
def test_failure_parity_with_scalar_loop(k):
    # each row either raises the error class of the scalar loop or
    # returns its estimate to 1e-9; fit_cox on the row agrees as well
    times, events, z = _tied_rows(100 + k, 400, 6, k)
    rows = fit_cox_rows(times, events, z)
    rejected = 0
    for r in range(len(times)):
        try:
            expected = reference_fit_cox(times[r], events[r], z[r])
        except HrmixError as exc:
            expected = type(exc)
        error = rows.error(r)
        if isinstance(expected, type):
            rejected += 1
            assert type(error) is expected, r
            with pytest.raises(expected):
                fit_cox(_dataset(times[r], events[r], z[r]))
        else:
            assert error is None, (r, error)
            np.testing.assert_allclose(rows.beta_hat[r], expected, rtol=0, atol=1e-9)
            fit = fit_cox(_dataset(times[r], events[r], z[r]))
            np.testing.assert_allclose(fit.beta_hat, expected, rtol=0, atol=1e-9)
    assert 0.3 < rejected / len(times) < 0.75
    # the rejections span several failure checks, not one
    assert len(set(rows.failure[~rows.ok].tolist())) >= 3


@pytest.mark.parametrize("k", [1, 2])
def test_row_alone_equals_row_in_chunk(k):
    # a row's arithmetic never reads another row, so the chunk size of
    # the sweep cannot change any estimate
    times, events, z = _tied_rows(200 + k, 48, 8, k)
    whole = fit_cox_rows(times, events, z)
    for start, stop in [(0, 1), (5, 6), (3, 10), (10, 48)]:
        part = fit_cox_rows(times[start:stop], events[start:stop], z[start:stop])
        for field in ("beta_hat", "covariance", "log_partial_likelihood", "iterations", "failure"):
            np.testing.assert_array_equal(
                getattr(part, field)[part.ok], getattr(whole, field)[start:stop][part.ok]
            )
        np.testing.assert_array_equal(part.failure, whole.failure[start:stop])


@pytest.mark.parametrize("k", [1, 2, 3])
def test_evaluation_does_not_read_the_last_ones_work_rows(k):
    # the risk-set sums reuse their work rows, so an evaluation must give
    # the same bits after any other as on fresh rows
    times, events, z = _tied_rows(300 + k, 6, 40, k)
    rng = np.random.default_rng(k)
    betas = [rng.normal(size=(6, k)) for _ in range(3)]
    fresh = [_RiskSets(times, events, np.moveaxis(z, 2, 0)).loglik_score_info(b) for b in betas]
    reused = _RiskSets(times, events, np.moveaxis(z, 2, 0))
    for beta, want in zip(betas + betas[::-1], fresh + fresh[::-1]):
        for got, expected in zip(reused.loglik_score_info(beta), want):
            assert got.tobytes() == expected.tobytes()


def test_eventless_rows_first_in_the_middle_and_last():
    # np.add.reduceat gives values[start], not 0, for an empty segment, so
    # a row without event blocks must stay out of the per-row sums
    rng = np.random.default_rng(17)
    R, n, k = 8, 30, 2
    times = np.sort(np.round(rng.exponential(size=(R, n)), 1), axis=1)[:, ::-1]
    events = (rng.random((R, n)) < 0.7).astype(np.int64)
    z = rng.normal(size=(R, n, k))
    eventless = [0, 3, 4, 7]
    events[eventless] = 0
    rows = fit_cox_rows(times, events, z)
    assert rows.failure[eventless].tolist() == [_NO_EVENTS] * len(eventless)
    assert rows.ok.sum() == R - len(eventless)
    fields = ("beta_hat", "covariance", "log_partial_likelihood", "n_events", "residual")
    for r in np.flatnonzero(rows.ok):
        alone = fit_cox_rows(times[r : r + 1], events[r : r + 1], z[r : r + 1])
        for field in fields + ("iterations", "failure"):
            assert getattr(alone, field)[0].tobytes() == getattr(rows, field)[r].tobytes()
    # at any beta an eventless row's likelihood, score and information are 0
    sets = _RiskSets(times, events, np.moveaxis(z, 2, 0))
    for value in sets.loglik_score_info(rng.normal(size=(R, k))):
        assert not value[eventless].any()


_T = np.array([[3.0, 2.0, 1.0]])
_D = np.array([[1, 0, 1]])
_Z = np.array([[[0.0], [1.0], [0.5]]])


@pytest.mark.parametrize(
    "times, events, z, message",
    [
        (_T[0], _D, _Z, "need (R, n) times and events and (R, n, k) covariates"),
        (_T, _D[:, :2], _Z, "need (R, n) times and events and (R, n, k) covariates"),
        (_T, _D, _Z[..., 0], "need (R, n) times and events and (R, n, k) covariates"),
        (_T[:, :0], _D[:, :0], _Z[:, :0], "need at least one subject and one covariate"),
        (_T, _D, _Z[..., :0], "need at least one subject and one covariate"),
        (_T, np.array([[1, 2, 0]]), _Z, "events must be 0 or 1"),
        (np.array([[3.0, np.nan, 1.0]]), _D, _Z, "times and covariates must be finite"),
        (_T, _D, np.array([[[0.0], [np.inf], [0.5]]]), "times and covariates must be finite"),
        (_T[:, ::-1], _D, _Z, "each row must be sorted by descending time"),
    ],
    ids=[
        "1-d-times",
        "short-events",
        "2-d-covariates",
        "no-subject",
        "no-covariate",
        "event-2",
        "nan-time",
        "inf-covariate",
        "ascending",
    ],
)
def test_fit_cox_rows_rejects_bad_input(times, events, z, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        fit_cox_rows(times, events, z)


def test_contrast_only_before_the_first_event_is_singular():
    # z is on the line z2 = 0.3 z1 + 0.1 but for a subject censored first
    times = np.array([[5.0, 4.0, 3.0, 2.0, 1.0]])
    events = np.array([[1, 0, 1, 1, 0]])
    z = np.array([[[0.0, 0.1], [1.0, 0.4], [2.0, 0.7], [0.0, 0.1], [3.0, 0.0]]])
    rows = fit_cox_rows(times, events, z)
    assert rows.failure[0] == _SINGULAR and rows.iterations[0] == 0


def test_tied_two_covariates_against_naive_likelihood():
    times = np.array([1.0, 1.0, 2.0, 2.0, 2.0, 3.0, 4.0, 4.0, 5.0, 5.0])
    events = np.array([1, 1, 1, 0, 1, 1, 1, 0, 1, 1])
    z = np.array(
        [[1, 0.5], [0, -1], [1, 0], [1, 1], [0, 0.5], [0, 1], [1, -0.5], [0, 0], [1, 1], [0, -1]]
    )
    fit = fit_cox(_dataset(times, events, z))
    assert fit.log_partial_likelihood == pytest.approx(
        naive_log_partial_likelihood(times, events, z, fit.beta_hat), abs=1e-10
    )
    # the fit beats every point of a lattice over [-3, 3]^2 and sits
    # within one lattice step of the best one
    axis = np.arange(-3.0, 3.05, 0.1)
    lattice = [
        (naive_log_partial_likelihood(times, events, z, [b1, b2]), b1, b2)
        for b1 in axis
        for b2 in axis
    ]
    best_ll, b1, b2 = max(lattice)
    assert fit.log_partial_likelihood >= best_ll
    assert np.max(np.abs(fit.beta_hat - [b1, b2])) <= 0.1


def _latent_levels(seed, R, n, m, k):
    """Uncensored datasets on an m-point support, times on a 0.1 lattice.

    Returns (support, times, levels) with each row sorted by descending
    time.  A sixth of the rows hold a single support point, and small n
    leaves many rows whose covariates separate the events.
    """
    rng = np.random.default_rng(seed)
    lattice = np.array(list(itertools.product([-1.0, -0.5, 0.0, 0.5, 1.0, 1.5], repeat=k)))
    support = lattice[rng.choice(len(lattice), size=m, replace=False)]
    levels = rng.integers(0, m, size=(R, n))
    single = rng.random(R) < 1 / 6
    levels[single] = levels[single, :1]
    effect = rng.normal(size=k)
    times = np.round(rng.exponential(size=(R, n)) / np.exp(support[levels] @ effect), 1)
    order = np.argsort(-times, axis=1, kind="stable")
    return (
        support,
        np.take_along_axis(times, order, axis=1),
        np.take_along_axis(levels, order, axis=1),
    )


def _affine_rank(points):
    return int(np.linalg.matrix_rank(points - points[0])) if len(points) > 1 else 0


STUDY_ENDS = [0.05, 0.3, 0.8, 2.0, math.inf]


@pytest.mark.parametrize("k,m", [(1, 2), (1, 3), (1, 6), (2, 2), (2, 4), (2, 6)])
def test_count_tables_match_fit_cox_rows(k, m):
    support, times, levels = _latent_levels(300 + 10 * k + m, 150, 8, m, k)
    (tables,) = _CountTables(support, STUDY_ENDS).fit([(times, levels)])
    R = len(times)
    # the information is singular for every beta when the covariates of a
    # row span more than none but fewer than k dimensions; both fits say
    # so before Newton
    rank = np.array([_affine_rank(support[np.unique(row)]) for row in levels])
    short = (0 < rank) & (rank < k)
    codes = set()
    for g, t_max in enumerate(STUDY_ENDS):
        rows = fit_cox_rows(np.minimum(times, t_max), times <= t_max, support[levels])
        mine = slice(g * R, (g + 1) * R)
        np.testing.assert_array_equal(tables.n_events[mine], rows.n_events)
        np.testing.assert_array_equal(tables.failure[mine], rows.failure)
        np.testing.assert_array_equal(tables.iterations[mine], rows.iterations)
        np.testing.assert_allclose(
            tables.beta_hat[mine][rows.ok], rows.beta_hat[rows.ok], rtol=0, atol=1e-12
        )
        assert np.all(rows.failure[short & (rows.n_events > 0)] == _SINGULAR)
        codes |= set(rows.failure.tolist())
    assert (rank == k).any() == (m > k) and (short.any() or m > k)
    # with m <= k only the checks before Newton can fire
    assert {1, 2} < codes and len(codes) >= (3 if m <= k else 4)


@pytest.mark.parametrize(
    "scenario,grid,replicates",
    [
        ("example3", [1.0, 2.0, 4.0, 7.0, 10.0, math.inf], 48),
        ("tiny", [0.15, 0.5, 2.0, math.inf], 100),
    ],
)
def test_sweep_tables_match_fit_cox_rows(scenario, grid, replicates, example3_scenario):
    scenario = example3_scenario if scenario == "example3" else TINY
    support = scenario.covariate_dist.support
    latent = analysis._sorted_latent(scenario, range(replicates))
    for (times, levels), tables in zip(latent, _CountTables(support, grid).fit(latent)):
        for g, t_max in enumerate(grid):
            rows = fit_cox_rows(np.minimum(times, t_max), times <= t_max, support[levels])
            mine = slice(g * replicates, (g + 1) * replicates)
            np.testing.assert_array_equal(tables.failure[mine], rows.failure)
            np.testing.assert_array_equal(tables.iterations[mine], rows.iterations)
            np.testing.assert_allclose(
                tables.beta_hat[mine][rows.ok], rows.beta_hat[rows.ok], rtol=0, atol=1e-12
            )


@pytest.mark.parametrize("k,m", [(1, 2), (1, 3), (1, 6), (2, 2), (2, 4), (2, 6)])
def test_datasets_fitted_together_equal_each_alone(k, m):
    # a sweep chunk fits its pooled data and every trial in one solve, yet
    # no row reads another: each dataset fits to the same bits alone
    support, times, levels = _latent_levels(300 + 10 * k + m, 150, 8, m, k)
    datasets = [(times, levels)] + [
        (times[:, columns], levels[:, columns]) for columns in ([0, 2, 4, 5, 7], [1, 3, 6])
    ]
    tables = _CountTables(support, STUDY_ENDS)
    together = tables.fit(datasets)
    assert len(together) == len(datasets)
    for dataset, rows in zip(datasets, together):
        # the tables reuse the larger buffer of the joint fit
        (alone,) = tables.fit([dataset])
        for name, value in vars(alone).items():
            np.testing.assert_array_equal(getattr(rows, name), value, err_msg=name)
    # failed rows, with their NaN covariances, are compared too
    ok = np.concatenate([rows.ok for rows in together])
    assert (~ok).any() and (ok.any() or m <= k)


def test_sweep_makes_one_newton_solve_per_chunk(example3_scenario, monkeypatch):
    rows = []
    newton = cox._newton

    def counted(sets):
        rows.append(sets.n_rows)
        return newton(sets)

    monkeypatch.setattr(cox, "_newton", counted)
    grid = [1.0, 2.0, 4.0, 7.0, 10.0, math.inf]
    bias_sweep(example3_scenario, grid, replicates=100)
    # 17 chunks of at most 6 replicates; each solve fits the pooled data
    # and both trials at every study end
    assert len(rows) == 17
    assert sum(rows) == 3 * len(grid) * 100


def _sweep_by_replicate(scenario, grid, replicates):
    """The sweep as a per-replicate loop over censored copies of the data."""
    q = scenario.covariate_dist.arm_probability()
    theta_pl = np.full((replicates, len(grid)), np.nan)
    theta_m = np.full_like(theta_pl, np.nan)
    frac = np.full_like(theta_pl, np.nan)
    for r in range(replicates):
        latent = simulate_scenario(scenario, r)
        for g, t_max in enumerate(grid):
            censored = [censor_administrative(d, t_max) for d in latent]
            pooled = pool(censored)
            frac[r, g] = 1.0 - pooled.events.mean()
            try:
                pl = fit_cox(pooled).beta_hat[0]
                a, b = (fit_cox(d).beta_hat for d in censored)
                if q is None:
                    m = solve_theta_pl_general(a, b, scenario.mixing_p, scenario.covariate_dist)[0]
                else:
                    c = solve_cpl_binary(math.exp(a[0]), math.exp(b[0]), scenario.mixing_p, q)
                    m = math.log(c)
                theta_m[r, g] = m
                theta_pl[r, g] = pl
            except HrmixError:
                continue
    failed = np.isnan(theta_pl) | np.isnan(theta_m)
    keep = np.where(failed, np.nan, 1.0)
    return failed.sum(axis=0), [np.nanmean(v * keep, axis=0) for v in (theta_pl, theta_m, frac)]


# tiny trials and short study ends: many replicates lose their events
# or their contrast, or a covariate separates their events
TINY = ScenarioSpec(
    trial_effects=[[math.log(0.3)], [math.log(0.8)]],
    sizes=(7, 5),
    covariate_dist=CovariateDistribution.bernoulli(0.5),
    seed=11,
)
TINY_GRID = [0.15, 0.5, 2.0, math.inf]


def test_degenerate_sweep_matches_per_replicate_loop():
    result = bias_sweep(TINY, TINY_GRID, replicates=100)
    n_failed, (pl_mean, m_mean, frac_mean) = _sweep_by_replicate(TINY, TINY_GRID, 100)
    np.testing.assert_array_equal(result.n_failed, n_failed)
    assert result.n_failed[0] > 50 and 0 < result.n_failed[-1] < 100
    np.testing.assert_allclose(result.theta_pl_mean, pl_mean, rtol=0, atol=1e-12)
    np.testing.assert_allclose(result.theta_m_mean, m_mean, rtol=0, atol=1e-12)
    np.testing.assert_array_equal(result.censored_fraction, frac_mean)


# arm plus a binary stratum: the plug-in is the general solve
STRATIFIED = ScenarioSpec(
    trial_effects=[[math.log(0.3), 0.4], [math.log(0.8), -0.2]],
    sizes=(12, 9),
    covariate_dist=CovariateDistribution(
        support=np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]),
        probs=np.array([0.3, 0.3, 0.2, 0.2]),
    ),
    seed=12,
)


def test_stratified_sweep_matches_per_replicate_loop():
    result = bias_sweep(STRATIFIED, TINY_GRID, replicates=100)
    n_failed, (pl_mean, m_mean, frac_mean) = _sweep_by_replicate(STRATIFIED, TINY_GRID, 100)
    np.testing.assert_array_equal(result.n_failed, n_failed)
    assert result.n_failed[0] > 50 and 0 < result.n_failed[-1] < 100
    np.testing.assert_allclose(result.theta_pl_mean, pl_mean, rtol=0, atol=1e-12)
    np.testing.assert_allclose(result.theta_m_mean, m_mean, rtol=0, atol=1e-12)
    np.testing.assert_array_equal(result.censored_fraction, frac_mean)


# more support points than the count tables serve: the sweep fits by
# running sums over the subjects
WIDE = ScenarioSpec(
    trial_effects=[[math.log(0.3)], [math.log(0.8)]],
    sizes=(12, 9),
    covariate_dist=CovariateDistribution(
        support=np.linspace(-1.0, 1.0, 10)[:, None], probs=np.full(10, 0.1)
    ),
    seed=13,
)


def test_wide_law_sweep_matches_per_replicate_loop(monkeypatch):
    support = WIDE.covariate_dist.support
    assert len(support) > analysis._TABLE_LEVELS_PER_COVARIATE * support.shape[1]
    monkeypatch.setattr(analysis, "_CountTables", None)
    result = bias_sweep(WIDE, TINY_GRID, replicates=100)
    n_failed, (pl_mean, m_mean, frac_mean) = _sweep_by_replicate(WIDE, TINY_GRID, 100)
    np.testing.assert_array_equal(result.n_failed, n_failed)
    assert result.n_failed[0] > 50
    np.testing.assert_allclose(result.theta_pl_mean, pl_mean, rtol=0, atol=1e-12)
    np.testing.assert_allclose(result.theta_m_mean, m_mean, rtol=0, atol=1e-12)
    np.testing.assert_array_equal(result.censored_fraction, frac_mean)


@pytest.mark.parametrize(
    "scenario", [TINY, STRATIFIED, WIDE], ids=["tiny", "stratified", "wide"]
)
def test_sweep_does_not_depend_on_chunk(scenario, monkeypatch):
    # the rows of a chunk share one Newton solve, yet no row reads another
    base = bias_sweep(scenario, TINY_GRID, replicates=100)
    for chunk in (1, 7, 100):
        monkeypatch.setattr(analysis, "_SWEEP_CHUNK", chunk)
        result = bias_sweep(scenario, TINY_GRID, replicates=100)
        for name, value in vars(base).items():
            np.testing.assert_array_equal(getattr(result, name), value, err_msg=name)


def test_plugin_failure_stays_with_its_cell(monkeypatch):
    # a plug-in cell the binary rule cannot certify fails alone: the one
    # batched solve keeps every other cell's root
    base = bias_sweep(TINY, TINY_GRID, replicates=100)
    _, _, effects = analysis._sweep_fits(TINY, np.asarray(TINY_GRID), 100)
    a_hat, b_hat = np.exp(effects[..., 0])
    pairs = list(zip(a_hat.ravel(), b_hat.ravel()))
    # the first solved cell whose (a, b) no other cell shares
    r, g = next(
        np.unravel_index(i, a_hat.shape)
        for i, (a, b) in enumerate(pairs)
        if np.isfinite(a) and a != b and pairs.count((a, b)) == 1
    )
    cell = (float(a_hat[r, g]), float(b_hat[r, g]))
    rule = estimators._cpl_binary_rule

    def uncertified_at_cell(rates, *args, refined=False):
        c, certified = rule(rates, *args, refined=refined)
        return c, certified & ~((rates[0] == cell[0]) & (rates[1] == cell[1]))

    monkeypatch.setattr(estimators, "_cpl_binary_rule", uncertified_at_cell)
    result = bias_sweep(TINY, TINY_GRID, replicates=100)
    expected = base.n_failed.copy()
    expected[g] += 1
    np.testing.assert_array_equal(result.n_failed, expected)
    others = np.arange(len(TINY_GRID)) != g
    for name, value in vars(base).items():
        if np.ndim(value):
            got = getattr(result, name)
            np.testing.assert_array_equal(got[others], value[others], err_msg=name)
        else:
            assert getattr(result, name) == value

    # the public solvers name the cell they cannot certify
    p, q = TINY.mixing_p, TINY.covariate_dist.arm_probability()
    c = estimators._pooled_limit_binary([[1.5, cell[0]], [0.5, cell[1]]], [p, 1 - p], q, np.inf)
    assert np.isnan(c).tolist() == [False, True]
    for solve, args, upper in (
        (solve_cpl_binary, (), 50.0),
        (solve_censored_binary, (2.0,), 2.0),
    ):
        named = f"(a, b, p, q) = {(*cell, p, q)} on [0, {upper}]"
        with pytest.raises(NonConvergenceError, match=re.escape(named)):
            solve([1.5, cell[0]], [0.5, cell[1]], p, q, *args)
