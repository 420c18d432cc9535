"""The batched Cox fitter against the scalar loop it replaced, and the
replicate-batched censoring sweep against a per-replicate loop."""

import math

import numpy as np
import pytest

from hrmix import (
    CovariateDistribution,
    HrmixError,
    NonConvergenceError,
    ScenarioSpec,
    TrialDataset,
    bias_sweep,
    censor_administrative,
    fit_cox,
    fit_cox_rows,
    pool,
    simulate_scenario,
    solve_cpl_binary,
)
from hrmix import analysis

from conftest import naive_log_partial_likelihood, reference_fit_cox


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
                a, b = (math.exp(fit_cox(d).beta_hat[0]) for d in censored)
                theta_m[r, g] = math.log(solve_cpl_binary(a, b, scenario.mixing_p, q))
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


def test_plugin_failure_stays_with_its_cell(monkeypatch):
    # when the batched plug-in solve raises, the cells are solved one at
    # a time and only the failing cell is lost
    base = bias_sweep(TINY, TINY_GRID, replicates=100)
    raised = []

    def flaky(a, b, p, q):
        if np.ndim(a) > 0 or len(raised) == 1:
            raised.append(a)
            raise NonConvergenceError("injected")
        return solve_cpl_binary(a, b, p, q)

    monkeypatch.setattr(analysis, "solve_cpl_binary", flaky)
    result = bias_sweep(TINY, TINY_GRID, replicates=100)
    assert len(raised) == 2
    assert np.all(result.n_failed >= base.n_failed)
    assert result.n_failed.sum() == base.n_failed.sum() + 1
