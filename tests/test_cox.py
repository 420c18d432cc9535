import math
from dataclasses import replace

import numpy as np
import pytest

from hrmix import (
    DegenerateDataError,
    TrialDataset,
    breslow_cumhaz,
    fit_cox,
    pool,
    replicate_stream,
    simulate_scenario,
    simulate_trial,
    solve_cpl_binary,
)
from hrmix.data import CovariateDistribution

from conftest import (
    EXAMPLE3_P,
    grid_search_beta,
    naive_log_partial_likelihood,
)


def _dataset(times, events, z, label="t"):
    z = np.asarray(z, dtype=float)
    if z.ndim == 1:
        z = z[:, None]
    return TrialDataset(
        times=np.asarray(times, dtype=float),
        events=np.asarray(events),
        covariates=z,
        trial_ids=np.full(len(times), label, dtype=object),
        label=label,
    )


class TestFitCoxOracle:
    def test_four_subject_grid_search(self):
        # Newton maximizer against an exhaustive scan of the exact
        # partial likelihood on [-3, 3] with step 1e-3
        data = _dataset([1.0, 2.0, 3.0, 4.0], [1, 1, 1, 1], [1.0, 0.0, 1.0, 0.0])
        fit = fit_cox(data)
        oracle, _ = grid_search_beta(data.times, data.events, data.covariates)
        assert abs(fit.beta_hat[0] - oracle) <= 2e-3

    def test_random_small_datasets_match_grid_search(self):
        rng = np.random.default_rng(42)
        checked = 0
        while checked < 10:
            n = int(rng.integers(3, 9))
            times = rng.exponential(size=n)
            events = rng.integers(0, 2, size=n)
            z = rng.integers(0, 2, size=n).astype(float)
            if events.sum() == 0 or z.min() == z.max():
                continue
            data = _dataset(times, events, z)
            try:
                fit = fit_cox(data)
            except DegenerateDataError:
                continue  # separation; the grid maximum sits on the boundary
            if abs(fit.beta_hat[0]) > 2.9:
                continue  # outside the oracle lattice
            oracle, _ = grid_search_beta(times, events, z)
            assert abs(fit.beta_hat[0] - oracle) <= 2e-3
            checked += 1

    def test_loglik_matches_naive_enumeration(self):
        rng = np.random.default_rng(7)
        n = 40
        times = rng.exponential(size=n)
        events = rng.integers(0, 2, size=n)
        z = rng.normal(size=(n, 2))
        data = _dataset(times, events, z)
        fit = fit_cox(data)
        naive = naive_log_partial_likelihood(times, events, z, fit.beta_hat)
        assert fit.log_partial_likelihood == pytest.approx(naive, abs=1e-9)

    def test_tied_times_match_grid_search(self):
        # tie blocks share one risk set; the oracle enumerates it directly
        times = [1.0, 1.0, 2.0, 2.0, 2.0, 3.0, 4.0, 4.0]
        events = [1, 1, 1, 0, 1, 1, 1, 0]
        z = [1.0, 0.0, 1.0, 1.0, 0.0, 0.0, 1.0, 0.0]
        data = _dataset(times, events, z)
        fit = fit_cox(data)
        oracle, oracle_ll = grid_search_beta(times, events, z)
        assert abs(fit.beta_hat[0] - oracle) <= 2e-3
        naive = naive_log_partial_likelihood(times, events, z, fit.beta_hat)
        assert fit.log_partial_likelihood == pytest.approx(naive, abs=1e-10)
        assert fit.log_partial_likelihood >= oracle_ll


class TestFitCoxDegenerate:
    def test_constant_covariate(self):
        data = _dataset([1.0, 2.0, 3.0], [1, 1, 1], [1.0, 1.0, 1.0])
        with pytest.raises(DegenerateDataError):
            fit_cox(data)

    def test_no_events(self):
        data = _dataset([1.0, 2.0], [0, 0], [0.0, 1.0])
        with pytest.raises(DegenerateDataError):
            fit_cox(data)

    def test_perfect_separation(self):
        # all treated die before any control: monotone likelihood
        data = _dataset([1.0, 2.0, 3.0, 4.0], [1, 1, 1, 1], [1.0, 1.0, 0.0, 0.0])
        with pytest.raises(DegenerateDataError):
            fit_cox(data)

    def test_no_covariates(self):
        data = TrialDataset(
            times=[1.0, 2.0],
            events=[1, 1],
            covariates=np.empty((2, 0)),
            trial_ids=np.array(["t", "t"], dtype=object),
            label="t",
        )
        with pytest.raises(DegenerateDataError):
            fit_cox(data)


class TestFitCoxConsistency:
    def test_trial1_recovers_log_hr(self, example3_scenario):
        data = simulate_scenario(example3_scenario, replicate=0)[0]
        fit = fit_cox(data)
        se = math.sqrt(fit.covariance[0, 0])
        assert abs(fit.beta_hat[0] - math.log(0.3)) <= 3 * se

    def test_pooled_fit_tracks_solver_limit(self, example3_scenario):
        # cross-module agreement: a large pooled uncensored fit approaches
        # the limiting value produced by the estimating-equation solver
        big = replace(example3_scenario, sizes=(80_000, 34_000), seed=99)
        fit = fit_cox(pool(simulate_scenario(big, replicate=0)))
        limit = math.log(solve_cpl_binary(0.3, 0.8, EXAMPLE3_P, 0.5))
        se = math.sqrt(fit.covariance[0, 0])
        assert abs(fit.beta_hat[0] - limit) <= 3 * se


@pytest.fixture(scope="module")
def fitted(example3_scenario):
    data = pool(simulate_scenario(example3_scenario, replicate=2))
    return data, fit_cox(data)


class TestFitCoxInvariants:

    def test_score_norm(self, fitted):
        data, fit = fitted
        assert fit.report.residual_norm <= 1e-8 * len(data)

    def test_permutation_invariance(self, fitted):
        data, fit = fitted
        rng = np.random.default_rng(0)
        perm = rng.permutation(len(data))
        shuffled = TrialDataset(
            times=data.times[perm],
            events=data.events[perm],
            covariates=data.covariates[perm],
            trial_ids=data.trial_ids[perm],
            label=data.label,
        )
        refit = fit_cox(shuffled)
        np.testing.assert_allclose(refit.beta_hat, fit.beta_hat, atol=1e-9)

    def test_relabeling_invariance(self, fitted):
        data, fit = fitted
        relabeled = TrialDataset(
            times=data.times,
            events=data.events,
            covariates=data.covariates,
            trial_ids=np.array([f"x_{t}" for t in data.trial_ids], dtype=object),
            label="renamed",
        )
        refit = fit_cox(relabeled)
        np.testing.assert_allclose(refit.beta_hat, fit.beta_hat, atol=1e-12)

    def test_loglik_improves_on_null(self, fitted):
        data, fit = fitted
        null_ll = naive_log_partial_likelihood(
            data.times, data.events, data.covariates, np.zeros(data.k)
        )
        assert fit.log_partial_likelihood >= null_ll

    def test_covariance_symmetric_psd(self, fitted):
        _, fit = fitted
        np.testing.assert_allclose(fit.covariance, fit.covariance.T)
        assert np.all(np.linalg.eigvalsh(fit.covariance) > 0)


class TestBreslow:
    def test_single_arm_identity_cumhaz(self):
        rng = replicate_stream(21, 0)
        n = 100_000
        data = TrialDataset(
            times=rng.exponential(size=n),
            events=np.ones(n, dtype=np.int64),
            covariates=np.empty((n, 0)),
            trial_ids=np.full(n, "t", dtype=object),
            label="t",
        )
        curve = breslow_cumhaz(data)
        for t in (0.5, 1.0, 2.0):
            idx = np.searchsorted(curve.event_times, t)
            assert curve.cumulative[idx - 1] == pytest.approx(t, rel=0.02)

    def test_uncensored_increments_are_single_events(self):
        rng = replicate_stream(22, 0)
        data = simulate_trial(math.log(0.5), 500, CovariateDistribution.bernoulli(0.5), rng=rng)
        fit = fit_cox(data)
        curve = breslow_cumhaz(data, fit.beta_hat)
        # continuous times: one event per distinct time, so each increment
        # is exactly 1 / (risk-set sum), checked by direct enumeration
        assert curve.event_times.size == len(data)
        w = np.exp(data.covariates @ fit.beta_hat)
        for t, inc in list(zip(curve.event_times, curve.increments))[::97]:
            denom = w[data.times >= t].sum()
            assert inc == pytest.approx(1.0 / denom, rel=1e-12)

    def test_trial_of_paired_exponentials_has_unit_slope(self):
        # one trial with treated Exp(0.5) and control Exp(1): the baseline
        # cumulative-hazard estimate is asymptotically the identity
        rng = replicate_stream(23, 0)
        n = 60_000
        times = np.concatenate(
            [rng.exponential(scale=2.0, size=n), rng.exponential(size=n)]
        )
        data = TrialDataset(
            times=times,
            events=np.ones(2 * n, dtype=np.int64),
            covariates=np.vstack([np.ones((n, 1)), np.zeros((n, 1))]),
            trial_ids=np.full(2 * n, "t", dtype=object),
            label="t",
        )
        fit = fit_cox(data)
        curve = breslow_cumhaz(data, fit.beta_hat)
        for t in (0.5, 1.0, 1.5):
            idx = np.searchsorted(curve.event_times, t)
            assert curve.cumulative[idx - 1] == pytest.approx(t, rel=0.03)

    def test_cumulative_nondecreasing(self, example3_scenario):
        data = pool(simulate_scenario(example3_scenario, replicate=4))
        fit = fit_cox(data)
        curve = breslow_cumhaz(data, fit.beta_hat)
        assert np.all(np.diff(curve.cumulative) >= 0)
        assert np.all(np.diff(curve.event_times) > 0)
        assert np.all(curve.increments > 0)
