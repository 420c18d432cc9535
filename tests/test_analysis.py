import itertools
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hrmix import (
    AdministrativeCensoring,
    CovariateDistribution,
    ExponentialCensoring,
    NonConvergenceError,
    ScenarioSpec,
    bias_sweep,
    breslow_limit,
    breslow_limit_at_infinity,
    breslow_limit_at_zero,
    breslow_limit_hazard,
    figure2_grid,
    kl_gradient,
    kl_objective,
    proposition3_check,
    solve_cpl_binary,
    solve_theta_hm_general,
    table1_grid,
)
from hrmix import analysis
from hrmix.analysis import (
    SweepResult,
    write_breslow_csv,
    write_grid_csv,
    write_sweep_csv,
)
from hrmix.estimators import _pl_root

from conftest import EXAMPLE3_P


class TestProposition3:
    def test_flags_hold(self):
        rep = proposition3_check(0.4, 0.9, 0.3, 0.6)
        assert rep.chain_hm_holds and rep.chain_pl_holds and not rep.boundary

    def test_reference_cell_ordering(self):
        rep = proposition3_check(0.5, 1.0, 0.5, 0.5)
        assert rep.c_hm == pytest.approx(2.0 / 3.0, abs=1e-12)
        assert rep.exp_theta_l == pytest.approx(math.sqrt(0.5), abs=1e-12)
        assert rep.c_l == pytest.approx(0.75, abs=1e-12)
        assert rep.c_hm < rep.exp_theta_l < rep.c_l
        assert 0.5 < rep.c_pl < rep.c_l
        assert rep.c_pl == pytest.approx(0.682, abs=0.015)

    def test_boundary_case(self):
        rep = proposition3_check(0.8, 0.8, 0.4, 0.3)
        assert rep.boundary
        assert not rep.chain_hm_holds and not rep.chain_pl_holds
        assert all(abs(m) < 1e-9 for m in rep.margins_hm)

    @given(
        a=st.floats(0.1, 2.0),
        gap=st.floats(0.1, 1.0),
        p=st.floats(0.1, 0.9),
        q=st.floats(0.1, 0.9),
    )
    @settings(max_examples=30, deadline=None)
    def test_orderings_property(self, a, gap, p, q):
        rep = proposition3_check(a, a + gap, p, q)
        assert rep.chain_hm_holds and rep.chain_pl_holds


_SWEEP_SUMMARIES = (
    "theta_pl_mean",
    "theta_pl_lo",
    "theta_pl_hi",
    "theta_m_mean",
    "theta_m_lo",
    "theta_m_hi",
    "censored_fraction",
)


@pytest.fixture(scope="module")
def small_sweep(example3_scenario):
    return bias_sweep(example3_scenario, [1.0, 2.0, 4.0, math.inf], replicates=100)


class TestBiasSweep:

    def test_uncensored_mean_near_limit(self, small_sweep):
        limit = math.log(solve_cpl_binary(0.3, 0.8, EXAMPLE3_P, 0.5))
        assert small_sweep.theta_pl_mean[-1] == pytest.approx(limit, abs=0.05)

    def test_censored_fraction(self, small_sweep):
        assert small_sweep.censored_fraction[0] == pytest.approx(0.51, abs=0.03)

    def test_plugin_is_censoring_robust(self, small_sweep):
        # the plug-in keeps targeting the uncensored limit at t_max = 1
        limit = math.log(solve_cpl_binary(0.3, 0.8, EXAMPLE3_P, 0.5))
        assert small_sweep.theta_m_mean[0] == pytest.approx(limit, abs=0.05)
        assert small_sweep.theta_pl_mean[0] > small_sweep.theta_pl_mean[-1]

    def test_percentiles_bracket_means(self, small_sweep):
        assert np.all(small_sweep.theta_pl_lo <= small_sweep.theta_pl_mean)
        assert np.all(small_sweep.theta_pl_mean <= small_sweep.theta_pl_hi)
        assert np.all(small_sweep.n_failed == 0)

    def test_pooled_bias_decays_monotonically(self, small_sweep):
        # positive censoring bias shrinking toward the uncensored value as
        # the study end grows; the shared latent draws make this a paired
        # comparison, so 100 replicates separate the grid points cleanly
        assert np.all(np.diff(small_sweep.theta_pl_mean) < 0)
        assert np.all(small_sweep.theta_pl_mean[:-1] > small_sweep.theta_pl_mean[-1])

    def test_study_end_where_every_replicate_fails(self, example3_scenario):
        # tiny trials: every fit fails at t_max = 0.01, about half survive
        # without censoring
        tiny = replace(example3_scenario, sizes=(7, 5))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = bias_sweep(tiny, [0.01, math.inf], replicates=100)
        assert result.n_failed[0] == 100 and result.n_failed[1] < 100
        fields = (
            "theta_pl_mean",
            "theta_pl_lo",
            "theta_pl_hi",
            "theta_m_mean",
            "theta_m_lo",
            "theta_m_hi",
            "censored_fraction",
        )
        assert all(np.isnan(getattr(result, f)[0]) for f in fields)
        # the other study end is summarized as if it were alone
        alone = bias_sweep(tiny, [math.inf], replicates=100)
        for f in fields:
            assert getattr(result, f)[1] == pytest.approx(getattr(alone, f)[0], rel=1e-13)

    @pytest.mark.parametrize("failing, grown", [({0, 2, 4}, [3, 0]), ({1, 7, 199}, [0, 3])])
    def test_failed_general_plugin_cell_counts_as_failed(self, monkeypatch, failing, grown):
        # a 3-point law takes the plug-in's one-cell general solve, whose
        # call r * 2 + g is the cell of replicate r at study end g
        law = CovariateDistribution(support=[[0.0], [0.5], [1.0]], probs=[0.3, 0.3, 0.4])
        spec = ScenarioSpec(
            trial_effects=([math.log(0.5)], [math.log(1.5)]),
            sizes=(60, 40),
            covariate_dist=law,
            seed=11,
        )
        real, values = analysis._pl_root, []

        def sweep(fail):
            calls = itertools.count()

            def solve(*args, **kwargs):
                if next(calls) in fail:
                    raise NonConvergenceError("injected failure")
                out = real(*args, **kwargs)
                values.append(out[0][0])
                return out

            monkeypatch.setattr(analysis, "_pl_root", solve)
            return bias_sweep(spec, [2.0, math.inf], replicates=100)

        before = sweep(set())
        assert len(values) == 200 and np.all(before.n_failed == 0)
        theta = np.reshape(values, (100, 2))
        after = sweep(failing)
        assert list(after.n_failed) == grown
        for g in range(2):
            if not grown[g]:
                for f in _SWEEP_SUMMARIES:
                    assert getattr(after, f)[g] == getattr(before, f)[g]
                continue
            kept = theta[[r for r in range(100) if r * 2 + g not in failing], g]
            assert after.theta_m_mean[g] == pytest.approx(kept.mean(), rel=1e-12)
            assert after.theta_m_lo[g] == pytest.approx(np.percentile(kept, 2.5), rel=1e-12)
            assert after.theta_m_hi[g] == pytest.approx(np.percentile(kept, 97.5), rel=1e-12)

    def test_plugin_cell_out_of_range_fails_alone(self):
        # e^{beta z} overflows in cell 1's general solve, which fails that
        # cell with a typed error and leaves cell 0 solved
        law = CovariateDistribution(support=[[0.0], [0.5], [1.0]], probs=[0.3, 0.3, 0.4])
        effects = np.array([[[-0.7], [800.0]], [[0.4], [0.4]]])  # (trials, cells, k)
        got = analysis._sweep_plugin(effects, [0.6, 1 - 0.6], law)
        assert np.isnan(got[1])
        assert got[0] == _pl_root([np.array([-0.7]), np.array([0.4])], [0.6, 1 - 0.6], law)[0][0]

    def test_validation(self, example3_scenario):
        with pytest.raises(ValueError):
            bias_sweep(example3_scenario, [1.0], replicates=50)
        with pytest.raises(ValueError):
            bias_sweep(example3_scenario, [], replicates=100)
        with pytest.raises(ValueError):
            bias_sweep(example3_scenario, [-1.0, 2.0], replicates=100)

    @pytest.mark.parametrize(
        "censoring",
        [ExponentialCensoring(rate=0.7), AdministrativeCensoring(t_max=3.0)],
        ids=["exponential", "administrative"],
    )
    def test_rejects_censoring_it_would_ignore(self, example3_scenario, censoring):
        # the sweep draws latent times and censors only at its study ends
        spec = replace(example3_scenario, censoring=censoring)
        with pytest.raises(ValueError, match="scenario's censoring must be none"):
            bias_sweep(spec, [1.0, math.inf], replicates=100)

    def test_rejects_overflowing_latent_time(self, example3_scenario):
        # e^-720 is subnormal, so every treated time overflowed: the sweep
        # warned and returned NaN at every study end
        spec = replace(example3_scenario, trial_effects=((-720.0,), (-0.2,)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="latent event time overflows"):
                bias_sweep(spec, [1.0, math.inf], replicates=100)

    @pytest.mark.parametrize(
        "law",
        [
            CovariateDistribution.bernoulli(0.5),
            CovariateDistribution(support=[[0.0], [0.5], [1.0]], probs=[0.3, 0.3, 0.4]),
        ],
        ids=["binary", "3-point"],
    )
    def test_three_trials(self, law):
        # each plug-in cell is the general pooled limit of its three trial
        # fits, weighted by size share
        sizes = (400, 170, 200)
        spec = ScenarioSpec(
            trial_effects=([math.log(0.3)], [math.log(0.8)], [0.1]),
            sizes=sizes,
            covariate_dist=law,
            seed=20260808,
        )
        grid = np.array([1.0, 4.0, math.inf])
        result = bias_sweep(spec, grid, replicates=100)
        assert np.all(result.n_failed == 0)
        _, _, effects = analysis._sweep_fits(spec, grid, 100)
        weights = [n / sum(sizes) for n in sizes]
        theta_m = analysis._sweep_plugin(effects, weights, law)
        np.testing.assert_allclose(result.theta_m_mean, theta_m.mean(axis=0), rtol=1e-12)
        for r, g in np.ndindex(theta_m.shape):
            theta, _ = _pl_root(list(effects[:, r, g]), weights, law)
            assert abs(theta_m[r, g] - theta[0]) <= 1e-9, (r, g)

    @pytest.mark.parametrize("t_max", [[math.inf, math.inf], [1.0, math.nan]])
    def test_result_rejects_repeated_or_nan_study_end(self, t_max):
        # inf - inf and 1 - nan are NaN, which no test of a difference catches
        nan = np.full(2, np.nan)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="strictly ascending"):
                SweepResult(t_max, *[nan] * 7, np.zeros(2, dtype=int), 100, 0)


@pytest.fixture(scope="module")
def table():
    return table1_grid()


class TestGrids:

    def test_all_21_cells_populated(self, table):
        populated = np.isfinite(table.c_pl).sum()
        assert populated == 21
        assert np.isfinite(table.c_hm).sum() == 21

    def test_closed_forms(self, table):
        for i, a in enumerate(table.a_values):
            for j, b in enumerate(table.b_values):
                if b < a:
                    continue
                assert table.c_l[i, j] == pytest.approx(0.5 * a + 0.5 * b, abs=1e-10)
                assert table.exp_theta_l[i, j] == pytest.approx(math.sqrt(a * b), abs=1e-10)
                assert table.c_hm[i, j] == pytest.approx(1.0 / (0.5 / a + 0.5 / b), abs=1e-10)

    def test_diagonal_cells_equal(self, table):
        for i, a in enumerate(table.a_values):
            j = list(table.b_values).index(a)
            assert table.pct_hm_vs_pl[i, j] == pytest.approx(0.0, abs=1e-8)
            assert table.pct_expl_vs_pl[i, j] == pytest.approx(0.0, abs=1e-8)
            assert table.pct_expl_vs_hm[i, j] == pytest.approx(0.0, abs=1e-8)

    def test_reference_row_a1_b2(self, table):
        i = list(table.a_values).index(1.0)
        j = list(table.b_values).index(2.0)
        assert table.c_hm[i, j] == pytest.approx(1.340, abs=0.015)
        assert table.c_pl[i, j] == pytest.approx(1.327, abs=0.015)
        assert table.exp_theta_l[i, j] == pytest.approx(1.414, abs=0.015)
        assert table.c_l[i, j] == pytest.approx(1.505, abs=0.015)

    def test_figure_grid_rule_of_thumb_region(self):
        # for moderate a < b < 1 the expected pattern is
        # c_hm < c_pl < exp(theta_l)
        grid = figure2_grid(a_range=(0.55, 0.95), b_range=(0.55, 0.95), resolution=0.1)
        for i, a in enumerate(grid.a_values):
            for j, b in enumerate(grid.b_values):
                if b <= a:
                    continue
                assert grid.c_hm[i, j] < grid.c_pl[i, j] < grid.exp_theta_l[i, j]

    def test_figure_grid_shapes(self):
        grid = figure2_grid(a_range=(0.5, 1.0), b_range=(0.5, 1.5), resolution=0.25)
        assert grid.c_pl.shape == (3, 5)
        assert np.isfinite(grid.c_pl).all()


class TestBreslowLimit:
    def test_endpoint_values(self):
        a, b, p = 0.5, 1.0, 0.5
        c_star = solve_cpl_binary(a, b, p, 0.5)
        h0 = breslow_limit_hazard(0.0, a, b, p, c_star)
        assert h0 == pytest.approx((p * a + (1 - p) * b + 1) / (c_star + 1), abs=1e-12)
        assert breslow_limit_at_zero(a, b, p, c_star) == pytest.approx(h0, abs=1e-15)
        tail = breslow_limit_hazard(400.0, a, b, p, c_star)
        assert tail == pytest.approx(a / c_star, abs=1e-12)
        assert breslow_limit_at_infinity(a, b, p, c_star) == pytest.approx(a / c_star, abs=1e-15)

    def test_hazard_finite_where_every_exponential_underflows(self):
        # e^-1000 and e^-2000 are 0, so the unscaled ratio was 0 / 0; and
        # a * t overflowed at a = t = 1e300
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            tail = breslow_limit_hazard([2000.0], 0.5, 1.0, 0.5, 0.7)
            far = breslow_limit_hazard([1e300], 1e300, 1.0, 0.5, 0.7)
            assert far[0] == breslow_limit_at_infinity(1e300, 1.0, 0.5, 0.7)
        assert tail[0] == pytest.approx(0.5 / 0.7, rel=1e-15)

    @pytest.mark.parametrize(
        "a, b",
        [(2.0, 3.0), (1.0, 2.0), (2.0, 1.0), (1.0, 1.0), (3.0, 0.5), (0.5, 1.0), (0.5, 0.5), (1.0, 0.3)],
    )
    def test_limit_at_infinity_is_the_tail(self, a, b):
        # unless min(a, b) < 1, the control group (rate 1) decays no faster
        # than the treated: at (2, 3) the hazard is 1.0 where min(a, b) /
        # c_star read 0.843
        c_star = float(solve_cpl_binary(a, b, 0.5, 0.5))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            tail = breslow_limit_hazard(400.0, a, b, 0.5, c_star)
            limit = breslow_limit_at_infinity(a, b, 0.5, c_star)
        assert limit == pytest.approx(tail, rel=1e-12)

    def test_homogeneous_is_flat(self):
        t = np.linspace(0, 5, 50)
        curve = breslow_limit_hazard(t, 0.7, 0.7, 0.4, 0.7)
        np.testing.assert_allclose(curve, 1.0, atol=1e-12)

    def test_crosses_unity_once(self):
        a, b, p = 0.5, 1.0, 0.5
        c_star = solve_cpl_binary(a, b, p, 0.5)
        t = np.linspace(0.0, 30.0, 20_000)
        sign = np.sign(breslow_limit_hazard(t, a, b, p, c_star) - 1.0)
        crossings = np.sum(sign[:-1] * sign[1:] < 0)
        assert crossings == 1

    def test_empirical_matches_analytic(self):
        a, b, p = 0.5, 1.0, 0.5
        c_star = solve_cpl_binary(a, b, p, 0.5)
        comparison = breslow_limit(
            a, b, p, c_star, np.linspace(0, 2, 21), n_subjects=40_000, seed=5
        )
        centers, emp, ana = comparison.binned(0.0, 1.5, 5)
        assert np.isfinite(emp).all()
        np.testing.assert_allclose(emp, ana, rtol=0.12)
        assert comparison.fitted_c == pytest.approx(c_star, abs=0.05)

    @pytest.mark.parametrize(
        "kwargs, error",
        [
            ({"p": 1.5}, "p must lie in"),
            ({"p": 0.0}, "p must lie in"),
            ({"a": -1.0}, "hazard ratios must be positive and finite"),
            ({"a": math.inf}, "hazard ratios must be positive and finite"),
            ({"b": math.nan}, "hazard ratios must be positive and finite"),
            ({"c_star": math.nan}, "c_star must be positive and finite"),
            ({"c_star": -1.0}, "c_star must be positive and finite"),
            ({"c_star": math.inf}, "c_star must be positive and finite"),
            ({"t_grid": [math.nan]}, "t_grid must be finite and nonnegative"),
            ({"t_grid": [0.0, math.inf]}, "t_grid must be finite and nonnegative"),
            ({"t_grid": [-1.0, 1.0]}, "t_grid must be finite and nonnegative"),
        ],
    )
    def test_out_of_domain_input_rejected(self, kwargs, error):
        # the library checks what the CLI checks: p = 1.5 would draw 750/750/1/1
        # subjects, a NaN c_star or time give NaN curves, a = -1 raise numpy's "scale < 0"
        args = {"a": 0.5, "b": 1.0, "p": 0.5, "c_star": 0.7, "t_grid": [0.0, 1.0]} | kwargs
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=error):
                breslow_limit(**args, n_subjects=1000)

    @pytest.mark.parametrize(
        "call, error",
        [
            (lambda: breslow_limit_hazard([0.0, 1.0], 0.5, 1.0, 1.5, math.nan), "p must lie in"),
            (lambda: breslow_limit_hazard([0.0, 1.0], 0.5, 1.0, 0.5, math.nan), "c_star"),
            (lambda: breslow_limit_hazard([0.0, math.inf], 0.5, 1.0, 0.5, 0.7), "t must be"),
            (lambda: breslow_limit_hazard([-1.0], 0.5, 1.0, 0.5, 0.7), "t must be"),
            (lambda: breslow_limit_at_zero(0.5, 1.0, 0.5, -1.0), "c_star"),
            (lambda: breslow_limit_at_infinity(0.5, -1.0, 0.5, 1.0), "hazard ratios"),
        ],
        ids=["hazard-p", "hazard-c_star", "hazard-inf-t", "hazard-negative-t", "zero", "infinity"],
    )
    def test_limit_helpers_reject_out_of_domain_input(self, call, error):
        # they returned [nan nan], raised ZeroDivisionError and returned -1.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=error):
                call()

    @pytest.mark.parametrize(
        "bins, error",
        [
            ((1.0, 0.0, 3), "finite t_lo < t_hi"),
            ((1.0, 1.0, 3), "finite t_lo < t_hi"),
            ((0.0, math.inf, 3), "finite t_lo < t_hi"),
            ((math.nan, 1.0, 3), "finite t_lo < t_hi"),
            ((0.0, 1.0, 0), "n_bins must be at least 1"),
            ((0.0, 1.0, 2.5), "n_bins must be an integer"),
        ],
    )
    def test_binned_rejects_bad_bins(self, bins, error):
        # (1, 0, 3) would give descending bins and (0, 1, 0) empty arrays
        comparison = breslow_limit(0.5, 1.0, 0.5, 0.7, [0.0, 1.0], n_subjects=1000, window=50)
        with pytest.raises(ValueError, match=error):
            comparison.binned(*bins)


class TestKlObjective:
    def test_gradient_zero_at_harmonic_mean(self, bernoulli_half):
        alpha, beta, p = [math.log(0.3)], [math.log(0.8)], 0.7
        theta = solve_theta_hm_general(alpha, beta, p, bernoulli_half)
        grad = kl_gradient(theta, alpha, beta, p, bernoulli_half)
        assert np.linalg.norm(grad) < 1e-8

    def test_stationary_at_common_effect(self, bernoulli_half):
        alpha = [0.3]
        grad = kl_gradient(alpha, alpha, alpha, 0.5, bernoulli_half)
        assert np.linalg.norm(grad) < 1e-14

    def test_binary_perturbations_decrease_objective(self, bernoulli_half):
        alpha, beta, p = [math.log(0.3)], [math.log(0.8)], 0.7
        theta = np.array([math.log(1.0 / (p / 0.3 + (1 - p) / 0.8))])
        best = kl_objective(theta, alpha, beta, p, bernoulli_half)
        assert kl_objective(theta + 0.05, alpha, beta, p, bernoulli_half) < best
        assert kl_objective(theta - 0.05, alpha, beta, p, bernoulli_half) < best

    @pytest.mark.parametrize("f", [kl_objective, kl_gradient])
    @pytest.mark.parametrize(
        "theta, p, error",
        [
            ([1e308], 0.5, "not finite"),
            ([math.nan], 0.5, "not finite"),
            ([0.1], 1.5, "p must lie in"),
            ([0.1], 0.0, "p must lie in"),
            ([0.1], math.nan, "p must lie in"),
        ],
        ids=["overflow", "nan-theta", "p-above-1", "p-zero", "p-nan"],
    )
    def test_out_of_domain_input_rejected(self, bernoulli_half, f, theta, p, error):
        # theta = 1e308 let an overflow warning escape; p = 1.5 gave a value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=error):
                f(theta, [-0.5], [0.2], p, bernoulli_half)

    def test_concave_along_line(self, bernoulli_half):
        alpha, beta, p = [math.log(0.3)], [math.log(0.8)], 0.7
        theta = solve_theta_hm_general(alpha, beta, p, bernoulli_half)
        ts = np.linspace(-0.5, 0.5, 5)
        vals = [kl_objective(theta + t, alpha, beta, p, bernoulli_half) for t in ts]
        second = np.diff(vals, 2)
        assert np.all(second < 0)


def _csv_text(header: str, rows) -> str:
    """What every writer promises: fields joined by commas, \\r\\n line ends."""
    return "".join(line + "\r\n" for line in [header, *(",".join(row) for row in rows)])


class TestCsvWriters:
    """Each writer's file, byte for byte: header, row order, floats as repr."""

    def test_sweep_csv(self, tmp_path, example3_scenario):
        # tiny trials: every fit fails at t_max = 0.01, so that row is nan
        tiny = replace(example3_scenario, sizes=(7, 5))
        result = bias_sweep(tiny, [0.01, 1.0, math.inf], replicates=100)
        assert result.n_failed[0] == 100
        path = tmp_path / "sweep.csv"
        write_sweep_csv(result, path)
        fields = [
            result.t_max,
            result.theta_pl_mean,
            result.theta_pl_lo,
            result.theta_pl_hi,
            result.theta_m_mean,
            result.theta_m_lo,
            result.theta_m_hi,
            result.censored_fraction,
        ]
        rows = [
            [repr(float(f[i])) for f in fields] + [str(int(result.n_failed[i])), "100"]
            for i in range(3)
        ]
        assert rows[0][:8] == ["0.01"] + ["nan"] * 7 and rows[2][0] == "inf"
        header = (
            "t_max,theta_pl_mean,theta_pl_p2_5,theta_pl_p97_5,theta_m_mean,"
            "theta_m_p2_5,theta_m_p97_5,censored_fraction,n_failed,replicates"
        )
        assert path.read_bytes().decode("utf-8") == _csv_text(header, rows)

    @staticmethod
    def _grid_text(result) -> str:
        surfaces = ["c_hm", "c_pl", "exp_theta_l", "c_l"]
        surfaces += ["pct_hm_vs_pl", "pct_expl_vs_pl", "pct_expl_vs_hm"]
        rows = [
            [repr(float(a)), repr(float(b))]
            + [repr(float(getattr(result, s)[i, j])) for s in surfaces]
            for i, a in enumerate(result.a_values)
            for j, b in enumerate(result.b_values)
            if np.isfinite(result.c_pl[i, j])
        ]
        header = "a,b,c_hm,c_pl,exp_theta_l,c_l,pct_hm_vs_pl,pct_expl_vs_pl,pct_expl_vs_hm"
        return _csv_text(header, rows)

    def test_grid_csv(self, tmp_path):
        path = tmp_path / "table.csv"
        write_grid_csv(table1_grid(), path)
        text = path.read_bytes().decode("utf-8")
        assert text == self._grid_text(table1_grid())
        lines = text.split("\r\n")
        assert len(lines) == 23 and lines[-1] == ""  # header + 21 populated cells
        assert lines[1].startswith("0.5,0.5,") and lines[2].startswith("0.5,1.0,")

    def test_rectangular_grid_csv(self, tmp_path):
        result = figure2_grid((0.5, 1.0), (0.25, 0.75), 0.25, p=0.3)
        path = tmp_path / "grid.csv"
        write_grid_csv(result, path)
        text = path.read_bytes().decode("utf-8")
        assert text == self._grid_text(result)
        # 3 x 3 cells, b varying fastest
        cells = [line.split(",")[:2] for line in text.split("\r\n")[1:-1]]
        assert cells == [[a, b] for a in ("0.5", "0.75", "1.0") for b in ("0.25", "0.5", "0.75")]

    def test_breslow_csv(self, tmp_path):
        c_star = solve_cpl_binary(0.5, 1.0, 0.5, 0.5)
        comparison = breslow_limit(
            0.5, 1.0, 0.5, c_star, np.linspace(0, 2, 5), n_subjects=4000, seed=1
        )
        path = tmp_path / "breslow.csv"
        write_breslow_csv(comparison, path)
        rows = [
            ["analytic", repr(float(t)), repr(float(v))]
            for t, v in zip(comparison.t_grid, comparison.analytic)
        ]
        rows += [
            ["empirical", repr(float(t)), repr(float(v))]
            for t, v in zip(comparison.block_times, comparison.block_hazard)
        ]
        assert rows[0][1] == "0.0" and len(rows) > 5
        assert path.read_bytes().decode("utf-8") == _csv_text("series,t,value", rows)
