import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hrmix import (
    CovariateDistribution,
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
from hrmix.analysis import (
    write_breslow_csv,
    write_grid_csv,
    write_ordering_csv,
    write_sweep_csv,
)
from hrmix.data import scenario_with

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

    def test_thread_count_invariance(self, example3_scenario, small_sweep):
        threaded = bias_sweep(
            example3_scenario, [1.0, 2.0, 4.0, math.inf], replicates=100, threads=3
        )
        np.testing.assert_array_equal(threaded.theta_pl_mean, small_sweep.theta_pl_mean)
        np.testing.assert_array_equal(threaded.theta_m_mean, small_sweep.theta_m_mean)
        np.testing.assert_array_equal(threaded.censored_fraction, small_sweep.censored_fraction)

    def test_study_end_where_every_replicate_fails(self, example3_scenario):
        # tiny trials: every fit fails at t_max = 0.01, about half survive
        # without censoring
        tiny = scenario_with(example3_scenario, sizes=(7, 5))
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

    def test_validation(self, example3_scenario):
        with pytest.raises(ValueError):
            bias_sweep(example3_scenario, [1.0], replicates=50)
        with pytest.raises(ValueError):
            bias_sweep(example3_scenario, [], replicates=100)
        with pytest.raises(ValueError):
            bias_sweep(example3_scenario, [-1.0, 2.0], replicates=100)


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

    def test_concave_along_line(self, bernoulli_half):
        alpha, beta, p = [math.log(0.3)], [math.log(0.8)], 0.7
        theta = solve_theta_hm_general(alpha, beta, p, bernoulli_half)
        ts = np.linspace(-0.5, 0.5, 5)
        vals = [kl_objective(theta + t, alpha, beta, p, bernoulli_half) for t in ts]
        second = np.diff(vals, 2)
        assert np.all(second < 0)


class TestCsvWriters:
    def test_sweep_csv(self, tmp_path, example3_scenario):
        result = bias_sweep(example3_scenario, [1.0, math.inf], replicates=100)
        path = tmp_path / "sweep.csv"
        write_sweep_csv(result, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0].startswith("t_max,theta_pl_mean")
        assert len(lines) == 3
        assert lines[2].startswith("inf,")

    def test_grid_csv(self, tmp_path):
        path = tmp_path / "table.csv"
        write_grid_csv(table1_grid(), path)
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 22  # header + 21 populated cells

    def test_ordering_csv(self, tmp_path):
        reports = [proposition3_check(0.4, 0.9, 0.3, 0.6), proposition3_check(0.5, 1.0, 0.5, 0.5)]
        path = tmp_path / "ordering.csv"
        write_ordering_csv(reports, path)
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 3

    def test_breslow_csv(self, tmp_path):
        c_star = solve_cpl_binary(0.5, 1.0, 0.5, 0.5)
        comparison = breslow_limit(
            0.5, 1.0, 0.5, c_star, np.linspace(0, 2, 5), n_subjects=4000, seed=1
        )
        path = tmp_path / "breslow.csv"
        write_breslow_csv(comparison, path)
        text = path.read_text()
        assert "analytic" in text and "empirical" in text
