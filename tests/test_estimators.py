import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from hrmix import (
    AdministrativeCensoring,
    CombineMethod,
    CovariateDistribution,
    CustomWeights,
    DimensionMismatchError,
    InverseVariance,
    MissingVarianceError,
    NonConvergenceError,
    ScenarioSpec,
    SingularMatrixError,
    SingularVarianceError,
    SizeProportional,
    TrialAggregate,
    c_hm_binary,
    fit_cox,
    kl_gradient,
    kl_objective,
    linear_hr,
    linear_log_hr,
    pool,
    simulate_scenario,
    solve_censored_binary,
    solve_cpl_binary,
    solve_theta_hm_general,
    solve_theta_pl_general,
    theta_hm_estimate,
    theta_m_estimate,
    theta_pl_sensitivity,
    var_theta_hm_binary,
    var_theta_hm_general,
    wald_test,
)
import hrmix.estimators as estimators
from hrmix.estimators import CombinedEffect, wald_test as _wald

from conftest import EXAMPLE3_P


def _agg(beta, var, n, label=""):
    beta = np.atleast_1d(np.asarray(beta, dtype=float))
    k = beta.shape[0]
    cov = np.eye(k) * var if np.isscalar(var) else np.asarray(var, dtype=float)
    return TrialAggregate(beta_hat=beta, covariance=cov, size=n, label=label)


K2_DIST = CovariateDistribution(
    support=[[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]], probs=[0.25] * 4
)
K2_ALPHA = np.log([0.5, 0.8])
K2_BETA = np.log([0.9, 1.2])


class TestLinearCombiners:
    def test_equal_variance_inverse_weights_average(self):
        aggs = [_agg(math.log(0.5), 0.04, 100), _agg(0.0, 0.04, 100)]
        eff = linear_log_hr(aggs, InverseVariance())
        assert eff.estimate[0] == pytest.approx(math.log(0.5) / 2)
        assert math.exp(eff.estimate[0]) == pytest.approx(0.7071, abs=1e-4)
        assert eff.covariance[0, 0] == pytest.approx(0.25 * 0.04 + 0.25 * 0.04)

    def test_identical_estimates_any_scheme(self):
        aggs = [_agg(-0.3, 0.02, 100), _agg(-0.3, 0.09, 50)]
        for scheme in (InverseVariance(), SizeProportional(), CustomWeights((0.8, 0.2))):
            eff = linear_log_hr(aggs, scheme)
            assert eff.estimate[0] == pytest.approx(-0.3)

    def test_size_weights_give_geometric_mean_hr(self):
        # printed table value 0.705 for exp(theta_L) at a=0.5, b=1, p=0.5
        aggs = [_agg(math.log(0.5), 0.05, 200), _agg(math.log(1.0), 0.05, 200)]
        eff = linear_log_hr(aggs, SizeProportional())
        assert math.exp(eff.estimate[0]) == pytest.approx(0.705, abs=0.015)
        assert eff.mixing_p == pytest.approx(0.5)
        assert eff.method is CombineMethod.LINEAR_LOG

    def test_linear_hr_table_row(self):
        aggs = [_agg(math.log(0.5), 0.05, 100), _agg(math.log(1.0), 0.05, 100)]
        eff = linear_hr(aggs, CustomWeights((0.5, 0.5)), z=1.0)
        assert eff.estimate[0] == pytest.approx(0.750, abs=1e-12)
        assert eff.method is CombineMethod.LINEAR_HR

    def test_linear_hr_baseline_subject(self):
        aggs = [_agg(-0.7, 0.05, 100), _agg(0.4, 0.05, 100)]
        eff = linear_hr(aggs, InverseVariance(), z=0.0)
        assert eff.estimate[0] == pytest.approx(1.0)
        assert eff.covariance[0, 0] == pytest.approx(0.0)

    def test_linear_hr_common_ratio(self):
        aggs = [_agg(math.log(0.6), 0.05, 100), _agg(math.log(0.6), 0.02, 300)]
        eff = linear_hr(aggs, SizeProportional(), z=1.0)
        assert eff.estimate[0] == pytest.approx(0.6)

    def test_single_trial_scale_consistency(self):
        aggs = [_agg([0.5, -0.2], np.eye(2) * 0.01, 100), _agg([0.5, -0.2], np.eye(2) * 0.01, 100)]
        eff = linear_hr(aggs, SizeProportional(), z=[1.0, 1.0])
        np.testing.assert_allclose(eff.estimate, np.exp([0.5, -0.2]))

    @pytest.mark.parametrize(
        "beta, cov",
        [
            (math.nan, [[0.01]]),
            (math.inf, [[0.01]]),
            (-math.inf, [[0.01]]),
            (0.1, [[math.nan]]),
            (0.1, [[math.inf]]),
            (0.1, [[-0.01]]),
            ([0.1, 0.2], [[0.01, 0.0], [0.0, -0.02]]),
        ],
    )
    def test_aggregate_rejects_nonfinite_and_negative_variance(self, beta, cov):
        with pytest.raises(ValueError, match="finite|nonnegative"):
            TrialAggregate(beta_hat=beta, covariance=cov, size=100)

    @pytest.mark.parametrize("size", [400.7, True, "400", math.nan, math.inf])
    def test_aggregate_size_must_be_an_integer(self, size):
        with pytest.raises(ValueError, match="size must be an integer"):
            TrialAggregate(beta_hat=[0.1], covariance=[[0.01]], size=size)

    @pytest.mark.parametrize("size", [400, 400.0, np.int64(400), np.float32(400.0)])
    def test_aggregate_integral_size_is_an_int(self, size):
        agg = TrialAggregate(beta_hat=[0.1], covariance=[[0.01]], size=size)
        assert agg.size == 400 and type(agg.size) is int

    def test_zero_variance_inverse_weighting_rejected(self):
        aggs = [_agg(0.1, 0.0, 100), _agg(0.2, 0.05, 100)]
        with pytest.raises(SingularVarianceError):
            linear_log_hr(aggs, InverseVariance())

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            linear_log_hr([_agg(0.1, 0.05, 100), _agg([0.1, 0.2], 0.05, 100)])

    def test_custom_weights_validation(self):
        with pytest.raises(ValueError):
            CustomWeights((0.5, 0.6))
        with pytest.raises(ValueError):
            CustomWeights((1.2, -0.2))


_TWO_TRIALS = (_agg(-0.5, 0.02, 100), _agg(0.1, 0.03, 80))
_EFFECT = CombinedEffect(CombineMethod.HARMONIC_MEAN, [-0.5], [[0.0625]], 0.5)


@pytest.mark.parametrize(
    "call",
    [
        lambda: CustomWeights((math.nan, 1.0)),
        lambda: var_theta_hm_binary(1.0, 2.0, math.nan, 0.1, 0.5),
        lambda: var_theta_hm_binary(1.0, 2.0, 0.1, math.nan, 0.5),
        lambda: var_theta_hm_binary(math.inf, 2.0, 0.1, 0.1, 0.5),
        lambda: linear_hr(_TWO_TRIALS, z=math.nan),
        lambda: linear_hr(_TWO_TRIALS, z=-math.inf),
        lambda: wald_test(_EFFECT, null_value=math.nan),
    ],
    ids=["custom-weight-nan", "var-a-nan", "var-b-nan", "hr-inf", "z-nan", "z-inf", "null-nan"],
)
def test_nonfinite_input_is_rejected(call):
    # every comparison with NaN is false, so a test of the bad side lets it through
    with pytest.raises(ValueError):
        call()


@pytest.mark.parametrize(
    "call, error",
    [
        # e^{beta z} overflows at a finite z, where numpy would give inf
        (lambda: linear_hr(_TWO_TRIALS, z=1e4), "overflows at z = \\[10000.0\\]"),
        # the other hazard ratio in units of min(a, b) underflows to 0: 0 * inf
        (lambda: var_theta_hm_binary(1e-300, 1e300, 0.1, math.inf, 0.5), "and finite"),
        (lambda: var_theta_hm_binary(1.0, 2.0, math.inf, 0.1, 0.5), "and finite"),
    ],
    ids=["linear-hr-overflow", "var-b-inf", "var-a-inf"],
)
def test_nonfinite_result_is_rejected(call, error):
    with pytest.raises(ValueError, match=error):
        call()


class TestSolveCplBinary:
    def test_table_value(self):
        assert solve_cpl_binary(0.5, 1.0, 0.5, 0.5) == pytest.approx(0.682, abs=0.015)

    def test_homogeneous(self):
        assert solve_cpl_binary(0.7, 0.7, 0.3, 0.8) == 0.7

    def test_example3_limit(self):
        assert solve_cpl_binary(0.3, 0.8, EXAMPLE3_P, 0.5) == pytest.approx(0.396, abs=0.005)

    @given(
        a=st.floats(0.1, 2.5),
        gap=st.floats(0.1, 1.5),
        p=st.floats(0.1, 0.9),
        q=st.floats(0.1, 0.9),
    )
    @settings(max_examples=20, deadline=None)
    def test_bracketing_property(self, a, gap, p, q):
        b = a + gap
        c = solve_cpl_binary(a, b, p, q)
        assert a < c < b

    def test_residual_monotone_in_c(self):
        a, b, p, q = 0.4, 1.3, 0.6, 0.5

        def integral(c):
            f = lambda u: ((1 - q) * math.exp(-u) + p * q * a * math.exp(-a * u) + (1 - p) * q * b * math.exp(-b * u)) / (
                (1 - q) * math.exp(-u) + p * q * c * math.exp(-a * u) + (1 - p) * q * c * math.exp(-b * u)
            ) * math.exp(-u)
            return quad(f, 0.0, 50.0, epsabs=0.0, epsrel=1e-12, limit=200)[0]

        values = [integral(c) for c in np.linspace(a + 1e-3, b - 1e-3, 10)]
        assert all(x > y for x, y in zip(values, values[1:]))

    def test_q_dependence(self):
        # the pooled limit depends on the allocation, unlike the harmonic mean
        c1 = solve_cpl_binary(0.3, 0.8, 0.7, 0.2)
        c2 = solve_cpl_binary(0.3, 0.8, 0.7, 0.8)
        assert abs(c1 - c2) > 1e-4


def test_random_k2_laws():
    # Newton damped on the residual's max-norm stalled on four pooled limits
    rng = np.random.default_rng(0)
    for m in rng.integers(3, 7, 150):
        support, probs = rng.uniform(-2, 2, (m, 2)), rng.dirichlet(np.ones(m))
        dist = CovariateDistribution(support=support, probs=probs)
        alpha, beta, p = rng.uniform(-4, 4, 2), rng.uniform(-4, 4, 2), rng.uniform(0.05, 0.95)
        assert np.all(np.isfinite(solve_theta_pl_general(alpha, beta, p, dist)))
        theta = solve_theta_hm_general(alpha, beta, p, dist)
        mix = p * np.exp(-support @ alpha) + (1 - p) * np.exp(-support @ beta)
        score = (probs * np.exp(support @ theta) * mix) @ support - probs @ support
        assert np.max(np.abs(score)) <= 1e-10


def test_k3_law_where_a_newton_step_overshoots():
    # from the weighted mean, the first full Newton step lowers Phi but lands
    # where the Hessian's condition number is 5e13; no halving of the next
    # Newton step lowers Phi, so that run fails there and the restart from
    # the effect of lower objective converges (draw 248 of the k = 3 laws
    # drawn like test_random_k2_laws from np.random.default_rng(7))
    support = [
        [0.008167985304756709, -0.8381689167231139, 1.6970717152822443],
        [0.6057468271780588, 1.3720146881651623, -1.0681575309824907],
        [1.8930882644265865, 0.5402110143731536, -0.5009556587814945],
        [-0.9956535147995358, -1.60465706336181, -1.8684810973328325],
        [-1.2159939833235853, -0.7605971330956698, 0.1226209609590776],
    ]
    probs = [
        0.38426878575435003,
        0.02350582490344032,
        0.00705224921202908,
        0.036332541347239296,
        0.5488405987829412,
    ]
    dist = CovariateDistribution(support=support, probs=probs)
    alpha = [1.1081888925401975, -2.773406815767024, 3.0686456057823186]
    beta = [3.8985646152007307, 0.9203729131677676, -3.6133964285644113]
    p = 0.2134175348659212
    theta, equation = estimators._pl_root(*estimators._trial_lists(alpha, beta, p, dist), dist)
    assert np.array_equal(theta, solve_theta_pl_general(alpha, beta, p, dist))
    assert np.max(np.abs(equation(theta)[1])) <= 1e-12
    # Newton from near the minimiser takes only full steps to the same point
    near = estimators._newton_min(lambda t: equation(t)[:3], theta + 0.01, 1e-12)
    np.testing.assert_allclose(near, theta, rtol=0, atol=1e-10)


def test_support_spanning_fewer_than_k_dimensions_rejected():
    # unique only where the support spans k dimensions; rounding keeps the Hessian regular
    points = [[0.3, 0.7], [0.6, 1.4], [0.9, 2.1]]
    line = CovariateDistribution(support=points, probs=[0.2, 0.3, 0.5])
    for solve in (solve_theta_pl_general, solve_theta_hm_general):
        with pytest.raises(SingularMatrixError):
            solve(K2_ALPHA, K2_BETA, 0.6, line)


@pytest.mark.parametrize("log_hr", [20.0, 200.0, 300.0, 600.0, -100.0, -300.0, -600.0])
def test_far_effect_against_binary_limits(log_hr, bernoulli_half):
    # Newton from the weighted mean of a far effect and 0.1 leaves the basin;
    # the retry from the effect of lower objective reaches the root.  The
    # score is solved to 1e-12 and has slope q = 0.5 at the harmonic mean.
    a, b = math.exp(log_hr), math.exp(0.1)
    theta_pl = solve_theta_pl_general([log_hr], [0.1], 0.5, bernoulli_half)[0]
    assert theta_pl == pytest.approx(math.log(solve_cpl_binary(a, b, 0.5, 0.5)), abs=1e-12)
    theta_hm = solve_theta_hm_general([log_hr], [0.1], 0.5, bernoulli_half)[0]
    assert theta_hm == pytest.approx(math.log(c_hm_binary(a, b, 0.5)), abs=2e-12 / 0.5)


@pytest.mark.parametrize("log_hr", [200.0, 300.0, -100.0, -200.0, -300.0])
def test_far_effect_on_k2_law(log_hr):
    # from the weighted mean, one support point's e^{theta'z} swamps the
    # Hessian, so a Newton step is singular or never lands; the retry
    # converges.  Past |log-HR| 60 the pooled limit no longer moves.
    alpha, beta = [log_hr, log_hr], [0.1, 0.1]
    theta_hm = solve_theta_hm_general(alpha, beta, 0.5, K2_DIST)
    assert np.max(np.abs(kl_gradient(theta_hm, alpha, beta, 0.5, K2_DIST))) <= 1e-12
    theta_pl = solve_theta_pl_general(alpha, beta, 0.5, K2_DIST)
    saturated = solve_theta_pl_general([math.copysign(60.0, log_hr)] * 2, beta, 0.5, K2_DIST)
    np.testing.assert_allclose(theta_pl, saturated, rtol=0, atol=1e-12)


@pytest.mark.parametrize("log_hr, k2", [(600.0, False), (300.0, True)], ids=["bernoulli", "k2"])
def test_failed_run_ends_at_once(monkeypatch, bernoulli_half, log_hr, k2):
    # a Newton step from the weighted mean that no halving accepts ends that
    # run at once, so the restart begins after a handful of evaluations
    dist = K2_DIST if k2 else bernoulli_half
    alpha, beta = [log_hr] * dist.k, [0.1] * dist.k
    calls = 0
    pl_equation = estimators._pl_equation

    def counted(*args):
        equation = pl_equation(*args)

        def count(*a, **kw):
            nonlocal calls
            calls += 1
            return equation(*a, **kw)

        return count

    monkeypatch.setattr(estimators, "_pl_equation", counted)
    assert np.all(np.isfinite(solve_theta_pl_general(alpha, beta, 0.5, dist)))
    assert calls <= 60


class TestSolveThetaPlGeneral:
    def test_binary_specialization_matches(self, bernoulli_half):
        for a, b, p in ((0.5, 1.0, 0.5), (0.3, 0.8, EXAMPLE3_P), (1.2, 2.4, 0.35)):
            theta = solve_theta_pl_general([math.log(a)], [math.log(b)], p, bernoulli_half)
            assert math.exp(theta[0]) == pytest.approx(solve_cpl_binary(a, b, p, 0.5), abs=1e-8)

    def test_homogeneous_exact(self, bernoulli_half):
        alpha = np.array([math.log(0.7)])
        theta = solve_theta_pl_general(alpha, alpha, 0.4, bernoulli_half)
        assert theta[0] == alpha[0]

    def test_k2_against_pooled_mple_oracle(self):
        # Monte Carlo oracle: fit the pooled working model to a large
        # uncensored draw from the two-trial mixture
        p = 0.6
        n = 200_000
        n1 = int(round(n * p))
        spec = ScenarioSpec(
            trial_effects=[K2_ALPHA, K2_BETA],
            sizes=[n1, n - n1],
            covariate_dist=K2_DIST,
            seed=314,
        )
        fit = fit_cox(pool(simulate_scenario(spec, replicate=0)))
        theta = solve_theta_pl_general(K2_ALPHA, K2_BETA, p, K2_DIST)
        for j in range(2):
            se = math.sqrt(fit.covariance[j, j])
            assert abs(theta[j] - fit.beta_hat[j]) <= 3 * se

    def test_one_point_law_rejected(self):
        # a constant covariate identifies no log hazard ratio
        one = CovariateDistribution(support=[[1.0]], probs=[1.0])
        with pytest.raises(ValueError, match="two or more points"):
            solve_theta_pl_general([0.1], [0.2], 0.5, one)

    def test_small_hazard_ratios_stay_accurate(self, bernoulli_half):
        # slow-decay regime: the rescaled quadrature must not lose the tail
        theta = solve_theta_pl_general([math.log(0.08)], [math.log(0.5)], 0.5, bernoulli_half)
        assert math.exp(theta[0]) == pytest.approx(
            solve_cpl_binary(0.08, 0.5, 0.5, 0.5), abs=1e-8
        )

    @pytest.mark.parametrize(
        "effect, support",
        [(800.0, [[0.0], [1.0]]), (-800.0, [[1.0], [0.0]])],
        ids=["rate-overflows", "rate-underflows"],
    )
    def test_rate_out_of_range_raises(self, effect, support):
        # e^{beta z} overflows to inf, or underflows to 0 at a point other
        # than the last, which makes the rule's range infinite; numpy's
        # overflow and divide warnings are errors in this suite
        law = CovariateDistribution(support=support, probs=[0.5, 0.5])
        with pytest.raises(NonConvergenceError, match="out of the fixed rule's range"):
            solve_theta_pl_general([effect], [0.1], 0.5, law)

    def test_uncertified_root_raises(self, bernoulli_half, uncertified_rule):
        with pytest.raises(NonConvergenceError, match="cannot certify the pooled-limit root"):
            solve_theta_pl_general([math.log(0.3)], [math.log(0.8)], 0.5, bernoulli_half)


class TestSolveCensoredBinary:
    def test_large_horizon_matches_uncensored(self):
        c_unc = solve_cpl_binary(0.3, 0.8, EXAMPLE3_P, 0.5)
        c_50 = solve_censored_binary(0.3, 0.8, EXAMPLE3_P, 0.5, 50.0)
        assert abs(c_50 - c_unc) < 1e-6

    def test_homogeneous(self):
        assert solve_censored_binary(0.6, 0.6, 0.5, 0.5, 1.0) == 0.6

    def test_positive_bias_and_monotone_decay(self):
        c_unc = solve_cpl_binary(0.3, 0.8, 0.7, 0.5)
        values = [solve_censored_binary(0.3, 0.8, 0.7, 0.5, h) for h in (0.5, 1, 2, 4, 8)]
        assert all(v > c_unc for v in values)
        assert all(x > y for x, y in zip(values, values[1:]))

    def test_against_censored_pooled_fit_oracle(self, bernoulli_half):
        # Monte Carlo oracle: pooled fit on a large administratively
        # censored draw approaches the censored limit, not the uncensored one
        t_max = 1.0
        spec = ScenarioSpec(
            trial_effects=[[math.log(0.3)], [math.log(0.8)]],
            sizes=[140_000, 60_000],
            covariate_dist=bernoulli_half,
            censoring=AdministrativeCensoring(t_max=t_max),
            seed=2718,
        )
        fit = fit_cox(pool(simulate_scenario(spec, replicate=0)))
        limit = math.log(solve_censored_binary(0.3, 0.8, 0.7, 0.5, t_max))
        se = math.sqrt(fit.covariance[0, 0])
        assert abs(fit.beta_hat[0] - limit) <= 3 * se


class TestThetaMEstimate:
    def test_homogeneous_collapse(self, bernoulli_half):
        aggs = [_agg(-0.4, 0.01, 200), _agg(-0.4, 0.02, 100)]
        eff = theta_m_estimate(aggs, bernoulli_half)
        assert eff.estimate[0] == pytest.approx(-0.4, abs=1e-9)
        assert eff.method is CombineMethod.MISSPECIFIED

    def test_example3_plugin_value(self, bernoulli_half):
        aggs = [_agg(math.log(0.3), 0.01, 400), _agg(math.log(0.8), 0.02, 170)]
        eff = theta_m_estimate(aggs, bernoulli_half)
        assert math.exp(eff.estimate[0]) == pytest.approx(0.396, abs=0.005)
        assert eff.mixing_p == pytest.approx(EXAMPLE3_P)
        assert eff.covariance[0, 0] > 0

    def test_sensitivity_rows_sum_to_one_at_homogeneity(self, bernoulli_half):
        j_a, j_b = theta_pl_sensitivity(
            [math.log(0.6)], [math.log(0.6)], 0.45, bernoulli_half
        )
        assert (j_a + j_b)[0, 0] == pytest.approx(1.0, abs=1e-3)

    def test_sensitivity_rows_sum_k2(self):
        j_a, j_b = theta_pl_sensitivity(K2_ALPHA, K2_ALPHA, 0.6, K2_DIST)
        np.testing.assert_allclose(j_a + j_b, np.eye(2), atol=1e-3)

    @pytest.mark.parametrize("effect", [K2_ALPHA, K2_BETA])
    @pytest.mark.parametrize("p", [0.2, 0.6])
    def test_sensitivity_rows_sum_k2_to_rounding(self, effect, p):
        j_a, j_b = theta_pl_sensitivity(effect, effect, p, K2_DIST)
        np.testing.assert_allclose(j_a + j_b, np.eye(2), rtol=0, atol=1e-10)

    @pytest.mark.parametrize(
        "la, lb, p, q",
        [
            (math.log(0.3), math.log(0.8), EXAMPLE3_P, 0.5),
            (-2.0, 1.5, 0.2, 0.8),
            (3.0, -1.0, 0.6, 0.1),
        ],
    )
    def test_sensitivity_against_binary_central_difference(self, la, lb, p, q):
        j_a, j_b = theta_pl_sensitivity([la], [lb], p, CovariateDistribution.bernoulli(q))

        def log_c(x, y):
            return math.log(solve_cpl_binary(math.exp(x), math.exp(y), p, q))

        h = 1e-5
        d_a = (log_c(la + h, lb) - log_c(la - h, lb)) / (2 * h)
        d_b = (log_c(la, lb + h) - log_c(la, lb - h)) / (2 * h)
        assert j_a[0, 0] == pytest.approx(d_a, abs=1e-7)
        assert j_b[0, 0] == pytest.approx(d_b, abs=1e-7)

    def test_covariance_matches_finite_differences(self, bernoulli_half):
        # covariances from the nested finite-difference sensitivities that
        # the implicit-function ones replace
        aggs = [_agg(math.log(0.3), 0.01, 400), _agg(math.log(0.8), 0.02, 170)]
        cov = theta_m_estimate(aggs, bernoulli_half).covariance
        np.testing.assert_allclose(cov, [[0.005854060108293735]], rtol=1e-6)
        aggs = [
            _agg(K2_ALPHA, [[0.02, 0.005], [0.005, 0.03]], 300),
            _agg(K2_BETA, [[0.04, -0.01], [-0.01, 0.05]], 200),
        ]
        cov = theta_m_estimate(aggs, K2_DIST).covariance
        want = [
            [0.011431600788658238, 0.0011624681543592023],
            [0.0011624681543592023, 0.017025907007032572],
        ]
        np.testing.assert_allclose(cov, want, rtol=1e-6)

    def test_requires_two_trials(self, bernoulli_half):
        with pytest.raises(ValueError):
            theta_m_estimate([_agg(0.1, 0.01, 10)], bernoulli_half)


class TestHarmonicMean:
    def test_closed_form_values(self):
        assert c_hm_binary(0.5, 1.0, 0.5) == pytest.approx(2.0 / 3.0, abs=1e-15)
        assert c_hm_binary(0.9, 0.9, 0.42) == pytest.approx(0.9, abs=1e-15)
        assert c_hm_binary(0.5, 3.0, 0.5) == pytest.approx(6.0 / 7.0, abs=1e-15)

    @pytest.mark.parametrize("a, b", [(np.inf, 1.0), (np.inf, np.inf), (0.5, np.nan), (0.0, 1.0)])
    def test_rejects_hazard_ratios_outside_domain(self, a, b):
        with pytest.raises(ValueError, match="hazard ratios must be positive and finite"):
            c_hm_binary(a, b, 0.5)

    @pytest.mark.parametrize(
        "a, b, p, want",
        [
            (1e-320, 1.0, 0.5, 2e-320),  # p / a overflows
            (1.0, 1e-320, 0.25, 1e-320 / 0.75),
            (1e-310, 1e-310, 0.5, 1e-310),  # both terms overflow
            (1e-310, 1e300, 0.999, 1e-310 / 0.999),
        ],
    )
    def test_extreme_hazard_ratios(self, a, b, p, want):
        got = c_hm_binary(a, b, p)
        assert min(a, b) <= got <= max(a, b)
        assert got == pytest.approx(want, rel=1e-3)  # subnormals carry few digits
        assert c_hm_binary(np.array([a, 0.5]), b, p)[0] == got

    def test_direct_arithmetic_where_finite(self):
        a, b, p = np.array([0.3, 0.5, 2.0]), np.array([0.8, 3.0, 2.5]), 0.7
        assert c_hm_binary(a, b, p).tobytes() == (1.0 / (p / a + (1 - p) / b)).tobytes()
        assert c_hm_binary(0.3, 0.8, 0.7) == 1.0 / (0.7 / 0.3 + 0.3 / 0.8)

    def test_printed_table_noise_stays_inside_tolerance(self):
        # the reference table prints 0.662 and 0.847 for these two cells
        assert c_hm_binary(0.5, 1.0, 0.5) == pytest.approx(0.662, abs=0.015)
        assert c_hm_binary(0.5, 3.0, 0.5) == pytest.approx(0.847, abs=0.015)

    def test_general_binary_reduces_to_harmonic_mean(self):
        for q in (0.2, 0.5, 0.8):
            dist = CovariateDistribution.bernoulli(q)
            theta = solve_theta_hm_general([math.log(0.3)], [math.log(0.8)], 0.7, dist)
            assert theta[0] == pytest.approx(math.log(c_hm_binary(0.3, 0.8, 0.7)), abs=1e-10)

    def test_homogeneous_exact(self, bernoulli_half):
        alpha = np.array([-0.25])
        theta = solve_theta_hm_general(alpha, alpha, 0.3, bernoulli_half)
        assert theta[0] == alpha[0]

    def test_k2_solution_maximizes_kl_objective_on_grid(self):
        p = 0.6
        theta = solve_theta_hm_general(K2_ALPHA, K2_BETA, p, K2_DIST)
        best = kl_objective(theta, K2_ALPHA, K2_BETA, p, K2_DIST)
        for d0 in (-0.05, 0.0, 0.05):
            for d1 in (-0.05, 0.0, 0.05):
                if d0 == d1 == 0.0:
                    continue
                probe = kl_objective(theta + np.array([d0, d1]), K2_ALPHA, K2_BETA, p, K2_DIST)
                assert probe < best


class TestVarThetaHm:
    def test_degenerate_equal_estimates(self):
        v = var_theta_hm_binary(0.7, 0.7, 0.01, 0.04, 0.3)
        assert v == pytest.approx(0.3**2 * 0.01 + 0.7**2 * 0.04, abs=1e-15)

    def test_zero_variances(self):
        assert var_theta_hm_binary(0.3, 0.8, 0.0, 0.0, 0.7) == 0.0

    @pytest.mark.parametrize("scale", [1e-320, 1e-300, 1e-160, 1e160, 1e300])
    def test_scale_free_at_extreme_hazard_ratios(self, scale):
        # 1 / a_hat overflows, or squares past the float range, without rescaling
        want = var_theta_hm_binary(0.3, 0.8, 0.02, 0.03, 0.7)
        got = var_theta_hm_binary(0.3 * scale, 0.8 * scale, 0.02, 0.03, 0.7)
        assert got == pytest.approx(want, rel=1e-3 if scale < 1e-300 else 1e-12)

    def test_subnormal_against_unit_hazard_ratio(self):
        # the subnormal trial carries all the weight
        assert var_theta_hm_binary(1e-320, 1.0, 0.1, 0.2, 0.5) == pytest.approx(0.1, rel=1e-15)

    def test_bootstrap_oracle_binary(self):
        # parametric bootstrap: resample the per-trial log estimates and
        # push them through the closed-form combiner
        a_hat, b_hat, var, p = 0.3, 0.8, 0.02, 0.7
        rng = np.random.default_rng(99)
        n = 100_000
        alpha = rng.normal(math.log(a_hat), math.sqrt(var), size=n)
        beta = rng.normal(math.log(b_hat), math.sqrt(var), size=n)
        theta = -np.log(p * np.exp(-alpha) + (1 - p) * np.exp(-beta))
        boot = theta.var(ddof=1)
        formula = var_theta_hm_binary(a_hat, b_hat, var, var, p)
        assert abs(formula - boot) / boot < 0.10

    def test_general_k1_matches_closed_form(self, bernoulli_half):
        aggs = [_agg(math.log(0.3), 0.02, 400), _agg(math.log(0.8), 0.03, 170)]
        cov = var_theta_hm_general(aggs, bernoulli_half)
        closed = var_theta_hm_binary(0.3, 0.8, 0.02, 0.03, EXAMPLE3_P)
        assert cov[0, 0] == pytest.approx(closed, abs=1e-10)

    def test_zero_input_covariances_give_zero(self, bernoulli_half):
        aggs = [_agg(math.log(0.3), 0.0, 400), _agg(math.log(0.8), 0.0, 170)]
        cov = var_theta_hm_general(aggs, bernoulli_half)
        np.testing.assert_allclose(cov, 0.0, atol=1e-15)

    def test_k2_against_bootstrap_oracle(self):
        cov_a = np.array([[0.02, 0.005], [0.005, 0.03]])
        cov_b = np.array([[0.015, -0.004], [-0.004, 0.025]])
        aggs = [
            _agg(K2_ALPHA, cov_a, 600, "t1"),
            _agg(K2_BETA, cov_b, 400, "t2"),
        ]
        formula = var_theta_hm_general(aggs, K2_DIST)
        rng = np.random.default_rng(7)
        n_draws = 4000
        la = np.linalg.cholesky(cov_a)
        lb = np.linalg.cholesky(cov_b)
        draws = np.empty((n_draws, 2))
        for i in range(n_draws):
            alpha = K2_ALPHA + la @ rng.standard_normal(2)
            beta = K2_BETA + lb @ rng.standard_normal(2)
            draws[i] = solve_theta_hm_general(alpha, beta, 0.6, K2_DIST)
        boot = np.cov(draws.T)
        rel = np.linalg.norm(formula - boot) / np.linalg.norm(boot)
        assert rel < 0.10

    def test_psd(self):
        aggs = [_agg(K2_ALPHA, np.eye(2) * 0.02, 600), _agg(K2_BETA, np.eye(2) * 0.03, 400)]
        cov = var_theta_hm_general(aggs, K2_DIST)
        assert np.all(np.linalg.eigvalsh(cov) >= -1e-15)


# three trials on a 3-point k = 1 law and on K2_DIST
_THREE_TRIALS = {
    1: (
        CovariateDistribution(support=[[0.0], [0.5], [1.0]], probs=[0.3, 0.3, 0.4]),
        [([-1.2], [[0.02]], 400), ([-0.2], [[0.05]], 170), ([-0.6], [[0.03]], 250)],
    ),
    2: (
        K2_DIST,
        [
            (K2_ALPHA, [[0.02, 0.005], [0.005, 0.03]], 600),
            (K2_BETA, [[0.015, -0.004], [-0.004, 0.025]], 400),
            (np.log([0.7, 1.0]), [[0.03, 0.0], [0.0, 0.02]], 300),
        ],
    ),
}


class TestTrialAxis:
    """Both plug-in estimates over m >= 2 trials, each weighted by its size share."""

    @pytest.mark.parametrize("estimate", [theta_m_estimate, theta_hm_estimate])
    @pytest.mark.parametrize("k", [1, 2])
    @given(trial=st.integers(0, 2), share=st.floats(0.05, 0.95))
    @settings(max_examples=10, deadline=None)
    def test_splitting_a_trial_changes_nothing(self, estimate, k, trial, share):
        # a trial of n subjects split into parts of n1 and n2 with its effect:
        # part i has covariance C * n / n_i, which is 2C for equal halves
        dist, trials = _THREE_TRIALS[k]
        beta, cov, n = trials[trial]
        n1 = min(max(round(share * n), 1), n - 1)
        parts = [(beta, np.asarray(cov) * n / m, m) for m in (n1, n - n1)]
        split = trials[:trial] + parts + trials[trial + 1 :]
        whole = estimate([_agg(*t) for t in trials], dist)
        got = estimate([_agg(*t) for t in split], dist)
        np.testing.assert_allclose(got.estimate, whole.estimate, rtol=0, atol=1e-12)
        np.testing.assert_allclose(got.covariance, whole.covariance, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("estimate", [theta_m_estimate, theta_hm_estimate])
    @pytest.mark.parametrize("k", [1, 2])
    def test_trial_order_changes_nothing(self, estimate, k):
        dist, trials = _THREE_TRIALS[k]
        want = estimate([_agg(*t) for t in trials], dist)
        for order in ((1, 0, 2), (2, 1, 0), (1, 2, 0)):
            got = estimate([_agg(*trials[i]) for i in order], dist)
            np.testing.assert_allclose(got.estimate, want.estimate, rtol=0, atol=1e-12)
            np.testing.assert_allclose(got.covariance, want.covariance, rtol=0, atol=1e-12)

    @pytest.mark.parametrize(
        "estimate, solve",
        [
            (theta_m_estimate, lambda *args: estimators._pl_root(*args)[0]),
            (theta_hm_estimate, lambda *args: estimators._hm_root(*args)[0]),
        ],
        ids=["misspecified", "harmonic-mean"],
    )
    def test_three_trial_covariance_against_bootstrap_oracle(self, estimate, solve):
        # parametric bootstrap: redraw every trial's estimate from its normal
        # law and solve for the combined effect of the three draws
        dist, trials = _THREE_TRIALS[2]
        aggs = [_agg(*t) for t in trials]
        formula = estimate(aggs, dist).covariance
        total = sum(a.size for a in aggs)
        weights = [a.size / total for a in aggs]
        roots = [np.linalg.cholesky(a.covariance) for a in aggs]
        rng = np.random.default_rng(7)
        n_draws = 2000
        draws = np.empty((n_draws, 2))
        for i in range(n_draws):
            effects = [a.beta_hat + r @ rng.standard_normal(2) for a, r in zip(aggs, roots)]
            draws[i] = solve(effects, weights, dist)
        boot = np.cov(draws.T)
        rel = np.linalg.norm(formula - boot) / np.linalg.norm(boot)
        assert rel < 0.10

    @given(
        effects=st.lists(st.floats(-2.0, 2.0), min_size=3, max_size=3),
        sizes=st.lists(st.integers(1, 1000), min_size=3, max_size=3),
        q=st.floats(0.1, 0.9),
    )
    @settings(max_examples=25, deadline=None)
    def test_harmonic_mean_of_three_binary_trials(self, effects, sizes, q):
        # on the {0, 1} law the effect is log(1 / sum_j w_j / HR_j), whatever q;
        # the score, solved to 1e-12, has slope q there
        total = sum(sizes)
        want = -math.log(sum(n / total * math.exp(-b) for n, b in zip(sizes, effects)))
        aggs = [_agg(b, 0.02, n) for b, n in zip(effects, sizes)]
        got = theta_hm_estimate(aggs, CovariateDistribution.bernoulli(q))
        assert got.estimate[0] == pytest.approx(want, abs=2e-12 / q)
        assert got.mixing_p == sizes[0] / total


class TestWald:
    def test_null_estimate(self):
        eff = CombinedEffect(CombineMethod.HARMONIC_MEAN, [0.0], [[0.04]], 0.5)
        res = wald_test(eff, null_value=0.0)
        assert res.statistic == 0.0 and res.p_value == pytest.approx(1.0)

    def test_two_sigma(self):
        eff = CombinedEffect(CombineMethod.HARMONIC_MEAN, [-0.5], [[0.0625]], 0.5)
        res = _wald(eff, null_value=0.0)
        assert res.statistic == pytest.approx(-2.0)
        assert res.p_value == pytest.approx(0.0455, abs=0.0005)

    def test_missing_variance(self):
        eff = CombinedEffect(CombineMethod.LINEAR_LOG, [0.5], None, 0.5)
        with pytest.raises(MissingVarianceError):
            wald_test(eff)

    def test_example3_pipeline_rejects_null(self, example3_scenario):
        # end to end: censor at t_max = 10, fit each trial, combine, test
        spec = replace(example3_scenario, censoring=AdministrativeCensoring(t_max=10.0))
        trials = simulate_scenario(spec, replicate=0)
        fits = [fit_cox(t) for t in trials]
        aggs = [
            _agg(f.beta_hat, f.covariance, len(t), t.label) for f, t in zip(fits, trials)
        ]
        eff = theta_hm_estimate(aggs, spec.covariate_dist)
        res = wald_test(eff, null_value=0.0)
        assert res.p_value < 0.05
        assert eff.estimate[0] < 0
