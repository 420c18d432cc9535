"""The batched binary pooled limit against an independent oracle.

The oracle solves the same moment identity with scipy's adaptive QUADPACK
quadrature and Brent's method, sharing no code with the library's
fixed-rule Newton kernel.  The general-covariate solver is checked
against the binary one on the {0, 1} law.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.integrate import IntegrationWarning, quad
from scipy.optimize import brentq

import hrmix.estimators as estimators
from hrmix import (
    CovariateDistribution,
    HrmixError,
    NonConvergenceError,
    bias_sweep,
    figure2_grid,
    solve_censored_binary,
    solve_cpl_binary,
    solve_theta_pl_general,
    table1_grid,
)

# both hrmix solvers truncate the integral here by default
TAIL_CUT = 50.0


def oracle_limit(rates, weights, q, upper=TAIL_CUT, target=1.0):
    """Root in c of integral_0^upper (pooled-limit integrand) du = target.

    Trial j has treated hazard ratio r_j and share w_j of the subjects.
    The integrand is e^-u + sum_j w_j q (r_j - c) e^{-r_j u} e^-u / den,
    and e^-u integrates to 1 - e^-upper in closed form, so the residual is
    sum_j (r_j - c) I_j(c) + 1 - e^-upper - target with positive
    integrals I_j.  QUADPACK meets its relative tolerance on the terms
    that carry all of the dependence on c, so the root keeps its accuracy
    where the moment integral itself is nearly flat in c (q near 0, every
    hazard ratio small, or a short study).  Two trials are
    ``(a, b), (p, 1 - p)``.
    """

    def integrand(u, c, rate, share):
        e1 = math.exp(-u)
        treated = sum(w * math.exp(-r * u) for r, w in zip(rates, weights))
        return share * q * math.exp(-rate * u) * e1 / ((1 - q) * e1 + c * q * treated)

    # split where each exponential turns over and where its treated term
    # can cross the unit one in den; of two cuts within a relative 1e-9, as
    # at 1/a and 1/b for a rate within rounding of 1, only the later one is
    # kept, since QUADPACK cannot resolve the sliver between them
    cuts = sorted(k / r for r in (*rates, 1.0) for k in (0.1, 1.0, 10.0, 100.0) if k / r < upper)
    kept = [cut for cut, after in zip(cuts, [*cuts[1:], upper]) if after > cut * (1 + 1e-9)]
    edges = [0.0, *kept, upper]

    # each I_j exceeds 1e-15 on the tested domain; epsabs only spares
    # QUADPACK the panels where e^{-r_j u} has underflowed to subnormals.
    # Where QUADPACK still warns, its result may miss the root's
    # tolerance, so the warning is an error.
    def integral(c, rate, share):
        with warnings.catch_warnings():
            warnings.simplefilter("error", IntegrationWarning)
            return sum(
                quad(integrand, lo, hi, args=(c, rate, share), epsabs=1e-30, epsrel=1e-13, limit=500)[0]
                for lo, hi in zip(edges[:-1], edges[1:])
            )

    offset = -math.expm1(-upper) - target

    def resid(c):
        return sum((r - c) * integral(c, r, w) for r, w in zip(rates, weights)) + offset

    return brentq(resid, min(rates), max(rates), xtol=1e-300, rtol=8.9e-16)


def oracle_log_slope(a, b, p, q, c):
    """-c d/dc of the moment integral at c: the slope in log c."""

    def integrand(u):
        e1, ea, eb = math.exp(-u), math.exp(-a * u), math.exp(-b * u)
        num = (1 - q) * e1 + p * q * a * ea + (1 - p) * q * b * eb
        slow = p * q * ea + (1 - p) * q * eb
        return num * e1 * slow / ((1 - q) * e1 + c * slow) ** 2

    rate = max(a, b, 1.0)
    edges = [0.0, *sorted({0.1 / rate, 1 / rate, 10 / rate, 0.1, 1.0, 10.0}), TAIL_CUT]
    # the slope only scales a tolerance, so QUADPACK's complaints about the
    # sharpest spikes do not matter
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        return c * sum(
            quad(integrand, lo, hi, epsrel=1e-6, limit=200)[0]
            for lo, hi in zip(edges[:-1], edges[1:])
        )


log_hr = st.floats(-6.0, 6.0)
share = st.floats(0.01, 0.99)


@pytest.fixture
def no_fallback(monkeypatch):
    """Make the refinement pass fail loudly, past any HrmixError handler."""
    rule = estimators._cpl_binary_rule

    def base_rule_only(*args, refined=False):
        if refined:
            raise AssertionError(f"refinement taken for rates {[r.tolist() for r in args[0]]}")
        return rule(*args)

    monkeypatch.setattr(estimators, "_cpl_binary_rule", base_rule_only)


class TestAgainstOracle:
    @given(la=log_hr, lb=log_hr, p=share, q=share)
    # b within rounding of 1: cuts at 1/b and 1 a few ulps apart
    @example(la=3.0, lb=4.4222536129926647e-16, p=0.5, q=0.5)
    @settings(max_examples=40, deadline=None)
    def test_uncensored(self, la, lb, p, q):
        # the oracle's bracket needs a resolvable spread
        assume(abs(la - lb) > 1e-6)
        a, b = math.exp(la), math.exp(lb)
        want = oracle_limit((a, b), (p, 1 - p), q)
        assert solve_cpl_binary(a, b, p, q) == pytest.approx(want, rel=1e-10)

    @given(la=log_hr, lb=log_hr, p=share, q=share, H=st.floats(1e-3, 20.0))
    @settings(max_examples=30, deadline=None)
    def test_censored(self, la, lb, p, q, H):
        assume(abs(la - lb) > 1e-6)
        a, b = math.exp(la), math.exp(lb)
        want = oracle_limit((a, b), (p, 1 - p), q, upper=H, target=-math.expm1(-H))
        assert solve_censored_binary(a, b, p, q, H) == pytest.approx(want, rel=1e-10)

    @pytest.mark.parametrize(
        "a, b, root",
        [
            # wide spreads: a first GK15 panel on [0, 50] has no node
            # inside the e^-bu spike, so the adaptive rule misjudges g(a)
            (0.5, 3000.0, 1.14293292364530),
            (1e-3, 3000.0, 0.44140038628863),
            (1e-4, 1e4, 0.44004279214164),
        ],
    )
    def test_wide_spread_regressions(self, no_fallback, a, b, root):
        assert solve_cpl_binary(a, b, 0.5, 0.5) == pytest.approx(root, rel=1e-10)
        assert oracle_limit((a, b), (0.5, 0.5), 0.5) == pytest.approx(root, rel=1e-10)

    @given(
        la=st.floats(-10.0, 10.0),
        lb=st.floats(-10.0, 10.0),
        p=st.floats(0.001, 0.999),
        q=st.floats(0.001, 0.999),
        H=st.one_of(st.none(), st.floats(1e-3, 100.0)),
    )
    @settings(max_examples=60, deadline=None)
    def test_wide_domain_agrees_or_raises(self, la, lb, p, q, H):
        assume(abs(la - lb) > 1e-6)
        a, b = math.exp(la), math.exp(lb)
        try:
            if H is None:
                got = solve_cpl_binary(a, b, p, q)
            else:
                got = solve_censored_binary(a, b, p, q, H)
        except NonConvergenceError:
            return
        upper = TAIL_CUT if H is None else min(H, TAIL_CUT)
        target = 1.0 if H is None else -math.expm1(-upper)
        assert got == pytest.approx(oracle_limit((a, b), (p, 1 - p), q, upper, target), rel=1e-10)

    @pytest.mark.parametrize(
        "a, b, p, q, H, root",
        [
            # Brent over adaptive quadrature raised BadBracketError here: it
            # gave g(b) = -3.6e-17 where QUADPACK gives +5.2e-5
            (1201762.9744472234, 12161.319923760842, 0.47092346764884563,
             0.9981814499576961, 0.011880477944362124, 12673.6970338989),
            # the moment integral is flat in c (slope 6.8e-9 in log c), and a
            # root certified by the integral's error alone was off by 5.5e-8
            (0.006164460507375726, 4.5399929762484854e-05, 0.001, 0.001,
             0.012805916223548748, 5.15187508407777e-05),
        ],
        ids=["bad-bracket", "flat-residual"],
    )
    def test_refined_regressions(self, a, b, p, q, H, root):
        assert solve_censored_binary(a, b, p, q, H) == pytest.approx(root, rel=1e-10)
        want = oracle_limit((a, b), (p, 1 - p), q, H, -math.expm1(-H))
        assert want == pytest.approx(root, rel=1e-10)


class TestTrialAxis:
    """The binary kernel over m trials, each weighted by its size share."""

    @given(
        logs=st.lists(log_hr, min_size=3, max_size=3),
        sizes=st.lists(st.integers(1, 1000), min_size=3, max_size=3),
        q=share,
        H=st.one_of(st.just(math.inf), st.floats(1e-3, 20.0)),
    )
    @settings(max_examples=30, deadline=None)
    def test_three_trials_against_oracle(self, logs, sizes, q, H):
        assume(max(logs) - min(logs) > 1e-6)
        rates = [math.exp(v) for v in logs]
        weights = [n / sum(sizes) for n in sizes]
        got = estimators._pooled_limit_binary(rates, weights, q, H)
        upper = min(H, TAIL_CUT)
        want = oracle_limit(rates, weights, q, upper, -math.expm1(-upper))
        assert got == pytest.approx(want, rel=1e-10)

    @given(
        logs=st.lists(log_hr, min_size=2, max_size=3),
        sizes=st.lists(st.integers(2, 1000), min_size=3, max_size=3),
        q=share,
        H=st.one_of(st.just(math.inf), st.floats(1e-3, 20.0)),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_splitting_a_trial_changes_nothing(self, logs, sizes, q, H, data):
        # two trials with one rate are one trial of their summed subjects
        trials = list(zip((math.exp(v) for v in logs), sizes))
        j = data.draw(st.integers(0, len(trials) - 1))
        rate, n = trials.pop(j)
        part = data.draw(st.integers(1, n - 1))
        split = [*trials, (rate, part), (rate, n - part)]
        split = [split[i] for i in data.draw(st.permutations(range(len(split))))]

        def log_limit(trials):
            rates, counts = zip(*trials)
            weights = estimators._size_shares(counts)
            return math.log(estimators._pooled_limit_binary(rates, weights, q, H))

        assert abs(log_limit(split) - log_limit([*trials, (rate, n)])) <= 1e-12


def general_agrees_with_binary(la, lb, p, q):
    """The general solver on the {0, 1} law against the binary solver.

    Each solver locates the log root only to the rounding floor of its
    residual, up to about 2e-15 of the integrand's unit mass, divided by
    the slope in log c; where the residual is flat (both log hazard
    ratios near -6 or +6 and a share near 0.01 or 0.99) that exceeds
    1e-12, so it widens the tolerance there.
    """
    theta = solve_theta_pl_general([la], [lb], p, CovariateDistribution.bernoulli(q))
    a, b = math.exp(la), math.exp(lb)
    c = solve_cpl_binary(a, b, p, q)
    tol = 1e-12 + 1e-14 / oracle_log_slope(a, b, p, q, c)
    assert abs(theta[0] - math.log(c)) <= tol


def boundary_cells(seed, n):
    """(log a, log b, p, q): log-HRs on [-10, 10], shares near 0 or 1 2/3 of the time."""
    rng = np.random.default_rng(seed)
    logs = rng.uniform(-10.0, 10.0, (n, 2))
    near = [rng.uniform(0.001, 0.05, (n, 2)), rng.uniform(0.95, 0.999, (n, 2))]
    shares = np.choose(rng.integers(0, 3, (n, 2)), [*near, rng.uniform(0.001, 0.999, (n, 2))])
    return np.hstack([logs, shares]).tolist()


class TestGeneralAgreesWithBinary:
    @given(la=log_hr, lb=log_hr, p=share, q=share)
    @settings(max_examples=60, deadline=None)
    def test_bernoulli_law(self, la, lb, p, q):
        general_agrees_with_binary(la, lb, p, q)

    @given(la=st.floats(-10.0, 10.0), lb=st.floats(-10.0, 10.0), p=share, q=share)
    @settings(max_examples=60, deadline=None)
    def test_wide_range_agrees_or_raises(self, la, lb, p, q):
        try:
            general_agrees_with_binary(la, lb, p, q)
        except HrmixError:
            pass

    @pytest.mark.parametrize(
        "la,lb,p,q", [(10.0, -10.0, 0.99, 0.44), (-10.0, 10.0, 0.055, 0.49)]
    )
    def test_flat_start_regressions(self, la, lb, p, q):
        # Newton damped on the max-norm of the residual, flat at the start,
        # stalled here; backtracking on the expected log PL does not
        theta = solve_theta_pl_general([la], [lb], p, CovariateDistribution.bernoulli(q))
        c = solve_cpl_binary(math.exp(la), math.exp(lb), p, q)
        assert theta[0] == pytest.approx(math.log(c), abs=1e-10)

    def test_boundary_biased_cells(self):
        for la, lb, p, q in boundary_cells(3, 300):
            theta = solve_theta_pl_general([la], [lb], p, CovariateDistribution.bernoulli(q))
            c = solve_cpl_binary(math.exp(la), math.exp(lb), p, q)
            assert abs(theta[0] - math.log(c)) <= 1e-8, (la, lb, p, q)

    def test_wide_spread_regression(self):
        # the finite-difference Jacobian of the adaptive residual was
        # singular here; the analytic one on the fixed rule is not
        theta = solve_theta_pl_general([-8.0], [8.0], 0.5, CovariateDistribution.bernoulli(0.5))
        c = solve_cpl_binary(math.exp(-8.0), math.exp(8.0), 0.5, 0.5)
        assert theta[0] == pytest.approx(math.log(c), abs=1e-12)


class TestBatching:
    @given(
        cells=st.lists(st.tuples(log_hr, log_hr, share, share), min_size=1, max_size=40),
        H=st.one_of(st.none(), st.floats(1e-3, 100.0)),
    )
    @settings(max_examples=30, deadline=None)
    def test_array_call_equals_scalar_calls(self, cells, H):
        la, lb, p, q = (np.array(v) for v in zip(*cells))
        a, b = np.exp(la), np.exp(lb)
        if H is None:
            batch = solve_cpl_binary(a, b, p, q)
            single = [solve_cpl_binary(*v) for v in zip(a, b, p, q)]
        else:
            batch = solve_censored_binary(a, b, p, q, H)
            single = [solve_censored_binary(*v, H) for v in zip(a, b, p, q)]
        assert isinstance(batch, np.ndarray) and batch.shape == a.shape
        assert all(isinstance(v, float) for v in single)
        np.testing.assert_array_equal(batch, single)

    def test_broadcast_shape_and_diagonal(self):
        a = np.array([[0.5], [0.7], [2.0]])
        b = np.array([0.7, 1.5])
        c = solve_cpl_binary(a, b, 0.4, 0.6)
        assert c.shape == (3, 2)
        assert c[1, 0] == 0.7
        assert np.all((np.minimum(a, b) <= c) & (c <= np.maximum(a, b)))

    def test_any_invalid_cell_rejected(self):
        with pytest.raises(ValueError):
            solve_cpl_binary([0.5, -1.0], 1.0, 0.5, 0.5)
        with pytest.raises(ValueError):
            solve_cpl_binary(0.5, [1.0, np.inf], 0.5, 0.5)
        with pytest.raises(ValueError):
            solve_cpl_binary(0.5, 1.0, [0.5, 1.0], 0.5)
        with pytest.raises(ValueError):
            solve_censored_binary(0.5, 1.0, 0.5, 0.5, [1.0, 0.0])

    @pytest.mark.parametrize(
        "p, q, name", [(0.0, 0.5, "p"), (np.nan, 0.5, "p"), (0.5, 1.0, "q"), (0.5, [0.2, -0.1], "q")]
    )
    def test_message_names_p_or_q(self, p, q, name):
        with pytest.raises(ValueError, match=rf"^{name} must lie in \(0, 1\)$"):
            solve_cpl_binary(0.5, 1.0, p, q)


class TestCensoredMonotone:
    @given(
        la=st.floats(-6.0, 5.5),
        gap=st.floats(0.5, 6.0),
        p=share,
        q=share,
        t=st.floats(0.01, 5.0),
        ratio=st.floats(1.1, 2.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_strictly_decreasing_in_H(self, la, gap, p, q, t, ratio):
        # H is scaled to the slower decay so the censoring bias stays far
        # above rounding: it fades like exp(-H * max(min(a, b), 1))
        a, b = math.exp(la), math.exp(min(la + gap, 6.0))
        h1 = t / max(a, 1.0)
        c1, c2 = solve_censored_binary(a, b, p, q, [h1, ratio * h1])
        assert c1 > c2 > solve_cpl_binary(a, b, p, q)


class TestFallback:
    """The refinement pass, the one fallback for a cell the rule cannot certify."""

    def test_uncertified_cell_takes_fallback(self, monkeypatch):
        # the root-error estimate at (0.5, 1, 0.5, 0.5) is 7.7e-15 on the
        # base rule and 2.4e-16 refined; a tolerance between them forces
        # the refinement and lets it certify
        rule = estimators._cpl_binary_rule
        seen = []

        def spy(*args, refined=False):
            c, certified = rule(*args, refined=refined)
            seen.append((refined, args[0][0].tolist(), certified.tolist()))
            return c, certified

        monkeypatch.setattr(estimators, "_cpl_binary_rule", spy)
        monkeypatch.setattr(estimators, "_ROOT_RTOL", 1e-15)
        c = solve_cpl_binary([0.5, 0.7], [1.0, 0.7], 0.5, 0.5)
        assert seen == [(False, [0.5], [False]), (True, [0.5], [True])]
        assert c[1] == 0.7
        assert c[0] == pytest.approx(oracle_limit((0.5, 1.0), (0.5, 0.5), 0.5), rel=1e-13)

    def test_uncertified_after_refinement_raises(self, monkeypatch):
        # no rule meets a tolerance below its own rounding floor
        monkeypatch.setattr(estimators, "_ROOT_RTOL", 1e-300)
        with pytest.raises(NonConvergenceError):
            solve_cpl_binary([0.5, 0.7], [1.0, 0.7], 0.5, 0.5)
        with pytest.raises(NonConvergenceError):
            solve_censored_binary(0.3, 0.8, 0.7, 0.5, 2.0)


class TestNoFallback:
    """The paper's workloads are all certified by the base rule, unrefined."""

    def test_figure2_grid(self, no_fallback):
        grid = figure2_grid()
        assert np.all(np.isfinite(grid.c_pl))

    def test_table1(self, no_fallback):
        table = table1_grid()
        assert np.isfinite(table.c_pl).sum() == 21

    def test_example3_plugin_inputs(self, no_fallback, example3_scenario):
        # the plug-in solves the binary limit at per-trial Cox estimates
        result = bias_sweep(example3_scenario, [1.0, 2.0, 4.0, 7.0, 10.0, math.inf], 100)
        assert result.n_failed.sum() == 0
