"""The batched binary pooled limit against an independent oracle.

The oracle solves the same moment identity with scipy's adaptive QUADPACK
quadrature and Brent's method, sharing no code with the library's
fixed-rule Newton kernel or its adaptive fallback.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.optimize import brentq

import hrmix.estimators as estimators
from hrmix import (
    QuadratureSpec,
    bias_sweep,
    figure2_grid,
    solve_censored_binary,
    solve_cpl_binary,
    table1_grid,
)

# both hrmix solvers truncate the integral here by default
TAIL_CUT = 50.0


def oracle_limit(a, b, p, q, upper=TAIL_CUT, target=1.0):
    """Root in c of integral_0^upper (pooled-limit integrand) du = target."""

    def integrand(u, c):
        e1, ea, eb = math.exp(-u), math.exp(-a * u), math.exp(-b * u)
        num = (1 - q) * e1 + p * q * a * ea + (1 - p) * q * b * eb
        den = (1 - q) * e1 + p * q * c * ea + (1 - p) * q * c * eb
        return num / den * e1

    # split where the fastest exponential and the unit one turn over
    rate = max(a, b, 1.0)
    cuts = [x for x in (0.1 / rate, 1 / rate, 10 / rate, 0.1, 1.0, 10.0) if x < upper]
    edges = [0.0, *sorted(set(cuts)), upper]

    def resid(c):
        total = 0.0
        for lo, hi in zip(edges[:-1], edges[1:]):
            total += quad(integrand, lo, hi, args=(c,), epsabs=0.0, epsrel=1e-13, limit=200)[0]
        return total - target

    return brentq(resid, min(a, b), max(a, b), xtol=1e-15, rtol=8.9e-16)


log_hr = st.floats(-6.0, 6.0)
share = st.floats(0.01, 0.99)


@pytest.fixture
def no_fallback(monkeypatch):
    """Make the adaptive fallback fail loudly, past any HrmixError handler."""

    def forbidden(*args):
        raise AssertionError(f"adaptive fallback taken for {args[:4]}")

    monkeypatch.setattr(estimators, "_cpl_binary_adaptive", forbidden)


class TestAgainstOracle:
    @given(la=log_hr, lb=log_hr, p=share, q=share)
    @settings(max_examples=40, deadline=None)
    def test_uncensored(self, la, lb, p, q):
        # the oracle's bracket needs a resolvable spread
        assume(abs(la - lb) > 1e-6)
        a, b = math.exp(la), math.exp(lb)
        assert solve_cpl_binary(a, b, p, q) == pytest.approx(oracle_limit(a, b, p, q), rel=1e-10)

    @given(la=log_hr, lb=log_hr, p=share, q=share, H=st.floats(1e-3, 20.0))
    @settings(max_examples=30, deadline=None)
    def test_censored(self, la, lb, p, q, H):
        assume(abs(la - lb) > 1e-6)
        a, b = math.exp(la), math.exp(lb)
        want = oracle_limit(a, b, p, q, upper=H, target=-math.expm1(-H))
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
        assert oracle_limit(a, b, 0.5, 0.5) == pytest.approx(root, rel=1e-10)


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
    def test_uncertified_cell_takes_fallback(self, monkeypatch):
        # no fixed rule meets a tolerance below its own rounding floor
        seen = []
        monkeypatch.setattr(
            estimators, "_cpl_binary_adaptive", lambda *args: seen.append(args) or -1.0
        )
        spec = QuadratureSpec(rel_tol=1e-15, abs_tol=1e-18)
        c = solve_cpl_binary([0.5, 0.7], [1.0, 0.7], 0.5, 0.5, quad_spec=spec)
        assert c.tolist() == [-1.0, 0.7]
        assert [args[:4] for args in seen] == [(0.5, 1.0, 0.5, 0.5)]


class TestNoFallback:
    """The paper's workloads are all certified by the fixed rule."""

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
