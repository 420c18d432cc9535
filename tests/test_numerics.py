import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hrmix
from hrmix import (
    BadBracketError,
    DomainError,
    NonConvergenceError,
    QuadratureSpec,
    SingularJacobianError,
    SingularMatrixError,
    brent_root,
    c_hm_binary,
    integrate_semi_infinite,
    newton_nd,
    solve_linear,
)


class TestIntegrateSemiInfinite:
    def test_unit_exponential(self):
        assert integrate_semi_infinite(lambda u: np.exp(-u)) == pytest.approx(1.0, rel=1e-10)

    def test_exponential_mean(self):
        assert integrate_semi_infinite(lambda u: u * np.exp(-u)) == pytest.approx(1.0, rel=1e-10)

    def test_mixture_mean(self):
        # mean of a two-component exponential mixture: 0.5/0.5 + 0.5/2
        f = lambda u: u * (0.5 * 0.5 * np.exp(-0.5 * u) + 0.5 * 2.0 * np.exp(-2.0 * u))
        assert integrate_semi_infinite(f) == pytest.approx(1.25, rel=1e-9)

    def test_scalar_only_integrand(self):
        # math.exp cannot take an array, forcing the pointwise fallback
        assert integrate_semi_infinite(lambda u: math.exp(-u)) == pytest.approx(1.0, rel=1e-10)

    def test_non_finite_integrand_raises(self):
        with pytest.raises(DomainError):
            integrate_semi_infinite(lambda u: np.where(u > 1, np.nan, np.exp(-u)))

    def test_budget_exhaustion_raises(self):
        spec = QuadratureSpec(rel_tol=1e-14, abs_tol=1e-300, max_subdivisions=1)
        with pytest.raises(NonConvergenceError):
            integrate_semi_infinite(lambda u: np.exp(-u) * np.sin(40 * u) ** 2, spec)

    def test_invalid_spec(self):
        with pytest.raises(ValueError):
            QuadratureSpec(rel_tol=0.0)
        with pytest.raises(ValueError):
            QuadratureSpec(tail_cut=-1.0)
        with pytest.raises(ValueError):
            QuadratureSpec(max_subdivisions=0)

    @pytest.mark.parametrize(
        "f",
        [
            # the pooled-limit and censored-limit integrands and the
            # score-equation mass all decay at least like exp(-u)
            lambda u: ((0.5 * np.exp(-u) + 0.105 * np.exp(-0.3 * u) + 0.12 * np.exp(-0.8 * u))
                       / (0.5 * np.exp(-u) + 0.14 * np.exp(-0.3 * u) + 0.06 * np.exp(-0.8 * u))) * np.exp(-u),
            lambda u: u * np.exp(-u) * (0.7 + 0.3 * np.exp(-0.5 * u)),
            lambda u: np.exp(-u) / (1.0 + u),
        ],
    )
    def test_tail_cut_doubling_invariance(self, f):
        base = integrate_semi_infinite(f, QuadratureSpec())
        doubled = integrate_semi_infinite(f, QuadratureSpec(tail_cut=100.0))
        assert doubled == pytest.approx(base, rel=1e-9)

    @given(rate=st.floats(1.0, 8.0), scale=st.floats(0.1, 5.0))
    @settings(max_examples=25, deadline=None)
    def test_scaled_exponentials(self, rate, scale):
        val = integrate_semi_infinite(lambda u: scale * np.exp(-rate * u))
        assert val == pytest.approx(scale / rate, rel=1e-9)


class TestBrentRoot:
    def test_linear(self):
        report = brent_root(lambda c: c - 0.7, 0.0, 2.0, tol=1e-12)
        assert report.converged
        assert report.root[0] == pytest.approx(0.7, abs=1e-12)

    def test_sqrt2(self):
        report = brent_root(lambda c: c * c - 2.0, 1.0, 2.0, tol=1e-12)
        assert report.root[0] == pytest.approx(math.sqrt(2.0), abs=1e-12)

    def test_pooled_limit_residual(self):
        # residual of the pooled-limit moment identity at a=0.5, b=1, p=q=0.5;
        # the root is the table value 0.682 (printed with ~0.01 noise)
        a, b, p, q = 0.5, 1.0, 0.5, 0.5

        def resid(c):
            f = lambda u: ((1 - q) * np.exp(-u) + p * q * a * np.exp(-a * u) + (1 - p) * q * b * np.exp(-b * u)) / (
                (1 - q) * np.exp(-u) + p * q * c * np.exp(-a * u) + (1 - p) * q * c * np.exp(-b * u)
            ) * np.exp(-u)
            return integrate_semi_infinite(f) - 1.0

        report = brent_root(resid, a, b, tol=1e-9)
        assert report.converged
        assert report.root[0] == pytest.approx(0.682, abs=0.015)

    def test_bad_bracket(self):
        with pytest.raises(BadBracketError):
            brent_root(lambda c: c * c + 1.0, -1.0, 1.0, tol=1e-12)

    def test_root_at_endpoint(self):
        report = brent_root(lambda c: c - 1.0, 1.0, 2.0, tol=1e-12)
        assert report.root[0] == 1.0 and report.converged

    @given(widen=st.floats(0.0, 5.0))
    @settings(max_examples=25, deadline=None)
    def test_bracket_widening_invariance(self, widen):
        g = lambda c: math.expm1(c - 0.75)
        base = brent_root(g, 0.0, 2.0, tol=1e-12).root[0]
        wide = brent_root(g, -widen, 2.0 + widen, tol=1e-12).root[0]
        assert wide == pytest.approx(base, abs=1e-12)


def test_import_leaves_scipy_optimize_unloaded():
    # brent_root imports scipy.optimize on first use; the package and CLI must not
    code = "import sys, hrmix, hrmix.cli; print('scipy.optimize' in sys.modules)"
    src = str(Path(hrmix.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "False"


class TestNewtonNd:
    def test_trivial_shift(self):
        report = newton_nd(lambda x: (x - np.array([1.0, 2.0]), np.eye(2)), np.zeros(2), tol=1e-12)
        assert report.converged
        np.testing.assert_allclose(report.root, [1.0, 2.0], atol=1e-12)

    def test_harmonic_score_equation_binary(self):
        # score equation of the working model for a binary arm indicator:
        # q e^theta (p/a + (1-p)/b) = q, independent of q
        a, b, p, q = 0.5, 1.0, 0.5, 0.37
        F = lambda th: (
            np.array([q * math.exp(th[0]) * (p / a + (1 - p) / b) - q]),
            np.array([[q * math.exp(th[0]) * (p / a + (1 - p) / b)]]),
        )
        report = newton_nd(F, np.array([0.0]), tol=1e-12)
        assert report.root[0] == pytest.approx(math.log(2.0 / 3.0), abs=1e-10)
        assert report.root[0] == pytest.approx(math.log(c_hm_binary(a, b, p)), abs=1e-10)

    def test_linear_system_two_iterations(self):
        A = np.array([[3.0, 1.0], [1.0, 2.0]])
        rhs = np.array([5.0, 5.0])
        report = newton_nd(lambda x: (A @ x - rhs, A), np.zeros(2), tol=1e-10)
        assert report.converged and report.iterations <= 2
        np.testing.assert_allclose(report.root, np.linalg.solve(A, rhs), atol=1e-9)

    @given(
        a11=st.floats(1.0, 4.0),
        a22=st.floats(1.0, 4.0),
        off=st.floats(-0.9, 0.9),
        r1=st.floats(-3.0, 3.0),
        r2=st.floats(-3.0, 3.0),
    )
    @settings(max_examples=25, deadline=None)
    def test_linear_systems_property(self, a11, a22, off, r1, r2):
        A = np.array([[a11, off], [off, a22]])
        rhs = np.array([r1, r2])
        report = newton_nd(lambda x: (A @ x - rhs, A), np.zeros(2), tol=1e-9)
        assert report.iterations <= 2
        np.testing.assert_allclose(A @ report.root, rhs, atol=1e-7)

    def test_nonlinear_with_damping(self):
        F = lambda x: (np.array([math.atan(x[0]) - 0.2]), np.array([[1 / (1 + x[0] ** 2)]]))
        report = newton_nd(F, np.array([20.0]), tol=1e-12, max_iter=80)
        assert report.root[0] == pytest.approx(math.tan(0.2), abs=1e-10)

    def test_singular_jacobian(self):
        F = lambda x: (
            np.array([x[0] + x[1], 2 * (x[0] + x[1]) - 1.0]),
            np.array([[1.0, 1.0], [2.0, 2.0]]),
        )
        with pytest.raises(SingularJacobianError):
            newton_nd(F, np.zeros(2), tol=1e-10)

    def test_non_convergence(self):
        with pytest.raises(NonConvergenceError):
            newton_nd(
                lambda x: (np.array([x[0] ** 2 + 1.0]), np.array([[2 * x[0]]])),
                np.array([0.5]),
                tol=1e-10,
                max_iter=5,
            )


class TestSolveLinear:
    def test_identity(self):
        np.testing.assert_allclose(solve_linear(np.eye(2), [3.0, 4.0]), [3.0, 4.0])

    def test_diagonal(self):
        np.testing.assert_allclose(solve_linear([[2.0, 0.0], [0.0, 4.0]], [2.0, 8.0]), [1.0, 2.0])

    def test_harmonic_delta_sensitivity_1x1(self):
        # the 1x1 implicit-function system for d theta / d alpha must match a
        # finite difference of the closed-form harmonic-mean log effect
        a, b, p, q = 0.3, 0.8, 0.7, 0.5
        alpha, beta = math.log(a), math.log(b)
        theta = math.log(c_hm_binary(a, b, p))
        A = np.array([[q * math.exp(theta) * (p / a + (1 - p) / b)]])
        rhs = np.array([q * math.exp(theta) * p / a])
        sens = solve_linear(A, rhs)[0]
        h = 1e-6
        fd = (
            math.log(c_hm_binary(math.exp(alpha + h), b, p))
            - math.log(c_hm_binary(math.exp(alpha - h), b, p))
        ) / (2 * h)
        assert sens == pytest.approx(fd, abs=1e-8)

    def test_singular(self):
        with pytest.raises(SingularMatrixError):
            solve_linear(np.zeros((2, 2)), [1.0, 2.0])
        with pytest.raises(SingularMatrixError):
            solve_linear([[1.0, 2.0], [2.0, 4.0]], [1.0, 1.0])
