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
    NonConvergenceError,
    SingularJacobianError,
    SingularMatrixError,
    c_hm_binary,
    newton_nd,
    solve_linear,
)


def test_import_leaves_scipy_optimize_unloaded():
    # scipy is a test dependency only: the package and CLI must load none of it
    code = "import sys, hrmix, hrmix.cli; print([m for m in sys.modules if m.startswith('scipy')])"
    src = str(Path(hrmix.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "[]"


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
