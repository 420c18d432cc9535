import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hrmix
from hrmix import SingularMatrixError, c_hm_binary, solve_linear


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
