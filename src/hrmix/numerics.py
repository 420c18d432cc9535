"""Shared numerical kernels.

The nodes and weights of the Gauss-Kronrod 7-15 rule that the pooled
limits' fixed composite quadrature is built on, a damped multivariate
Newton iteration on caller-supplied Jacobians, and small dense linear
solves.  Every routine
is a pure function of its inputs and keeps no module state, so results
never depend on call order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import NonConvergenceError, SingularJacobianError, SingularMatrixError

__all__ = ["SolveReport", "newton_nd", "solve_linear"]


@dataclass(frozen=True)
class SolveReport:
    """Outcome of an iterative solve.

    ``converged`` implies ``residual_norm`` is at or below the tolerance
    the caller declared.
    """

    root: np.ndarray
    residual_norm: float
    iterations: int
    converged: bool


# Gauss-Kronrod 7-15 nodes and weights on [-1, 1]; the embedded Gauss-7
# rule lives on the odd-index Kronrod nodes.
_XK = np.array(
    [
        -0.991455371120813,
        -0.949107912342759,
        -0.864864423359769,
        -0.741531185599394,
        -0.586087235467691,
        -0.405845151377397,
        -0.207784955007898,
        0.0,
        0.207784955007898,
        0.405845151377397,
        0.586087235467691,
        0.741531185599394,
        0.864864423359769,
        0.949107912342759,
        0.991455371120813,
    ]
)
_WK = np.array(
    [
        0.022935322010529,
        0.063092092629979,
        0.104790010322250,
        0.140653259715525,
        0.169004726639267,
        0.190350578064785,
        0.204432940075298,
        0.209482141084728,
        0.204432940075298,
        0.190350578064785,
        0.169004726639267,
        0.140653259715525,
        0.104790010322250,
        0.063092092629979,
        0.022935322010529,
    ]
)
_WG = np.array(
    [
        0.129484966168870,
        0.279705391489277,
        0.381830050505119,
        0.417959183673469,
        0.381830050505119,
        0.279705391489277,
        0.129484966168870,
    ]
)

def newton_nd(
    F: Callable,
    x0,
    tol: float = 1e-10,
    max_iter: int = 50,
) -> SolveReport:
    """Solve the square system F(x) = 0 by damped Newton iteration.

    ``F(x)`` returns the residual and the Jacobian as arrays of shapes
    (n,) and (n, n), column j of the Jacobian holding the derivatives
    with respect to x_j.  When a full Newton step fails to reduce the
    max-norm of the residual, the step is halved (up to 20 times) before
    the iteration is declared stalled.  On a linear system convergence
    takes one iteration.
    """
    x = np.atleast_1d(np.asarray(x0, dtype=float)).copy()
    fx, jac = F(x)
    if fx.shape != x.shape or jac.shape != (x.size, x.size):
        raise ValueError(f"F must return shapes ({x.size},) and ({x.size}, {x.size})")
    if not np.all(np.isfinite(fx)):
        raise NonConvergenceError("residual non-finite at the starting point")
    norm = float(np.max(np.abs(fx)))
    for it in range(max_iter):
        if norm <= tol:
            return SolveReport(x, norm, it, True)
        try:
            step = np.linalg.solve(jac, -fx)
        except np.linalg.LinAlgError as exc:
            raise SingularJacobianError(
                f"singular Jacobian at iterate {x.tolist()}"
            ) from exc
        damp = 1.0
        accepted = False
        for _ in range(20):
            x_new = x + damp * step
            f_new, jac_new = F(x_new)
            norm_new = float(np.max(np.abs(f_new))) if np.all(np.isfinite(f_new)) else np.inf
            if norm_new < norm:
                x, fx, jac, norm = x_new, f_new, jac_new, norm_new
                accepted = True
                break
            damp *= 0.5
        if not accepted:
            break
    if norm <= tol:
        return SolveReport(x, norm, max_iter, True)
    raise NonConvergenceError(
        f"Newton residual {norm:.3e} above tolerance {tol:.1e} after {max_iter} iterations"
    )


def solve_linear(A, rhs) -> np.ndarray:
    """Solve the small dense system A x = rhs.

    Raises :class:`SingularMatrixError` when the matrix is singular or so
    ill-conditioned that the relative residual exceeds 1e-12.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(rhs, dtype=float)
    try:
        x = np.linalg.solve(A, b)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError("matrix is singular") from exc
    scale = max(
        float(np.max(np.abs(A)) * max(np.max(np.abs(x)), 1.0)),
        float(np.max(np.abs(b))) if b.size else 1.0,
        1e-300,
    )
    resid = float(np.max(np.abs(A @ x - b))) / scale
    if not np.isfinite(resid) or resid > 1e-12:
        raise SingularMatrixError(f"system too ill-conditioned: relative residual {resid:.3e}")
    return x
