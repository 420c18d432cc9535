"""Shared numerical kernels.

The nodes and weights of the Gauss-Kronrod 7-15 rule that the pooled
limits' fixed composite quadrature is built on, the Newton minimiser with
Armijo backtracking that finds the general pooled and harmonic-mean
limits (each the minimiser of a convex function whose gradient is the
estimating equation), and small dense linear solves.  Every routine is a
pure function of its inputs and keeps no module state, so results never
depend on call order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import NonConvergenceError, SingularMatrixError

__all__ = ["SolveReport", "solve_linear"]


@dataclass(frozen=True)
class SolveReport:
    """Outcome of an iterative solve.

    ``converged`` implies ``residual_norm`` is at or below the tolerance
    of the solver that made it.
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


def _newton_min(objective: Callable, x0, tol: float) -> np.ndarray:
    """Minimise a strictly convex function by Newton with Armijo backtracking.

    ``objective(x)`` returns the value, the gradient (n,) and the Hessian
    (n, n).  Each Newton step is halved, up to 40 times, until the value
    falls by 1e-4 of the decrease the gradient predicts, or, since near the
    minimum that decrease is below the value's rounding, until the
    gradient's max-norm falls with the value within 1e-13 * (1 + |value|)
    (Nocedal & Wright 2006, ch. 3).  Returns once the gradient's max-norm
    is at most ``tol``.  A non-finite start, a step that no halving
    accepts, or 60 steps raise NonConvergenceError, so a run that has left
    the basin ends at once and the caller's restart is the only fallback.
    """
    x = np.atleast_1d(np.asarray(x0, dtype=float))
    # a step that overflows the objective is rejected like any other
    with np.errstate(all="ignore"):
        value, grad, hess = objective(x)
        norm = np.max(np.abs(grad))
        if not np.isfinite(value + norm):
            raise NonConvergenceError("objective non-finite at the starting point")
        for _ in range(60):
            if norm <= tol:
                return x
            step = solve_linear(hess, -grad)
            drop, flat = 1e-4 * (grad @ step), 1e-13 * (1 + abs(value))
            for halving in range(40):
                damp = 0.5**halving
                moved = x + damp * step
                trial = objective(moved)
                t_norm = np.max(np.abs(trial[1]))
                if np.isfinite(trial[0] + t_norm) and (
                    trial[0] <= value + damp * drop
                    or (t_norm < norm and abs(trial[0] - value) <= flat)
                ):
                    break
            else:
                raise NonConvergenceError(f"line search failed at gradient norm {norm:.3e}")
            x, (value, grad, hess), norm = moved, trial, t_norm
    if norm <= tol:
        return x
    raise NonConvergenceError(f"gradient norm {norm:.3e} above {tol:.1e} after 60 Newton steps")


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
