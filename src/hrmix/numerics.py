"""Shared numerical kernels.

Adaptive quadrature over (0, inf) for exponentially decaying integrands,
bracketed scalar root finding, a damped multivariate Newton iteration with
finite-difference Jacobians, and small dense linear solves.  Every routine
is a pure function of its inputs and safe to call concurrently from
multiple threads; the quadrature in particular keeps no module state so
that parallel replicate studies stay deterministic.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import (
    BadBracketError,
    DomainError,
    NonConvergenceError,
    SingularJacobianError,
    SingularMatrixError,
)

__all__ = [
    "QuadratureSpec",
    "SolveReport",
    "integrate_semi_infinite",
    "brent_root",
    "newton_nd",
    "solve_linear",
]


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerances and budget for the semi-infinite quadrature.

    ``tail_cut`` is the point beyond which the integrand is treated as
    exactly zero.  Integrands passed to :func:`integrate_semi_infinite`
    are expected to decay at least like ``exp(-u)``, which bounds the
    neglected tail by ``exp(-tail_cut)`` times a polynomial factor.
    """

    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    max_subdivisions: int = 200
    tail_cut: float = 50.0

    def __post_init__(self):
        if not (self.rel_tol > 0 and self.abs_tol > 0):
            raise ValueError("rel_tol and abs_tol must be positive")
        if self.tail_cut <= 0:
            raise ValueError("tail_cut must be positive")
        if self.max_subdivisions < 1:
            raise ValueError("max_subdivisions must be at least 1")


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

DEFAULT_QUADRATURE = QuadratureSpec()


def _eval_panel(f: Callable, lo: float, hi: float) -> tuple[float, float]:
    """Return (Kronrod value, error estimate) of f on [lo, hi]."""
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    x = mid + half * _XK
    try:
        y = np.asarray(f(x), dtype=float)
        if y.shape != x.shape:
            raise TypeError
    except (TypeError, ValueError):
        # scalar-only integrand; evaluate point by point
        y = np.array([float(f(v)) for v in x])
    if not np.all(np.isfinite(y)):
        bad = x[~np.isfinite(y)][0]
        raise DomainError(f"integrand returned a non-finite value near u={bad!r}")
    kron = half * float(_WK @ y)
    gauss = half * float(_WG @ y[1::2])
    return kron, abs(kron - gauss)


def integrate_semi_infinite(f: Callable, spec: QuadratureSpec | None = None) -> float:
    """Integrate ``f`` over (0, inf) by adaptive Gauss-Kronrod quadrature.

    The integrand must be finite and continuous on (0, tail_cut] and decay
    at least exponentially; the integral is truncated at ``spec.tail_cut``.
    ``f`` is called with a numpy array of nodes and should evaluate
    elementwise (a scalar-only callable also works, at some speed cost).

    Raises
    ------
    NonConvergenceError
        if the subdivision budget is exhausted before the error estimate
        drops below ``max(abs_tol, rel_tol * |integral|)``.
    DomainError
        if ``f`` returns NaN or infinity.
    """
    spec = spec or DEFAULT_QUADRATURE
    val, err = _eval_panel(f, 0.0, spec.tail_cut)
    # heap of (-error, tiebreak, lo, hi, value, error)
    counter = 0
    heap = [(-err, counter, 0.0, spec.tail_cut, val, err)]
    total, total_err = val, err
    for _ in range(spec.max_subdivisions):
        if total_err <= max(spec.abs_tol, spec.rel_tol * abs(total)):
            return total
        neg, _, lo, hi, v, e = heapq.heappop(heap)
        mid = 0.5 * (lo + hi)
        v1, e1 = _eval_panel(f, lo, mid)
        v2, e2 = _eval_panel(f, mid, hi)
        total += v1 + v2 - v
        total_err += e1 + e2 - e
        counter += 1
        heapq.heappush(heap, (-e1, counter, lo, mid, v1, e1))
        counter += 1
        heapq.heappush(heap, (-e2, counter, mid, hi, v2, e2))
    if total_err <= max(spec.abs_tol, spec.rel_tol * abs(total)):
        return total
    raise NonConvergenceError(
        f"quadrature error {total_err:.3e} above tolerance after "
        f"{spec.max_subdivisions} subdivisions"
    )


def brent_root(g: Callable[[float], float], lo: float, hi: float, tol: float) -> SolveReport:
    """Find a root of ``g`` on the bracket [lo, hi] by Brent's method.

    Requires a sign change: ``g(lo) * g(hi) <= 0``.  On success the
    returned report satisfies ``|g(root)| <= tol`` and ``root`` lies in
    the bracket.  ``tol`` is a residual tolerance; the abscissa itself is
    located to near machine precision, so ``converged`` only comes back
    False when ``g`` is too steep or too noisy for the residual check.
    """
    if not lo < hi:
        raise BadBracketError(f"empty bracket [{lo}, {hi}]")
    glo = float(g(lo))
    ghi = float(g(hi))
    if not (np.isfinite(glo) and np.isfinite(ghi)):
        raise DomainError("bracket endpoint evaluated to a non-finite value")
    if glo == 0.0:
        return SolveReport(np.array([lo]), 0.0, 0, True)
    if ghi == 0.0:
        return SolveReport(np.array([hi]), 0.0, 0, True)
    if glo * ghi > 0:
        raise BadBracketError(
            f"g has the same sign at both endpoints: g({lo})={glo:.3e}, g({hi})={ghi:.3e}"
        )
    # deferred: importing scipy.optimize costs more than most solves
    from scipy.optimize import brentq

    x, info = brentq(g, lo, hi, xtol=1e-14, rtol=8.9e-16, maxiter=200, full_output=True)
    resid = abs(float(g(x)))
    return SolveReport(
        root=np.array([x]),
        residual_norm=resid,
        iterations=info.iterations,
        converged=bool(info.converged) and resid <= tol,
    )


def _fd_jacobian(F: Callable, x: np.ndarray, fx: np.ndarray) -> np.ndarray:
    # central differences, step max(1e-6, 1e-6*|x_i|) per coordinate
    n = x.size
    jac = np.empty((fx.size, n))
    for i in range(n):
        h = max(1e-6, 1e-6 * abs(x[i]))
        xp = x.copy()
        xm = x.copy()
        xp[i] += h
        xm[i] -= h
        jac[:, i] = (np.asarray(F(xp), dtype=float) - np.asarray(F(xm), dtype=float)) / (2 * h)
    return jac


def newton_nd(
    F: Callable,
    x0,
    tol: float = 1e-10,
    max_iter: int = 50,
) -> SolveReport:
    """Solve the square system F(x) = 0 by damped Newton iteration.

    The Jacobian is approximated by central finite differences.  When a
    full Newton step fails to reduce the max-norm of the residual, the
    step is halved (up to 20 times) before the iteration is declared
    stalled.  On a linear system the finite-difference Jacobian is exact
    and convergence takes at most two iterations.
    """
    x = np.atleast_1d(np.asarray(x0, dtype=float)).copy()
    fx = np.atleast_1d(np.asarray(F(x), dtype=float))
    if fx.shape != x.shape:
        raise ValueError(f"F must map R^{x.size} to R^{x.size}, got shape {fx.shape}")
    if not np.all(np.isfinite(fx)):
        raise NonConvergenceError("residual non-finite at the starting point")
    norm = float(np.max(np.abs(fx)))
    for it in range(max_iter):
        if norm <= tol:
            return SolveReport(x, norm, it, True)
        jac = _fd_jacobian(F, x, fx)
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
            f_new = np.atleast_1d(np.asarray(F(x_new), dtype=float))
            norm_new = float(np.max(np.abs(f_new))) if np.all(np.isfinite(f_new)) else np.inf
            if norm_new < norm:
                x, fx, norm = x_new, f_new, norm_new
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
