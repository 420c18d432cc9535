"""Shared fixtures and independent oracles for the test suite.

The oracles here deliberately avoid the library's own code paths: the
partial likelihood is enumerated risk set by risk set in O(n^2), and the
grid-search maximizer scans a fixed lattice.  They exist so the fast
vectorized implementations are checked against something that cannot
share their bugs.
"""

import math

import numpy as np
import pytest

from hrmix import CovariateDistribution, DegenerateDataError, NonConvergenceError, ScenarioSpec


def naive_log_partial_likelihood(times, events, z, beta):
    """Breslow-ties log partial likelihood by direct risk-set enumeration."""
    times = np.asarray(times, dtype=float)
    events = np.asarray(events)
    z = np.asarray(z, dtype=float)
    if z.ndim == 1:
        z = z[:, None]
    beta = np.atleast_1d(np.asarray(beta, dtype=float))
    total = 0.0
    for i in range(len(times)):
        if events[i] != 1:
            continue
        at_risk = times >= times[i]
        denom = sum(math.exp(float(z[j] @ beta)) for j in range(len(times)) if at_risk[j])
        total += float(z[i] @ beta) - math.log(denom)
    return total


def grid_search_beta(times, events, z, lo=-3.0, hi=3.0, step=1e-3):
    """Exhaustive scalar maximizer of the exact partial likelihood."""
    grid = np.arange(lo, hi + step / 2, step)
    best_beta, best_ll = grid[0], -np.inf
    for beta in grid:
        ll = naive_log_partial_likelihood(times, events, z, [beta])
        if ll > best_ll:
            best_beta, best_ll = beta, ll
    return float(best_beta), float(best_ll)


def grid_search_beta_fast(times, events, z, lo=-3.0, hi=3.0, step=1e-3):
    """Vectorized version of :func:`grid_search_beta` for larger sweeps.

    Same lattice and same Breslow likelihood, but all grid points are
    evaluated at once; used where the pure-Python scan would be too slow.
    """
    times = np.asarray(times, dtype=float)
    events = np.asarray(events)
    zv = np.asarray(z, dtype=float).reshape(len(times))
    grid = np.arange(lo, hi + step / 2, step)
    ll = np.zeros(grid.size)
    for i in range(len(times)):
        if events[i] != 1:
            continue
        at_risk = times >= times[i]
        denom = np.exp(np.outer(grid, zv[at_risk])).sum(axis=1)
        ll += grid * zv[i] - np.log(denom)
    j = int(np.argmax(ll))
    return float(grid[j]), float(ll[j])


def reference_fit_cox(times, events, z, tol=1e-10, max_iter=100):
    """Scalar Breslow Newton for one dataset, the loop the batched fitter replaced.

    Sorts by descending time, sums each tie block with ``np.bincount`` and
    steps one dataset at a time with the same convergence rule, step
    halving and failure checks as ``fit_cox``, raising the same error
    classes.  Returns the fitted log hazard ratios.
    """
    times = np.asarray(times, dtype=float)
    z = np.asarray(z, dtype=float).reshape(len(times), -1)
    order = np.argsort(-times, kind="stable")
    t, d, x = times[order], np.asarray(events)[order], z[order]
    n_events = int(d.sum())
    if n_events == 0:
        raise DegenerateDataError("no observed events")
    if np.all(np.ptp(x, axis=0) == 0):
        raise DegenerateDataError("all covariate vectors are identical")
    is_new = np.r_[True, t[1:] != t[:-1]]
    block_end = np.r_[np.flatnonzero(is_new)[1:], t.size]
    n_blocks = block_end.size
    ev = d == 1
    eb = (np.cumsum(is_new) - 1)[ev]
    d_count = np.bincount(eb, minlength=n_blocks).astype(float)
    h = d_count > 0
    x_event_sum = x[ev].sum(axis=0)

    def loglik_score_info(beta):
        eta = x @ beta
        w = np.exp(eta)
        s0 = np.cumsum(w)[block_end - 1][h]
        s1 = np.cumsum(x * w[:, None], axis=0)[block_end - 1][h]
        s2 = np.cumsum(np.einsum("ij,il->ijl", x, x * w[:, None]), axis=0)[block_end - 1][h]
        dh = d_count[h]
        ll = float(eta[ev].sum() - np.sum(dh * np.log(s0)))
        zbar = s1 / s0[:, None]
        score = x_event_sum - (dh[:, None] * zbar).sum(axis=0)
        spread = s2 / s0[:, None, None] - np.einsum("ij,il->ijl", zbar, zbar)
        return ll, score, (dh[:, None, None] * spread).sum(axis=0)

    beta = np.zeros(x.shape[1])
    ll, score, info = loglik_score_info(beta)
    gtol = max(tol, 1e-12 * n_events)
    prev_norm = np.inf
    with np.errstate(all="ignore"):
        for it in range(1, max_iter + 1):
            norm = float(np.max(np.abs(score)))
            if norm <= gtol or (it > 3 and prev_norm <= norm <= 1e-8 * n_events):
                break
            prev_norm = norm
            try:
                step = np.linalg.solve(info, score)
            except np.linalg.LinAlgError:
                raise DegenerateDataError("singular information matrix") from None
            slack = 1e-10 * (1.0 + abs(ll))
            damp = 1.0
            for _ in range(25):
                beta_new = beta + damp * step
                ll_new, score_new, info_new = loglik_score_info(beta_new)
                if np.isfinite(ll_new) and ll_new >= ll - slack:
                    break
                damp *= 0.5
            beta, ll, score, info = beta_new, ll_new, score_new, info_new
            if not np.max(np.abs(beta)) <= 50.0:
                raise DegenerateDataError("beta diverged beyond 50")
    if not np.max(np.abs(score)) <= max(gtol, 1e-8 * n_events):
        raise NonConvergenceError("score norm above tolerance")
    if not np.linalg.eigvalsh(0.5 * (info + info.T)).min() > 1e-8 * n_events:
        raise DegenerateDataError("observed information collapsed")
    return beta


EXAMPLE3_EFFECTS = (math.log(0.3), math.log(0.8))
EXAMPLE3_SIZES = (400, 170)
EXAMPLE3_P = 400 / 570


@pytest.fixture(scope="session")
def bernoulli_half():
    return CovariateDistribution.bernoulli(0.5)


@pytest.fixture(scope="session")
def example3_scenario(bernoulli_half):
    """Two trials with hazard ratios 0.3 and 0.8, sizes 400 and 170."""
    return ScenarioSpec(
        trial_effects=[[EXAMPLE3_EFFECTS[0]], [EXAMPLE3_EFFECTS[1]]],
        sizes=EXAMPLE3_SIZES,
        covariate_dist=bernoulli_half,
        seed=20260808,
    )
