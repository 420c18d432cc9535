"""Shared fixtures and independent oracles for the test suite.

The oracles here deliberately avoid the library's own code paths: the
partial likelihood is enumerated risk set by risk set in O(n^2), and the
grid-search maximizer scans a fixed lattice.  They exist so the fast
vectorized implementations are checked against something that cannot
share their bugs.
"""

import csv
import math

import numpy as np
import pytest

from hrmix import (
    CovariateDistribution,
    DegenerateDataError,
    NonConvergenceError,
    ParseError,
    ScenarioSpec,
    SchemaError,
    TrialDataset,
    estimators,
)


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


def censor_administrative(data: TrialDataset, t_max: float) -> TrialDataset:
    """Apply a fixed study-end time to an (ideally uncensored) dataset.

    Records keep their event flag only when the observed time is within
    the study window; times are capped at ``t_max``.  The sweep censors
    through its count tables instead; this is the per-dataset oracle.
    """
    if not t_max > 0:
        raise ValueError("t_max must be positive")
    if not np.isfinite(t_max):
        return data
    return TrialDataset(
        times=np.minimum(data.times, t_max),
        events=np.where(data.times <= t_max, data.events, 0),
        covariates=data.covariates,
        trial_ids=data.trial_ids,
        label=data.label,
    )


def reference_read_patient_csv(path) -> list[TrialDataset]:
    """Row-by-row patient-line reader, the loop the block-wise reader replaced.

    Converts and checks one record at a time with Python ``float``/``int``
    and groups records per trial id in order of first appearance.  It opens
    the file as plain UTF-8, so a byte-order mark is not stripped.
    """
    with open(path, "r", newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise SchemaError("empty file", missing=["trial_id", "time", "event"]) from None
        expected = ["trial_id", "time", "event"]
        missing = [c for c in expected if c not in header]
        if missing:
            raise SchemaError("bad patient-line header", missing=missing)
        k = len(header) - 3
        if header[:3] != expected or header[3:] != [f"z{j + 1}" for j in range(k)]:
            raise SchemaError(
                f"header must be trial_id,time,event,z1,...,zk; got {','.join(header)}"
            )
        groups: dict[str, list] = {}
        order: list[str] = []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 3 + k:
                raise ParseError(f"expected {3 + k} fields, got {len(row)}", line=lineno)
            tid = row[0]
            try:
                t = float(row[1])
                e = int(row[2])
                z = [float(v) for v in row[3:]]
            except ValueError as exc:
                raise ParseError(str(exc), line=lineno) from None
            if not np.isfinite(t) or t < 0:
                raise ParseError(f"time must be finite and nonnegative, got {row[1]}", line=lineno)
            if e not in (0, 1):
                raise ParseError(f"event must be 0 or 1, got {row[2]}", line=lineno)
            if not all(np.isfinite(z)):
                raise ParseError("covariates must be finite", line=lineno)
            if tid not in groups:
                groups[tid] = []
                order.append(tid)
            groups[tid].append((t, e, z))
    out = []
    for tid in order:
        rows = groups[tid]
        out.append(
            TrialDataset(
                times=np.array([r[0] for r in rows]),
                events=np.array([r[1] for r in rows]),
                covariates=np.array([r[2] for r in rows], dtype=float).reshape(len(rows), k),
                # np.full would pass tid through a numpy string, which drops
                # trailing NUL characters
                trial_ids=np.array([tid] * len(rows), dtype=object),
                label=tid,
            )
        )
    return out


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


@pytest.fixture()
def uncertified_rule(monkeypatch):
    """The fixed rule certifies no integral, so no general pooled-limit root is certified."""
    rule = estimators._rule_certified

    def never_certified(*args):
        total, within = rule(*args)
        return total, np.zeros_like(within, dtype=bool)

    monkeypatch.setattr(estimators, "_rule_certified", never_certified)
