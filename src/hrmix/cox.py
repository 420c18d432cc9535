"""Cox proportional-hazards fitting by maximum partial likelihood.

Implements the Newton solver for the log partial likelihood with the
Breslow convention for ties, the observed-information covariance, and the
Breslow step estimate of the baseline cumulative hazard.  The solver fits
a batch of datasets at once, one per row: every row keeps its own
convergence test, step-halving and failure checks, and no row's
arithmetic depends on another, so a row fits to the same bits alone or in
any batch.  The risk-set sums at the end of each tie block with events
(Therneau & Grambsch 2000, ch. 3) share one layout, each row's blocks
contiguous (:class:`_BlockSums`), and come from one of two sources:

- :func:`fit_cox_rows` (and :func:`fit_cox`, its one-row case) takes any
  covariates: a risk-set sum is a running sum over the subjects of the
  row in descending time (:class:`_RiskSets`).
- The censoring sweep draws its covariates from a law with m support
  points, so a risk-set sum is the at-risk count of each point times
  e^{beta'z} z^r, an O(m) sum (:class:`_CountTables`).  Capping times at
  a study end changes no risk set at an earlier event, so the tables of
  one latent descending-time order serve every study end: each reads the
  suffix of event blocks up to its end.  One solve fits a chunk of
  replicates at every study end, for the pooled data and every trial at
  once: each dataset's blocks take their own column range of one layout,
  and a likelihood evaluation reads it in one pass.  The at-risk and
  event counts are int32, and they and the float64 work rows live in two
  arrays that every later chunk reuses.  The sweep takes this path only
  for laws of a few points per covariate, where O(m) beats a running sum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import TrialDataset
from .errors import DegenerateDataError, HrmixError, NonConvergenceError
from .numerics import SolveReport

__all__ = ["CoxFit", "CoxRows", "BreslowCurve", "fit_cox", "fit_cox_rows", "breslow_cumhaz"]

# |beta| beyond this is treated as a monotone partial likelihood
# (perfect separation); e^50 exceeds any plausible hazard ratio.
_DIVERGENCE_BOUND = 50.0
_MAX_HALVINGS = 25
# Score tolerance and iteration budget of every fit, so that the
# count-table fit stops where fit_cox_rows does.
_TOL = 1e-10
_MAX_ITER = 100

# Row failure codes of the batched fit, with the error each one raises.
_NO_EVENTS, _NO_CONTRAST, _SINGULAR, _DIVERGED, _NOT_CONVERGED, _COLLAPSED = range(1, 7)
_FAILURES = {
    _NO_EVENTS: (DegenerateDataError, "no observed events"),
    _NO_CONTRAST: (DegenerateDataError, "all covariate vectors are identical"),
    _SINGULAR: (
        DegenerateDataError,
        "singular information matrix (no contrast within risk sets)",
    ),
    _DIVERGED: (
        DegenerateDataError,
        "beta diverged beyond 50: a covariate separates events perfectly",
    ),
    _NOT_CONVERGED: (
        NonConvergenceError,
        "score norm {resid:.3e} above tolerance after {iters} iterations",
    ),
    _COLLAPSED: (
        DegenerateDataError,
        "observed information collapsed: a covariate separates events perfectly",
    ),
}


@dataclass(frozen=True)
class CoxFit:
    """Fitted log hazard ratios with observed-information covariance."""

    beta_hat: np.ndarray
    covariance: np.ndarray
    log_partial_likelihood: float
    n_events: int
    report: SolveReport


@dataclass(frozen=True)
class CoxRows:
    """Per-row results of :func:`fit_cox_rows` for R datasets with k covariates.

    ``failure[r]`` is 0 for a fitted row; otherwise row r failed and
    :meth:`error` gives the exception :func:`fit_cox` raises on the same
    data.  The numeric fields of a failed row carry no meaning.
    ``iterations`` counts Newton steps and ``residual`` is the final
    max-norm of the score.
    """

    beta_hat: np.ndarray  # (R, k)
    covariance: np.ndarray  # (R, k, k)
    log_partial_likelihood: np.ndarray  # (R,)
    n_events: np.ndarray  # (R,)
    residual: np.ndarray  # (R,)
    iterations: np.ndarray  # (R,)
    failure: np.ndarray  # (R,)

    @property
    def ok(self) -> np.ndarray:
        return self.failure == 0

    def error(self, r: int) -> HrmixError | None:
        code = int(self.failure[r])
        if code == 0:
            return None
        cls, message = _FAILURES[code]
        return cls(message.format(resid=self.residual[r], iters=self.iterations[r]))


@dataclass(frozen=True)
class BreslowCurve:
    """Step estimate of the baseline cumulative hazard.

    ``increments[i]`` is the jump at ``event_times[i]`` (number of events
    there divided by the risk-set sum of exp(beta' Z)); ``cumulative`` is
    the running sum.
    """

    event_times: np.ndarray
    increments: np.ndarray
    cumulative: np.ndarray


class _BlockSums:
    """Breslow likelihood of R datasets from risk-set sums at event blocks.

    A subclass hands :meth:`_set_blocks` ``d``, the event count of each
    event block, each row's blocks contiguous and rows in order, and
    ``lengths`` (R,), each row's number of event blocks.  It sets ``k``,
    ``n_events``, ``no_contrast``, ``short_rank`` (each (R,)) and
    ``z_event_sum`` (R, k).  Its ``risk_set_sums(beta)`` returns S0, the
    list of S1_j and the dict of S2_jm (j <= m), the sums of exp(beta' Z)
    Z^r over the risk set of each block of ``d``, and a work array of the
    same length, all four free to overwrite.  :meth:`by_row` sums a value
    per block over each row, so a row's sums never read another row.
    """

    def _set_blocks(self, d: np.ndarray, lengths: np.ndarray) -> None:
        self.d = d
        self.lengths = lengths
        self.n_rows = lengths.size
        self.nonempty = lengths > 0
        self.starts = (np.cumsum(lengths) - lengths)[self.nonempty]

    @property
    def _pairs(self):
        return [(j, m) for j in range(self.k) for m in range(j, self.k)]

    def by_row(self, values: np.ndarray) -> np.ndarray:
        out = np.zeros(self.n_rows)
        # reduceat gives values[start], not 0, for an empty segment
        out[self.nonempty] = np.add.reduceat(values, self.starts)
        return out

    def loglik_score_info(self, beta: np.ndarray):
        """Breslow log partial likelihood, score and observed information per row."""
        k = self.k
        s0, s1, s2, tmp = self.risk_set_sums(beta)
        ll = beta[:, 0] * self.z_event_sum[:, 0]
        for j in range(1, k):
            ll += beta[:, j] * self.z_event_sum[:, j]
        ll -= self.by_row(np.multiply(self.d, np.log(s0, out=tmp), out=tmp))
        score = np.empty((self.n_rows, k))
        info = np.empty((self.n_rows, k, k))
        # the sums are overwritten in place: S1_j / S0 is the risk-set mean
        # of Z_j, and S2_jm / S0 less the product of means is its covariance
        zbar = s1
        for j in range(k):
            zbar[j] /= s0
            weighted = np.multiply(self.d, zbar[j], out=tmp)
            score[:, j] = self.z_event_sum[:, j] - self.by_row(weighted)
        for (j, m), spread in s2.items():
            spread /= s0
            spread -= np.multiply(zbar[j], zbar[m], out=tmp)
            info[:, j, m] = info[:, m, j] = self.by_row(np.multiply(self.d, spread, out=spread))
        return ll, score, info


class _RiskSets(_BlockSums):
    """Event blocks of R equal-size datasets, each in descending time.

    The risk set of an event is every subject in its own tie block and in
    all earlier (larger-time) blocks, so a risk-set sum is a running sum
    along the row read at the block's last position.  ``ends`` holds the
    last positions of the event blocks, in the order of ``d``, as flat
    indices into an (R, n) array.  The per-subject and per-block work
    rows of an evaluation are allocated once and reused by every later
    one, so a fit does not touch fresh memory at each step.
    """

    def __init__(self, t: np.ndarray, d: np.ndarray, z: np.ndarray):
        # t, d: (R, n); z: (k, R, n), each row sorted by descending time
        R, n = t.shape
        self.k = len(z)
        self.z = z
        block_end = _block_ends(t)
        # every row ends a block, so a count running over the flattened
        # batch differences to each block's own events, even across rows
        counts = np.diff(np.cumsum(d, axis=None)[block_end], prepend=0)
        has = counts > 0
        self.ends = block_end[has]
        row_edges = np.searchsorted(self.ends, n * np.arange(R + 1))
        self._set_blocks(counts[has].astype(float), np.diff(row_edges))
        self.n_events = d.sum(axis=1)
        self.z_event_sum = np.einsum("jrn,rn->rj", z, d)
        self._work = None

    @property
    def no_contrast(self) -> np.ndarray:
        return np.all([zj.max(axis=1) == zj.min(axis=1) for zj in self.z], axis=0)

    @property
    def short_rank(self) -> np.ndarray:
        # at risk at the earliest event: each row up to its last event block
        last, n = np.full(self.n_rows, -1), self.z.shape[2]
        last[self.nonempty] = self.ends[self.starts + self.lengths[self.nonempty] - 1] % n
        return _short_rank(np.moveaxis(self.z, 0, 2), np.arange(n) <= last[:, None])

    def linear_predictor(self, beta: np.ndarray, out=None, tmp=None) -> np.ndarray:
        """Per-subject beta' Z, into ``out`` with ``tmp`` as work if given."""
        eta = np.multiply(self.z[0], beta[:, 0, None], out=out)
        for j in range(1, self.k):
            eta += np.multiply(self.z[j], beta[:, j, None], out=tmp)
        return eta

    def risk_sums(self, values: np.ndarray, out=None) -> np.ndarray:
        """Risk-set sums of per-subject ``values`` at the event blocks.

        With ``out`` given, the result goes there and the running sums
        overwrite ``values``.
        """
        running = np.cumsum(values, axis=1, out=None if out is None else values)
        return np.take(running.ravel(), self.ends, out=out)

    def risk_set_sums(self, beta: np.ndarray):
        if self._work is None:
            # per subject: w and a product; per event block: S0, S1_j,
            # S2_jm and the work array.  One array per row, as fresh
            # temporaries were: a freed block larger than any of them would
            # raise glibc's mmap threshold and keep later arrays on the heap,
            # which measured 2 MB more peak RSS on a `lines` pass.
            self._work = [np.empty(self.z.shape[1:]) for _ in range(2)]
            self._sums = [np.empty(self.d.size) for _ in range(self.k + len(self._pairs) + 2)]
        w, product = self._work
        s0, s1, tmp = self._sums[0], self._sums[1 : 1 + self.k], self._sums[-1]
        s2 = dict(zip(self._pairs, self._sums[1 + self.k : -1]))
        np.exp(self.linear_predictor(beta, out=w, tmp=product), out=w)
        for j in range(self.k):
            self.risk_sums(np.multiply(w, self.z[j], out=product), out=s1[j])
        for (j, m), s2_jm in s2.items():
            np.multiply(w, self.z[j], out=product)
            product *= self.z[m]
            self.risk_sums(product, out=s2_jm)
        # last, since it overwrites w
        return self.risk_sums(w, out=s0), s1, s2, tmp


class _CountTables(_BlockSums):
    """Risk sets of uncensored data on a finite covariate support, capped at
    every study end, as at-risk counts per support point.

    :meth:`fit` takes D latent datasets of R rows each (a sweep chunk's
    pooled data, then each trial): row r of a dataset holds event times in
    descending order and each subject's support level.  Fitted rows run
    dataset, then study end, then latent row: row (i * G + g) * R + r is
    row r of dataset i censored at ``study_ends[g]``, and one Newton solve
    fits them all.  Capping times at t_max changes no risk set at an event
    before t_max, so every study end reads the tie blocks of the one
    latent order: the blocks with time <= t_max, which in that order are a
    suffix.  ``counts[s, b]`` is the number of subjects at level s at risk
    at the end of block b, so a risk-set sum is the O(m) sum
    sum_s counts[s, b] e^{beta' z_s} z_s^r over the m support points, not
    a running sum over every subject.

    Every dataset's blocks go into one layout, each in its own column
    range, and a likelihood evaluation reads it in one pass.  The counts
    and the event count d of every block are int32, which numpy converts
    to float64 exactly in every product; a count could overflow only with
    2^31 subjects in a row, whose latent draw alone would need 16 GB.
    Two arrays, the int32 tables and the float64 sums and work row of an
    evaluation, are reused by every later :meth:`fit`, so a sweep touches
    fresh memory only once.
    """

    def __init__(self, support: np.ndarray, study_ends):
        self.support = support
        self.k = support.shape[1]
        self.study_ends = np.asarray(study_ends, dtype=float)
        self._tables = np.empty((0, 0), dtype=np.int32)
        self._work = np.empty((0, 0))

    def fit(self, latent) -> list[CoxRows]:
        """Fit every dataset of ``latent``, a list of (times, levels) pairs,
        at every study end in one Newton solve; one :class:`CoxRows` per dataset."""
        # room for one block per subject: later fits of no more subjects
        # reuse both arrays, and their unused tails are never touched
        width = self.study_ends.size * sum(times.size for times, _ in latent)
        m, k = len(self.support), self.k
        if self._tables.shape[1] < width:
            # rows: the counts per level, then d
            self._tables = np.empty((m + 1, width), dtype=np.int32)
            # rows: S0, S1_j, S2_jm and one work row
            self._work = np.empty((2 + k + k * (k + 1) // 2, width))
        per_row, size = [], 0
        for times, levels in latent:
            per_row.append(self._load(times, levels, self._tables[:, size:]))
            size += per_row[-1][-1].sum()
        self.n_events, self.no_contrast, self.short_rank, self.z_event_sum, lengths = (
            np.concatenate(values) for values in zip(*per_row)
        )
        self.counts, self._scratch = self._tables[:m, :size], self._work[:, :size]
        self._set_blocks(self._tables[m, :size], lengths)
        rows = _newton(self)
        each = self.n_rows // len(latent)
        return [
            CoxRows(**{name: v[i * each : (i + 1) * each] for name, v in vars(rows).items()})
            for i in range(len(latent))
        ]

    def _load(self, times: np.ndarray, levels: np.ndarray, tables: np.ndarray):
        """Write one dataset's counts and d from the first column of ``tables``.

        Returns its per-row n_events, no_contrast, short_rank, z_event_sum
        and number of event blocks, each fitted row g * R + r.
        """
        R, n = times.shape
        m = len(self.support)
        G = self.study_ends.size
        # rank: the number of study ends below a subject's time, so that it
        # is an event at study end g when rank <= g; tally[r, rank, level]
        rank = np.searchsorted(self.study_ends, times)
        tally = np.bincount(
            ((np.arange(R)[:, None] * (G + 1) + rank) * m + levels).ravel(),
            minlength=R * (G + 1) * m,
        ).reshape(R, G + 1, m)
        events = np.cumsum(tally[:, :G], axis=1).transpose(1, 0, 2).reshape(G * R, m)
        present = tally.sum(axis=1) > 0  # all at risk at the earliest event
        points = np.broadcast_to(self.support, (R, m, self.k))
        z_event_sum = np.zeros((G * R, self.k))
        for s in range(m):
            z_event_sum += events[:, s, None] * self.support[s]
        block_end = _block_ends(times)
        # every row ends a block, so differences of the flat positions are
        # block sizes even across rows; every latent subject is an event
        block_d = np.diff(block_end, prepend=-1)
        block_rank = rank.ravel()[block_end]
        blocks = np.bincount(
            block_end // n * (G + 1) + block_rank, minlength=R * (G + 1)
        ).reshape(R, G + 1)
        lengths = np.cumsum(blocks[:, :G], axis=1).T.ravel()
        used = np.concatenate([np.flatnonzero(block_rank <= g) for g in range(G)])
        np.take(block_d, used, out=tables[m, : used.size])
        used_ends = block_end[used]
        for s in range(m):
            at_risk = np.cumsum(levels == s, axis=1, dtype=np.int32)
            np.take(at_risk, used_ends, out=tables[s, : used.size])
        return (
            events.sum(axis=1),
            np.tile(present.sum(axis=1) <= 1, G),
            np.tile(_short_rank(points, present), G),
            z_event_sum,
            lengths,
        )

    def risk_set_sums(self, beta: np.ndarray):
        k = self.k
        eta = beta[:, 0, None] * self.support[:, 0]
        for j in range(1, k):
            eta += beta[:, j, None] * self.support[:, j]
        e = np.exp(eta).T
        sums = self._scratch[:-1]
        sums.fill(0.0)
        s0, s1, s2 = sums[0], list(sums[1 : 1 + k]), dict(zip(self._pairs, sums[1 + k :]))
        wz = self._scratch[-1]
        for level, z in enumerate(self.support):
            # the level's at-risk count times exp(beta' z), added in level order
            w = np.repeat(e[level], self.lengths)
            w *= self.counts[level]
            s0 += w
            for j in range(k):
                s1[j] += np.multiply(w, z[j], out=wz)
                for m in range(j, k - 1):
                    s2[j, m] += wz * z[m]
                wz *= z[k - 1]
                s2[j, k - 1] += wz
        return s0, s1, s2, wz


def _block_ends(times: np.ndarray) -> np.ndarray:
    """Flat positions ending each tie block of (R, n) rows in descending time."""
    last = np.empty(times.shape, dtype=bool)
    np.not_equal(times[:, 1:], times[:, :-1], out=last[:, :-1])
    last[:, -1] = True
    return np.flatnonzero(last)


def _short_rank(points: np.ndarray, present: np.ndarray) -> np.ndarray:
    """Rows whose covariates at risk at the earliest event span 0 < rank < k.

    Those of row r are ``points[r, present[r]]``.  Every risk set is a
    subset of them, so the information of such a row is singular at every
    beta.  For k = 1 no rank is computed.
    """
    R, _, k = points.shape
    if k == 1:
        return np.zeros(R, dtype=bool)
    anchor = points[np.arange(R), present.argmax(axis=1)]
    spread = np.where(present[..., None], points - anchor[:, None], 0.0)
    rank = np.linalg.matrix_rank(spread)
    return (rank > 0) & (rank < k)


def _solve_rows(a: np.ndarray, b: np.ndarray):
    """Solve the stacked systems a[i] x[i] = b[i]; flag the singular ones.

    A batched solve raises on a singular matrix without saying which, so
    on failure every system is solved alone to find them.
    """
    try:
        return np.linalg.solve(a, b), np.zeros(len(a), dtype=bool)
    except np.linalg.LinAlgError:
        pass
    x = np.zeros(b.shape)
    singular = np.zeros(len(a), dtype=bool)
    for i in range(len(a)):
        try:
            x[i] = np.linalg.solve(a[i], b[i])
        except np.linalg.LinAlgError:
            singular[i] = True
    return x, singular


def _newton(sets: _BlockSums) -> CoxRows:
    """Safeguarded Newton from beta = 0 on every row of ``sets``."""
    R = sets.n_rows
    k = sets.k
    failure = np.zeros(R, dtype=np.int8)
    n_events = sets.n_events
    failure[n_events == 0] = _NO_EVENTS
    failure[(failure == 0) & sets.no_contrast] = _NO_CONTRAST
    failure[(failure == 0) & sets.short_rank] = _SINGULAR
    gtol = np.maximum(_TOL, 1e-12 * n_events)
    floor = 1e-8 * n_events
    beta = np.zeros((R, k))
    iterations = np.zeros(R, dtype=np.int64)
    prev_norm = np.full(R, np.inf)
    active = failure == 0
    with np.errstate(all="ignore"):
        ll, score, info = sets.loglik_score_info(beta)
        for it in range(1, _MAX_ITER + 1):
            norm = np.abs(score).max(axis=1)
            # converged, or stopped at the float64 cancellation floor: the
            # score no longer improves but sits far inside 1e-8 * n
            active &= ~(norm <= gtol)
            if it > 3:
                active &= ~((norm >= prev_norm) & (norm <= floor))
            if not active.any():
                break
            prev_norm = np.where(active, norm, prev_norm)
            rows = np.flatnonzero(active)
            solved, singular = _solve_rows(info[rows], score[rows, :, None])
            failure[rows[singular]] = _SINGULAR
            active[rows[singular]] = False
            iterations[active] += 1
            step = np.zeros((R, k))
            step[rows[~singular]] = solved[~singular, :, 0]
            # step-halving until the likelihood stops falling; the slack
            # sits above the float noise of a sum of n terms ~|ll|/n
            slack = 1e-10 * (1.0 + np.abs(ll))
            damp = np.ones(R)
            pending = active.copy()
            new = [beta.copy(), ll.copy(), score.copy(), info.copy()]
            for _ in range(_MAX_HALVINGS):
                trial_beta = beta + damp[:, None] * step
                trial = (trial_beta, *sets.loglik_score_info(trial_beta))
                for kept, value in zip(new, trial):
                    kept[pending] = value[pending]
                pending &= ~(np.isfinite(trial[1]) & (trial[1] >= ll - slack))
                if not pending.any():
                    break
                damp[pending] *= 0.5
            beta, ll, score, info = new
            diverged = active & ~(np.abs(beta).max(axis=1) <= _DIVERGENCE_BOUND)
            failure[diverged] = _DIVERGED
            active &= ~diverged
        residual = np.abs(score).max(axis=1)
        failure[(failure == 0) & ~(residual <= np.maximum(gtol, floor))] = _NOT_CONVERGED
        # a monotone likelihood can pass the score test at large |beta|
        # before the divergence wall: the information collapses there
        rows = np.flatnonzero(failure == 0)
        sym = 0.5 * (info[rows] + info[rows].transpose(0, 2, 1))
        smallest = np.full(rows.size, -np.inf)
        finite = np.isfinite(sym).all(axis=(1, 2))
        if finite.any():
            smallest[finite] = np.linalg.eigvalsh(sym[finite]).min(axis=1)
        failure[rows[~(smallest > floor[rows])]] = _COLLAPSED
    rows = np.flatnonzero(failure == 0)
    covariance = np.full((R, k, k), np.nan)
    inverse, singular = _solve_rows(info[rows], np.broadcast_to(np.eye(k), (rows.size, k, k)))
    failure[rows[singular]] = _SINGULAR
    covariance[rows] = 0.5 * (inverse + inverse.transpose(0, 2, 1))
    return CoxRows(
        beta_hat=beta,
        covariance=covariance,
        log_partial_likelihood=ll,
        n_events=n_events,
        residual=residual,
        iterations=iterations,
        failure=failure,
    )


def fit_cox_rows(times, events, covariates) -> CoxRows:
    """Fit one Cox model per row of a batch of equal-size datasets.

    ``times`` and ``events`` are (R, n) and ``covariates`` (R, n, k) with
    k >= 1; each row must be sorted by descending time (ties in any
    order).  Every row runs the Newton iteration of :func:`fit_cox` with
    its own convergence mask and step-halving, and a row that
    :func:`fit_cox` would reject gets a nonzero ``failure`` code instead
    of raising, so one degenerate row never stops the others.
    """
    t = np.asarray(times, dtype=float)
    d = np.asarray(events)
    x = np.asarray(covariates, dtype=float)
    if t.ndim != 2 or d.shape != t.shape or x.ndim != 3 or x.shape[:2] != t.shape:
        raise ValueError("need (R, n) times and events and (R, n, k) covariates")
    if x.shape[2] == 0 or t.shape[1] == 0:
        raise ValueError("need at least one subject and one covariate")
    if not np.all((d == 0) | (d == 1)):
        raise ValueError("events must be 0 or 1")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(t))):
        raise ValueError("times and covariates must be finite")
    if not np.all(t[:, 1:] <= t[:, :-1]):
        raise ValueError("each row must be sorted by descending time")
    z = np.ascontiguousarray(np.moveaxis(x, 2, 0))
    return _newton(_RiskSets(t, d, z))


def _descending(data: TrialDataset) -> np.ndarray:
    """The stable order of the dataset's subjects by descending time."""
    return np.argsort(-data.times, kind="stable")


def _risk_sets(data: TrialDataset, order: np.ndarray) -> _RiskSets:
    """The subjects ``order`` picks from ``data``, in that order, as one row.

    ``order`` must run by descending time.  Times and events are gathered
    straight into the row and the covariates into its (k, 1, n) layout;
    the sorted times and events are dropped once the blocks are found.
    The dataset's constructor has checked what :func:`fit_cox_rows` checks.
    """
    z = np.empty((data.k, 1, order.size))
    for j in range(data.k):
        np.take(data.covariates[:, j], order, out=z[j, 0])
    return _RiskSets(data.times[order][None], data.events[order][None], z)


def _fit_ordered(data: TrialDataset, order: np.ndarray) -> CoxFit:
    """:func:`fit_cox` of the subjects ``order`` picks from ``data``, read in that order."""
    if data.k == 0:
        raise DegenerateDataError("no covariates to fit")
    rows = _newton(_risk_sets(data, order))
    error = rows.error(0)
    if error is not None:
        raise error
    beta = rows.beta_hat[0]
    return CoxFit(
        beta_hat=beta,
        covariance=rows.covariance[0],
        log_partial_likelihood=float(rows.log_partial_likelihood[0]),
        n_events=int(rows.n_events[0]),
        report=SolveReport(
            root=beta,
            residual_norm=float(rows.residual[0]),
            iterations=int(rows.iterations[0]),
            converged=True,
        ),
    )


def fit_cox(data: TrialDataset) -> CoxFit:
    """Maximize the Cox partial likelihood over the log hazard ratios.

    Newton iteration from the zero vector with step-halving (the partial
    likelihood is concave, so safeguarded Newton suffices).  Convergence
    is declared on the max-norm of the score; the absolute tolerance is
    floored at 1e-12 per event because float64 cancellation limits how
    small a sum of n score terms can be driven.  This is the one-row
    case of :func:`fit_cox_rows`.

    Raises
    ------
    DegenerateDataError
        no covariates, no events, no covariate contrast, a singular
        information matrix, or a monotone likelihood from perfect
        separation (|beta| diverging past 50, or the information
        collapsing at the optimum).
    NonConvergenceError
        iteration budget exhausted with the score still above tolerance.
    """
    return _fit_ordered(data, _descending(data))


def _fit_trials_and_pooled(table: TrialDataset, sizes) -> tuple[list[CoxFit], CoxFit]:
    """:func:`fit_cox` of each trial of ``table``, then of all of it, from one sort.

    Trial i is the next ``sizes[i]`` rows of ``table``.  Its order is the
    table's stable descending-time order restricted to its rows: that
    keeps ties in row order, as the trial's own stable sort does, so each
    fit is bit-identical to :func:`fit_cox` on the trial alone.  The
    trials are fitted first and in turn, so the first failing trial
    raises before the pooled fit.
    """
    order = _descending(table)
    fits = []
    lo = 0
    for size in sizes:
        fits.append(_fit_ordered(table, order[(order >= lo) & (order < lo + size)]))
        lo += size
    return fits, _fit_ordered(table, order)


def breslow_cumhaz(data: TrialDataset, beta_hat=None) -> BreslowCurve:
    """Breslow step estimate of the baseline cumulative hazard.

    The increment at an event time equals the number of events there
    divided by the risk-set sum of exp(beta_hat' Z).  With no covariates
    (k = 0) the linear predictor is zero and this reduces to the
    Nelson-Aalen estimate.  A non-finite ``beta_hat``, or one at which a
    risk-set sum of exp(beta_hat' Z) over- or underflows, so that an
    increment is not finite and positive, raises ``ValueError``.
    """
    if beta_hat is None:
        beta_hat = np.zeros(data.k)
    beta_hat = np.atleast_1d(np.asarray(beta_hat, dtype=float))
    if beta_hat.shape != (data.k,):
        raise ValueError(f"beta_hat must have length {data.k}")
    if not np.all(np.isfinite(beta_hat)):
        raise ValueError("beta_hat must be finite")
    with np.errstate(over="ignore", divide="ignore"):
        curve = _breslow_ordered(data, beta_hat, _descending(data))
    if not np.all(np.isfinite(curve.increments) & (curve.increments > 0)):
        raise ValueError(f"exp(beta'z) over- or underflows at beta_hat = {beta_hat.tolist()}")
    return curve


def _breslow_ordered(data: TrialDataset, beta_hat: np.ndarray, order: np.ndarray) -> BreslowCurve:
    """:func:`breslow_cumhaz` with the dataset's descending-time ``order`` given."""
    sets = _risk_sets(data, order)
    w = np.exp(sets.linear_predictor(beta_hat[None])) if data.k else np.ones((1, order.size))
    # blocks are in descending time; flip to ascending for the curve
    increments = (sets.d / sets.risk_sums(w))[::-1]
    return BreslowCurve(
        event_times=data.times[order[sets.ends]][::-1],
        increments=increments,
        cumulative=np.cumsum(increments),
    )
