"""Patient-line data model, covariate laws, and the trial simulator.

Datasets are stored columnwise in read-only numpy arrays.  Simulation
streams are counter-based (Philox keyed by ``(master_seed, replicate)``),
so replicate r always sees the same stream, whichever other replicates
are drawn and in whatever order.

Patient-line CSV files are read a block of lines at a time by two
readers that give the same datasets and the same errors: numpy's C reader
(``np.loadtxt``) parses blocks of plain ASCII lines without quotes, and
the csv module reads the header, quoted records, other blocks, and every
record an error report must name.
"""

from __future__ import annotations

import csv
import functools
import itertools
import json
import warnings
from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

import numpy as np

from .errors import DimensionMismatchError, ParseError, SchemaError

__all__ = [
    "TrialDataset",
    "CovariateDistribution",
    "NoCensoring",
    "AdministrativeCensoring",
    "ExponentialCensoring",
    "CensoringScheme",
    "IdentityBaseline",
    "WeibullBaseline",
    "Baseline",
    "ScenarioSpec",
    "replicate_stream",
    "simulate_trial",
    "simulate_scenario",
    "pool",
    "read_patient_csv",
    "write_patient_csv",
    "scenario_from_json",
    "scenario_to_json",
]


def _integer(value, name: str) -> int:
    """A count or seed as an int: a Python or numpy integer, or an integral
    float such as 400.0.  A bool, a fractional or non-finite float and a
    non-numeric value raise ``ValueError``.
    """
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return int(value)
    if isinstance(value, (float, np.floating)) and float(value).is_integer():
        return int(value)
    raise ValueError(f"{name} must be an integer, got {value!r}")


def _frozen(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class TrialDataset:
    """Columnar survival dataset with per-record trial labels.

    ``times`` are nonnegative follow-up times, ``events`` is 1 for an
    observed event and 0 for a censored record, ``covariates`` is an
    (n, k) matrix, and ``trial_ids`` labels the trial each record came
    from (pooled datasets carry mixed labels).
    """

    times: np.ndarray
    events: np.ndarray
    covariates: np.ndarray
    trial_ids: np.ndarray
    label: str = "trial"

    def __post_init__(self):
        times = _frozen(np.asarray(self.times, dtype=float))
        events = _frozen(np.asarray(self.events, dtype=np.int64))
        cov = np.asarray(self.covariates, dtype=float)
        if cov.ndim != 2:
            raise ValueError("covariates must be a 2-D (n, k) array")
        cov = _frozen(cov)
        ids = _frozen(np.asarray(self.trial_ids, dtype=object))
        n = times.shape[0]
        if n == 0:
            raise ValueError("dataset must be nonempty")
        if events.shape != (n,) or cov.shape[0] != n or ids.shape != (n,):
            raise DimensionMismatchError("column lengths disagree")
        if not np.all(np.isfinite(times)) or np.any(times < 0):
            raise ValueError("times must be finite and nonnegative")
        if not np.all((events == 0) | (events == 1)):
            raise ValueError("events must be 0 or 1")
        if not np.all(np.isfinite(cov)):
            raise ValueError("covariates must be finite")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "events", events)
        object.__setattr__(self, "covariates", cov)
        object.__setattr__(self, "trial_ids", ids)

    def __len__(self) -> int:
        return self.times.shape[0]

    @property
    def k(self) -> int:
        return self.covariates.shape[1]

    @property
    def n_events(self) -> int:
        return int(self.events.sum())

    def __eq__(self, other) -> bool:
        if not isinstance(other, TrialDataset):
            return NotImplemented
        return (
            self.label == other.label
            and np.array_equal(self.times, other.times)
            and np.array_equal(self.events, other.events)
            and np.array_equal(self.covariates, other.covariates)
            and bool(np.all(self.trial_ids == other.trial_ids))
        )


@dataclass(frozen=True, eq=False)
class CovariateDistribution:
    """Finite discrete law of the covariate vector Z.

    ``support`` is an (m, k) matrix of distinct points and ``probs`` the
    matching probabilities (positive, summing to one within 1e-12).  All
    expectations over Z reduce to finite sums against this table.
    """

    support: np.ndarray
    probs: np.ndarray

    def __post_init__(self):
        support = np.asarray(self.support, dtype=float)
        if support.ndim != 2 or support.shape[0] == 0:
            raise ValueError("support must be a nonempty (m, k) array")
        probs = np.asarray(self.probs, dtype=float)
        if probs.shape != (support.shape[0],):
            raise DimensionMismatchError("probs length must match support")
        if np.any(probs <= 0):
            raise ValueError("probabilities must be strictly positive")
        if abs(probs.sum() - 1.0) > 1e-12:
            raise ValueError(f"probabilities sum to {probs.sum()!r}, not 1")
        if len({tuple(row) for row in support}) != support.shape[0]:
            raise ValueError("support points must be distinct")
        object.__setattr__(self, "support", _frozen(support))
        object.__setattr__(self, "probs", _frozen(probs))

    @classmethod
    def bernoulli(cls, q: float) -> "CovariateDistribution":
        """Binary arm indicator with P(Z=1) = q."""
        if not 0 < q < 1:
            raise ValueError("q must lie in (0, 1)")
        return cls(support=np.array([[0.0], [1.0]]), probs=np.array([1.0 - q, q]))

    @property
    def k(self) -> int:
        return self.support.shape[1]

    @property
    def mean(self) -> np.ndarray:
        return self.probs @ self.support

    def arm_probability(self) -> float | None:
        """P(Z=1) when this is a binary {0,1} arm indicator, else None."""
        if self.k != 1 or self.support.shape[0] != 2:
            return None
        vals = sorted(float(v) for v in self.support[:, 0])
        if vals != [0.0, 1.0]:
            return None
        return float(self.probs[self.support[:, 0] == 1.0][0])

    def __eq__(self, other) -> bool:
        if not isinstance(other, CovariateDistribution):
            return NotImplemented
        return np.array_equal(self.support, other.support) and np.array_equal(
            self.probs, other.probs
        )


@dataclass(frozen=True)
class NoCensoring:
    """All event times are observed."""


@dataclass(frozen=True)
class AdministrativeCensoring:
    """Every subject is censored at the fixed study end ``t_max``."""

    t_max: float

    def __post_init__(self):
        if not self.t_max > 0:
            raise ValueError("t_max must be positive")


@dataclass(frozen=True)
class ExponentialCensoring:
    """Independent exponential censoring with the given rate."""

    rate: float

    def __post_init__(self):
        if not self.rate > 0:
            raise ValueError("rate must be positive")


CensoringScheme = NoCensoring | AdministrativeCensoring | ExponentialCensoring


@dataclass(frozen=True)
class IdentityBaseline:
    """Unit-exponential baseline: cumulative hazard H0(t) = t."""

    def __call__(self, u: np.ndarray) -> np.ndarray:
        return u


@dataclass(frozen=True)
class WeibullBaseline:
    """Weibull baseline with H0(t) = (t / scale) ** shape."""

    shape: float
    scale: float = 1.0

    def __post_init__(self):
        if not (self.shape > 0 and self.scale > 0):
            raise ValueError("shape and scale must be positive")

    def __call__(self, u: np.ndarray) -> np.ndarray:
        return self.scale * np.power(u, 1.0 / self.shape)


Baseline = IdentityBaseline | WeibullBaseline


@dataclass(frozen=True, eq=False)
class ScenarioSpec:
    """Full generative description of a multi-trial simulation.

    ``trial_effects`` holds one log hazard-ratio vector per trial,
    ``sizes`` the per-trial subject counts (so the mixing proportion is
    sizes[0] / sum(sizes) in the two-trial case), and ``baseline`` the
    inverse cumulative hazard used for inverse-transform sampling.  The
    sizes and the seed must be integers; an integral float such as 400.0
    is accepted, and a bool or a fractional value raises ``ValueError``.
    """

    trial_effects: tuple
    sizes: tuple
    covariate_dist: CovariateDistribution
    baseline: Baseline = field(default_factory=IdentityBaseline)
    censoring: CensoringScheme = field(default_factory=NoCensoring)
    seed: int = 0

    def __post_init__(self):
        effects = tuple(_frozen(np.atleast_1d(np.asarray(e, dtype=float))) for e in self.trial_effects)
        sizes = tuple(_integer(s, "sizes") for s in self.sizes)
        seed = _integer(self.seed, "seed")
        if len(effects) < 2:
            raise ValueError("scenario needs at least 2 trials")
        if len(sizes) != len(effects):
            raise DimensionMismatchError("one size per trial effect required")
        if any(s < 1 for s in sizes):
            raise ValueError("trial sizes must be positive")
        k = self.covariate_dist.k
        if any(e.shape != (k,) for e in effects):
            raise DimensionMismatchError(
                f"effect vectors must have dimension {k} to match the covariate law"
            )
        if not 0 <= seed < 2**64:
            raise ValueError("seed must be a 64-bit unsigned integer")
        object.__setattr__(self, "trial_effects", effects)
        object.__setattr__(self, "sizes", sizes)
        object.__setattr__(self, "seed", seed)

    @property
    def mixing_p(self) -> float:
        """Limiting share of pooled subjects contributed by trial 1."""
        return self.sizes[0] / sum(self.sizes)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ScenarioSpec):
            return NotImplemented
        return (
            len(self.trial_effects) == len(other.trial_effects)
            and all(np.array_equal(a, b) for a, b in zip(self.trial_effects, other.trial_effects))
            and self.sizes == other.sizes
            and self.covariate_dist == other.covariate_dist
            and self.baseline == other.baseline
            and self.censoring == other.censoring
            and self.seed == other.seed
        )


def replicate_stream(master_seed: int, replicate: int) -> np.random.Generator:
    """Independent counter-based stream for one Monte Carlo replicate.

    The Philox key is built directly from ``(master_seed, replicate)``,
    so a stream does not depend on which other replicates are drawn, or
    in what order.
    """
    if not 0 <= master_seed < 2**64:
        raise ValueError("master_seed must be a 64-bit unsigned integer")
    if not 0 <= replicate < 2**64:
        raise ValueError("replicate must be a 64-bit unsigned integer")
    return np.random.Generator(np.random.Philox(key=(replicate << 64) | master_seed))


def _draw_latent(effect, size: int, dist: CovariateDistribution, baseline, rng):
    """Support levels and latent event times of ``size`` subjects.

    The levels index ``dist.support``; times come from inverse-transform
    sampling T = H0^{-1}(E / exp(effect' Z)) with E a unit exponential.
    Levels are drawn before times, so the stream is consumed in that order.
    """
    levels = rng.choice(dist.support.shape[0], size=size, p=dist.probs)
    unit = rng.exponential(size=size)
    latent = unit / np.exp(dist.support[levels] @ effect)
    if baseline is not None:
        latent = np.asarray(baseline(latent), dtype=float)
    return levels, latent


def simulate_trial(
    effect,
    size: int,
    dist: CovariateDistribution,
    baseline: Callable | None = None,
    censoring: CensoringScheme = NoCensoring(),
    rng: np.random.Generator | None = None,
    label: str = "trial",
) -> TrialDataset:
    """Draw one trial from a proportional-hazards model.

    Covariates are sampled from ``dist``; latent event times come from
    inverse-transform sampling T = H0^{-1}(E / exp(effect' Z)) with E a
    unit exponential.  Draw order is fixed (covariates, event times,
    censoring times) so a given stream always produces the same dataset.
    """
    if size < 1:
        raise ValueError("size must be at least 1")
    effect = np.atleast_1d(np.asarray(effect, dtype=float))
    if effect.shape != (dist.k,):
        raise DimensionMismatchError("effect dimension must match the covariate law")
    rng = rng if rng is not None else np.random.default_rng()
    levels, latent = _draw_latent(effect, size, dist, baseline, rng)
    z = dist.support[levels]
    if isinstance(censoring, NoCensoring):
        times, events = latent, np.ones(size, dtype=np.int64)
    elif isinstance(censoring, AdministrativeCensoring):
        events = (latent <= censoring.t_max).astype(np.int64)
        times = np.minimum(latent, censoring.t_max)
    elif isinstance(censoring, ExponentialCensoring):
        c = rng.exponential(scale=1.0 / censoring.rate, size=size)
        events = (latent <= c).astype(np.int64)
        times = np.minimum(latent, c)
    else:
        raise TypeError(f"unknown censoring scheme {censoring!r}")
    return TrialDataset(
        times=times,
        events=events,
        covariates=z,
        trial_ids=np.full(size, label, dtype=object),
        label=label,
    )


def simulate_scenario(spec: ScenarioSpec, replicate: int = 0) -> list[TrialDataset]:
    """Simulate every trial of a scenario on the replicate's own stream.

    Identical (spec, replicate) pairs produce bit-identical datasets,
    whichever other replicates are drawn and in whatever order.
    """
    rng = replicate_stream(spec.seed, replicate)
    out = []
    for i, (effect, size) in enumerate(zip(spec.trial_effects, spec.sizes), start=1):
        out.append(
            simulate_trial(
                effect,
                size,
                spec.covariate_dist,
                baseline=spec.baseline,
                censoring=spec.censoring,
                rng=rng,
                label=f"trial{i}",
            )
        )
    return out


def pool(trials: Sequence[TrialDataset]) -> TrialDataset:
    """Concatenate trials into one dataset, keeping per-record trial ids."""
    if not trials:
        raise ValueError("nothing to pool")
    if len(trials) == 1:
        return trials[0]
    k = trials[0].k
    if any(t.k != k for t in trials):
        raise DimensionMismatchError("pooled trials must share the covariate dimension")
    return TrialDataset(
        times=np.concatenate([t.times for t in trials]),
        events=np.concatenate([t.events for t in trials]),
        covariates=np.vstack([t.covariates for t in trials]),
        trial_ids=np.concatenate([t.trial_ids for t in trials]),
        label="pooled",
    )


# ---------------------------------------------------------------------------
# Patient-line CSV: header trial_id,time,event,z1,...,zk
# ---------------------------------------------------------------------------


def write_patient_csv(datasets: Sequence[TrialDataset], path) -> None:
    """Write datasets to the patient-line CSV schema (UTF-8)."""
    k = datasets[0].k if datasets else 0
    if any(d.k != k for d in datasets):
        raise DimensionMismatchError("datasets disagree on covariate dimension")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["trial_id", "time", "event"] + [f"z{j + 1}" for j in range(k)])
        for d in datasets:
            for t, e, z, tid in zip(d.times, d.events, d.covariates, d.trial_ids):
                writer.writerow([tid, repr(float(t)), int(e)] + [repr(float(v)) for v in z])


# Records converted and checked together.  Python row lists cost far more
# memory than the finished columns, so only one block of them is held at a time.
_BLOCK_ROWS = 4096
# Lines that hold no record: csv.reader reads each as an empty row.
_BLANK_LINES = ("\n", "\r\n", "\r")
# ASCII separators that numpy's number parsers skip as whitespace and
# float and int do not
_NUMPY_ONLY_SPACES = ("\x1c", "\x1d", "\x1e", "\x1f")


@functools.cache
def _loadtxt_rejects_float_events() -> bool:
    """Whether ``np.loadtxt`` refuses ``0.5`` for an int64 field, as ``int`` does.

    Older numpy parses such a field through float and truncates it, with a
    DeprecationWarning.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)
        try:
            np.loadtxt(["0.5"], dtype=np.int64)
        except ValueError:
            return True
    return False


def _loadtxt_agrees(text: str) -> bool:
    """Whether ``np.loadtxt`` reads every field of ``text`` as float and int do, or rejects it.

    That holds for ASCII text without the separators \\x1c-\\x1f, on a
    numpy that rejects float text in int fields.  Outside ASCII, numpy
    2.4.6's integer parser crashed the process (a segmentation fault) on
    int fields starting with U+E0001.
    """
    return (
        text.isascii()
        and not any(map(text.__contains__, _NUMPY_ONLY_SPACES))
        and _loadtxt_rejects_float_events()
    )


def _raise_bad_record(block: list, lineno: int, k: int) -> None:
    """Raise the ``ParseError`` of the first bad record in ``block``.

    ``lineno`` is the CSV record number of ``block[0]``.  The checks are
    those of :func:`_block_columns`, made one record at a time, so that the
    error names the record a row-by-row read would have stopped at.
    """
    for lineno, row in enumerate(block, start=lineno):
        if not row:
            continue
        if len(row) != 3 + k:
            raise ParseError(f"expected {3 + k} fields, got {len(row)}", line=lineno)
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


def _columns_ok(times, events, cov) -> bool:
    return bool(
        np.isfinite(times).all()
        and (times >= 0).all()
        and ((events == 0) | (events == 1)).all()
        and np.isfinite(cov).all()
    )


def _block_columns(block: list, lineno: int, k: int):
    """Convert and check one block of csv records as whole columns.

    Returns (trial ids, times, events, covariates) for the block's nonblank
    records.  A block that fails a check is read again record by record to
    raise the first bad record's error.
    """
    rows = block if all(block) else [row for row in block if row]
    n = len(rows)
    if n == 0:
        return (), np.empty(0), np.empty(0, dtype=np.int64), np.empty((0, k))
    if set(map(len, rows)) == {3 + k}:
        ids, t_col, e_col, *z_cols = zip(*rows)
        try:
            times = np.fromiter(map(float, t_col), float, count=n)
            # an event too large for int64 overflows here and is reported
            # by the record check as "event must be 0 or 1"
            events = np.fromiter(map(int, e_col), np.int64, count=n)
            cov = np.empty((n, k))
            for j, col in enumerate(z_cols):
                cov[:, j] = np.fromiter(map(float, col), float, count=n)
        except (ValueError, OverflowError):
            pass
        else:
            if _columns_ok(times, events, cov):
                return ids, times, events, cov
    _raise_bad_record(block, lineno, k)
    raise AssertionError("a block failed a check that none of its records fails")


def _line_columns(lines: list, text: str, lineno: int, k: int):
    """Convert and check a block of unquoted lines, as :func:`_block_columns` does.

    ``text`` is the block's lines joined.  Where :func:`_loadtxt_agrees`,
    numpy's C reader parses the block in one call.  Where it does not, or
    numpy rejects the block, skips a line csv.reader would read, or yields
    a value that fails a check, the block goes to :func:`_block_columns`.
    That raises the exact error, or accepts what Python accepts and numpy
    does not, such as ``1_0.5``.
    """
    n = len(lines) - sum(map(lines.count, _BLANK_LINES))
    if n and _loadtxt_agrees(text):
        dtype = [("id", object), ("t", float), ("e", np.int64), ("z", float, (k,))]
        try:
            rec = np.loadtxt(lines, delimiter=",", comments=None, dtype=dtype, ndmin=1)
        except ValueError:
            rec = None
        if rec is not None and rec.size == n:
            # copies, so that the block's trial-id strings are freed with it
            times, events, cov = (np.ascontiguousarray(rec[f]) for f in ("t", "e", "z"))
            if _columns_ok(times, events, cov):
                return rec["id"], times, events, cov
    return _block_columns(list(csv.reader(lines)), lineno, k)


def _record_blocks(fh, k: int):
    """Columns of each block of records in ``fh``, which is past the header.

    Blocks of raw lines go to :func:`_line_columns` until one holds a quote,
    which may open a field spanning lines, or a line longer than
    ``csv.field_size_limit()``.  That block and the rest of the file go
    through csv.reader, which raises its own error on an oversized field.
    No quote is open at a block boundary, so record numbers carry on.
    """
    lineno = 2
    limit = csv.field_size_limit()
    while True:
        lines = list(itertools.islice(fh, _BLOCK_ROWS))
        if not lines:
            return
        text = "".join(lines)
        if '"' in text or max(map(len, lines)) > limit:
            break
        yield _line_columns(lines, text, lineno, k)
        lineno += len(lines)
    reader = csv.reader(itertools.chain(lines, fh))
    while True:
        block: list = []
        try:
            block.extend(itertools.islice(reader, _BLOCK_ROWS))
        except csv.Error as exc:
            # a bad record read before the csv error is reported first
            _block_columns(block, lineno, k)
            raise ParseError(str(exc), line=lineno + len(block)) from None
        if not block:
            return
        yield _block_columns(block, lineno, k)
        lineno += len(block)


def read_patient_csv(path) -> list[TrialDataset]:
    """Read a patient-line CSV back into one dataset per trial id.

    The file is UTF-8, with or without a byte-order mark, and its header is
    ``trial_id,time,event,z1,...,zk``.  Its rules:

    - blank records are skipped;
    - trial ids follow RFC-4180 quoting, so they may hold commas, quotes
      and line breaks;
    - trials come back in order of first appearance, each with its records
      in file order, and each dataset's label is its trial id, so
      write/read round-trips on files produced by :func:`write_patient_csv`;
    - ``time`` and the covariates are parsed as Python ``float`` parses
      them, and ``event`` as ``int`` does;
    - a bad value, or a record the csv module rejects (such as a field
      longer than ``csv.field_size_limit()``), raises ``ParseError`` whose
      ``line`` is the CSV record number: the header is record 1, blank
      records count, and a quoted line break does not start a new record.

    The records are held once, as one table in trial order, and each
    trial's columns, ``trial_ids`` included, are read-only views of its
    rows of that table.  :func:`pool` of the trials copies them.

    Two readers share the work and give the same datasets and errors.
    Records are read a block of lines at a time.  numpy's C reader
    (``np.loadtxt``) parses a block of plain ASCII lines without quotes,
    and the block is checked column by column.  The csv module reads the
    header; every block from the first one holding a quote or an
    over-long line to the end of the file; a block with other characters;
    and a block numpy rejects or that fails a check, record by record
    where it must name the bad one.
    """
    table, sizes = _read_trial_table(path)
    trials = []
    lo = 0
    for label, size in sizes.items():
        rows = slice(lo, lo + size)
        trials.append(
            TrialDataset(
                times=table.times[rows],
                events=table.events[rows],
                covariates=table.covariates[rows],
                trial_ids=table.trial_ids[rows],
                label=label,
            )
        )
        lo += size
    return trials


def _read_trial_table(path) -> tuple[TrialDataset | None, dict[str, int]]:
    """Every record of a patient-line CSV as one dataset, in trial order.

    Returns the table, labelled ``"pooled"`` as :func:`pool` labels it,
    and each trial id's record count in order of first appearance; trial
    i is the next block of that many rows, its records in file order.  A
    file without records gives ``(None, {})``.  See
    :func:`read_patient_csv` for the format.
    """
    with open(path, "r", newline="", encoding="utf-8-sig") as fh:
        try:
            header = next(csv.reader(fh))
        except StopIteration:
            raise SchemaError("empty file", missing=["trial_id", "time", "event"]) from None
        except csv.Error as exc:
            raise ParseError(str(exc), line=1) from None
        expected = ["trial_id", "time", "event"]
        missing = [c for c in expected if c not in header]
        if missing:
            raise SchemaError("bad patient-line header", missing=missing)
        k = len(header) - 3
        if header[:3] != expected or header[3:] != [f"z{j + 1}" for j in range(k)]:
            raise SchemaError(
                f"header must be trial_id,time,event,z1,...,zk; got {','.join(header)}"
            )
        codes: dict[str, int] = {}
        parts = []
        for ids, times, events, cov in _record_blocks(fh, k):
            for tid in dict.fromkeys(ids):
                codes.setdefault(tid, len(codes))
            code = np.fromiter(map(codes.__getitem__, ids), np.intp, count=len(ids))
            parts.append((code, times, events, cov))
    if not codes:
        return None, {}
    code = np.concatenate([part[0] for part in parts])
    order = np.argsort(code, kind="stable")
    sizes = np.bincount(code)
    del code
    # one column at a time, so that besides the blocks only one unordered
    # column is held
    times, events, cov = (np.concatenate([part[j] for part in parts])[order] for j in (1, 2, 3))
    del parts
    table = TrialDataset(
        times=times,
        events=events,
        covariates=cov,
        # an object array keeps each trial id as read: np.full would pass
        # it through a numpy string, which drops trailing NUL characters
        trial_ids=np.repeat(np.array(list(codes), dtype=object), sizes),
        label="pooled",
    )
    return table, dict(zip(codes, sizes.tolist()))


# ---------------------------------------------------------------------------
# Scenario JSON config mirroring ScenarioSpec field for field
# ---------------------------------------------------------------------------

def _censoring_to_json(c: CensoringScheme) -> dict:
    if isinstance(c, NoCensoring):
        return {"kind": "none"}
    if isinstance(c, AdministrativeCensoring):
        return {"kind": "administrative", "t_max": c.t_max}
    return {"kind": "exponential", "rate": c.rate}


def _censoring_from_json(obj: dict) -> CensoringScheme:
    kind = obj.get("kind")
    if kind == "none":
        return NoCensoring()
    if kind == "administrative":
        return AdministrativeCensoring(t_max=float(obj["t_max"]))
    if kind == "exponential":
        return ExponentialCensoring(rate=float(obj["rate"]))
    raise ParseError(f"unknown censoring kind {kind!r}")


def _baseline_to_json(b: Baseline) -> dict:
    if isinstance(b, IdentityBaseline):
        return {"kind": "identity"}
    return {"kind": "weibull", "shape": b.shape, "scale": b.scale}


def _baseline_from_json(obj: dict) -> Baseline:
    kind = obj.get("kind")
    if kind == "identity":
        return IdentityBaseline()
    if kind == "weibull":
        return WeibullBaseline(shape=float(obj["shape"]), scale=float(obj.get("scale", 1.0)))
    raise ParseError(f"unknown baseline kind {kind!r}")


def scenario_to_json(spec: ScenarioSpec) -> dict:
    return {
        "trial_effects": [[float(v) for v in e] for e in spec.trial_effects],
        "sizes": list(spec.sizes),
        "covariate_dist": {
            "support": [[float(v) for v in row] for row in spec.covariate_dist.support],
            "probs": [float(v) for v in spec.covariate_dist.probs],
        },
        "baseline": _baseline_to_json(spec.baseline),
        "censoring": _censoring_to_json(spec.censoring),
        "seed": spec.seed,
    }


def _json_int(value, name: str) -> int:
    """An integer field of a JSON file; an integral float such as 400.0 passes too."""
    try:
        return _integer(value, name)
    except ValueError as exc:
        raise SchemaError(str(exc)) from None


def scenario_from_json(obj) -> ScenarioSpec:
    """Build a ScenarioSpec from a parsed JSON object or a file path."""
    if isinstance(obj, (str, bytes)) or hasattr(obj, "__fspath__"):
        with open(obj, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    try:
        dist = CovariateDistribution(
            support=np.asarray(obj["covariate_dist"]["support"], dtype=float),
            probs=np.asarray(obj["covariate_dist"]["probs"], dtype=float),
        )
        return ScenarioSpec(
            trial_effects=tuple(np.asarray(e, dtype=float) for e in obj["trial_effects"]),
            sizes=tuple(_json_int(s, "sizes") for s in obj["sizes"]),
            covariate_dist=dist,
            baseline=_baseline_from_json(obj.get("baseline", {"kind": "identity"})),
            censoring=_censoring_from_json(obj.get("censoring", {"kind": "none"})),
            seed=_json_int(obj.get("seed", 0), "seed"),
        )
    except KeyError as exc:
        raise SchemaError(f"scenario config missing field {exc}") from None
    except (TypeError, AttributeError) as exc:
        raise SchemaError(f"scenario config has a field of the wrong type ({exc})") from None
    except DimensionMismatchError as exc:
        raise SchemaError(f"scenario config: {exc}") from None


def scenario_with(spec: ScenarioSpec, **changes) -> ScenarioSpec:
    """Return a copy of the scenario with the given fields replaced."""
    return replace(spec, **changes)
