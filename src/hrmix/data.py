"""Patient-line data model, covariate laws, and the trial simulator.

Datasets are stored columnwise in read-only numpy arrays.  Simulation
streams are counter-based (Philox keyed by ``(master_seed, replicate)``),
so replicate r always sees the same stream, whichever other replicates
are drawn and in whatever order.

Patient-line CSV files are read a block of lines at a time by two
readers that give the same datasets and the same errors: numpy's C reader
(``np.loadtxt``) parses blocks of plain ASCII lines without quotes, and
the csv module reads the header, quoted records and every other block,
converting and checking one record at a time.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import itertools
import json
import math
import warnings
from dataclasses import MISSING, dataclass, field, fields
from typing import Sequence

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


def _same(x, y) -> bool:
    if isinstance(x, tuple):
        return isinstance(y, tuple) and len(x) == len(y) and all(map(_same, x, y))
    if isinstance(x, np.ndarray):
        return np.array_equal(x, y)
    return x == y


def _fields_equal(self, other) -> bool:
    """``__eq__`` of the records that hold arrays: field by field, arrays
    elementwise and tuples item by item."""
    if not isinstance(other, type(self)):
        return NotImplemented
    return all(_same(getattr(self, f.name), getattr(other, f.name)) for f in fields(self))


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

    __eq__ = _fields_equal


@dataclass(frozen=True, eq=False)
class CovariateDistribution:
    """Finite discrete law of the covariate vector Z.

    ``support`` is an (m, k) matrix of distinct finite points and ``probs``
    the matching probabilities (positive, summing to one within 1e-12).  All
    expectations over Z reduce to finite sums against this table.
    """

    support: np.ndarray
    probs: np.ndarray

    def __post_init__(self):
        support = np.asarray(self.support, dtype=float)
        if support.ndim != 2 or support.shape[0] == 0:
            raise ValueError("support must be a nonempty (m, k) array")
        if not np.all(np.isfinite(support)):
            raise ValueError("support points must be finite")
        probs = np.asarray(self.probs, dtype=float)
        if probs.shape != (support.shape[0],):
            raise DimensionMismatchError("probs length must match support")
        if not np.all(np.isfinite(probs)):
            raise ValueError("probabilities must be finite")
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

    __eq__ = _fields_equal


@dataclass(frozen=True)
class NoCensoring:
    """All event times are observed."""

    def _draw(self, size: int, rng: np.random.Generator):
        return np.inf


@dataclass(frozen=True)
class AdministrativeCensoring:
    """Every subject is censored at the fixed study end ``t_max``."""

    t_max: float

    def __post_init__(self):
        if not self.t_max > 0:
            raise ValueError("t_max must be positive")

    def _draw(self, size: int, rng: np.random.Generator):
        return self.t_max


@dataclass(frozen=True)
class ExponentialCensoring:
    """Independent exponential censoring with the given rate."""

    rate: float

    def __post_init__(self):
        if not (np.isfinite(self.rate) and self.rate > 0):
            raise ValueError("rate must be positive and finite")

    def _draw(self, size: int, rng: np.random.Generator):
        return rng.exponential(scale=1.0 / self.rate, size=size)


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
        if not all(np.isfinite(v) and v > 0 for v in (self.shape, self.scale)):
            raise ValueError("shape and scale must be positive and finite")

    def __call__(self, u: np.ndarray) -> np.ndarray:
        return self.scale * np.power(u, 1.0 / self.shape)


Baseline = IdentityBaseline | WeibullBaseline


@dataclass(frozen=True, eq=False)
class ScenarioSpec:
    """Full generative description of a multi-trial simulation.

    ``trial_effects`` holds one finite log hazard-ratio vector per trial,
    whose hazard ratio e^{beta'z} must be finite and positive at every
    support point of the covariate law, ``sizes`` the per-trial subject
    counts (``mixing_p`` is the first trial's share of them), and
    ``baseline`` the inverse cumulative hazard used for inverse-transform
    sampling.  The sizes and the seed must be integers; an integral float
    such as 400.0 is accepted, and a bool or a fractional value raises
    ``ValueError``.
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
        if not all(np.all(np.isfinite(e)) for e in effects):
            raise ValueError("trial effects must be finite")
        if len(sizes) != len(effects):
            raise DimensionMismatchError("one size per trial effect required")
        if any(s < 1 for s in sizes):
            raise ValueError("trial sizes must be positive")
        k = self.covariate_dist.k
        if any(e.shape != (k,) for e in effects):
            raise DimensionMismatchError(
                f"effect vectors must have dimension {k} to match the covariate law"
            )
        for e in effects:
            _check_rates(e, self.covariate_dist)
        if not 0 <= seed < 2**64:
            raise ValueError("seed must be a 64-bit unsigned integer")
        object.__setattr__(self, "trial_effects", effects)
        object.__setattr__(self, "sizes", sizes)
        object.__setattr__(self, "seed", seed)

    @property
    def mixing_p(self) -> float:
        """Limiting share of pooled subjects contributed by trial 1."""
        return self.sizes[0] / sum(self.sizes)

    __eq__ = _fields_equal


def replicate_stream(master_seed: int, replicate: int) -> np.random.Generator:
    """Independent counter-based stream for one Monte Carlo replicate.

    The Philox key is built directly from ``(master_seed, replicate)``,
    so a stream does not depend on which other replicates are drawn, or
    in what order.  Both must be integers, as for :class:`ScenarioSpec`.
    """
    master_seed, replicate = _integer(master_seed, "master_seed"), _integer(replicate, "replicate")
    if not 0 <= master_seed < 2**64:
        raise ValueError("master_seed must be a 64-bit unsigned integer")
    if not 0 <= replicate < 2**64:
        raise ValueError("replicate must be a 64-bit unsigned integer")
    return np.random.Generator(np.random.Philox(key=(replicate << 64) | master_seed))


def _check_rates(effect: np.ndarray, dist: CovariateDistribution) -> None:
    """ValueError unless the hazard ratio e^{effect'z} is finite and positive
    at every support point, the rule the pooled limit applies too."""
    with np.errstate(over="ignore", invalid="ignore"):
        rates = np.exp(dist.support @ effect)
    if not np.all(np.isfinite(rates) & (rates > 0)):
        raise ValueError(
            f"e^{{beta'z}} over- or underflows on the covariate law's support "
            f"at trial effect {effect.tolist()}"
        )


def _draw_latent(effect, size: int, dist: CovariateDistribution, baseline, rng):
    """Support levels and latent event times of ``size`` subjects.

    The levels index ``dist.support``; times come from inverse-transform
    sampling T = H0^{-1}(E / exp(effect' Z)) with E a unit exponential.
    Levels are drawn before times, so the stream is consumed in that order.
    A time that overflows (a subnormal hazard ratio, or a baseline such as
    a Weibull of tiny shape) raises ValueError.
    """
    levels = rng.choice(dist.support.shape[0], size=size, p=dist.probs)
    unit = rng.exponential(size=size)
    with np.errstate(over="ignore"):
        latent = np.asarray(baseline(unit / np.exp(dist.support[levels] @ effect)), dtype=float)
    if not np.all(np.isfinite(latent)):
        raise ValueError(
            f"a latent event time overflows at trial effect {effect.tolist()} under {baseline}"
        )
    return levels, latent


def simulate_trial(
    effect,
    size: int,
    dist: CovariateDistribution,
    baseline: Baseline = IdentityBaseline(),
    censoring: CensoringScheme = NoCensoring(),
    rng: np.random.Generator | None = None,
    label: str = "trial",
) -> TrialDataset:
    """Draw one trial from a proportional-hazards model.

    Covariates are sampled from ``dist``; latent event times come from
    inverse-transform sampling T = H0^{-1}(E / exp(effect' Z)) with E a
    unit exponential.  Draw order is fixed (covariates, event times,
    censoring times) so a given stream always produces the same dataset.
    ``size`` must be an integer and e^{effect'z} finite and positive on
    the law's support, as for :class:`ScenarioSpec`.
    """
    size = _integer(size, "size")
    if size < 1:
        raise ValueError("size must be at least 1")
    effect = np.atleast_1d(np.asarray(effect, dtype=float))
    if effect.shape != (dist.k,):
        raise DimensionMismatchError("effect dimension must match the covariate law")
    _check_rates(effect, dist)
    rng = rng if rng is not None else np.random.default_rng()
    levels, latent = _draw_latent(effect, size, dist, baseline, rng)
    c = censoring._draw(size, rng)
    return TrialDataset(
        times=np.minimum(latent, c),
        events=(latent <= c).astype(np.int64),
        covariates=dist.support[levels],
        trial_ids=np.full(size, label, dtype=object),
        label=label,
    )


def simulate_scenario(spec: ScenarioSpec, replicate: int = 0) -> list[TrialDataset]:
    """Simulate every trial of a scenario on the replicate's own stream.

    Identical (spec, replicate) pairs produce bit-identical datasets,
    whichever other replicates are drawn and in whatever order.
    """
    rng = replicate_stream(spec.seed, replicate)
    law, baseline, censoring = spec.covariate_dist, spec.baseline, spec.censoring
    return [
        simulate_trial(effect, size, law, baseline, censoring, rng, f"trial{i}")
        for i, (effect, size) in enumerate(zip(spec.trial_effects, spec.sizes), start=1)
    ]


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
# Patient-line CSV
# ---------------------------------------------------------------------------


def _patient_header(k: int) -> list[str]:
    """The patient-line header for ``k`` covariates."""
    return ["trial_id", "time", "event"] + [f"z{j + 1}" for j in range(k)]


def _write_csv(path, header: Sequence[str], columns: Sequence[np.ndarray]) -> None:
    """The package's one CSV writer: equal-length 1-D arrays as columns, UTF-8,
    ``\\r\\n`` line ends.  Floats print as their shortest round-trip ``repr``,
    integers as ints, and object columns (trial ids) as the objects they hold;
    text stays in object arrays, since numpy strings drop trailing NULs."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(zip(*(c.tolist() for c in columns)))


def write_patient_csv(datasets: Sequence[TrialDataset], path) -> None:
    """Write datasets to the patient-line CSV schema (UTF-8)."""
    columns, k = [], 0
    if datasets:
        d = pool(datasets)  # DimensionMismatchError unless the trials share k
        columns, k = [d.trial_ids, d.times, d.events, *d.covariates.T], d.k
    _write_csv(path, _patient_header(k), columns)


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


def _columns_ok(times, events, cov) -> bool:
    return bool(
        np.isfinite(times).all()
        and (times >= 0).all()
        and ((events == 0) | (events == 1)).all()
        and np.isfinite(cov).all()
    )


def _block_columns(block: list, lineno: int, k: int):
    """Convert and check one block of csv records, one record at a time.

    Returns (trial ids, times, events, covariates) for the block's nonblank
    records.  ``lineno`` is the CSV record number of ``block[0]``; the
    first bad record raises its ``ParseError``.
    """
    ids, times, events, cov = [], [], [], []
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
        if not math.isfinite(t) or t < 0:
            raise ParseError(f"time must be finite and nonnegative, got {row[1]}", line=lineno)
        if e not in (0, 1):
            raise ParseError(f"event must be 0 or 1, got {row[2]}", line=lineno)
        if not all(map(math.isfinite, z)):
            raise ParseError("covariates must be finite", line=lineno)
        ids.append(row[0])
        times.append(t)
        events.append(e)
        cov.extend(z)
    cov = np.array(cov, float).reshape(len(ids), k)
    return ids, np.array(times, float), np.array(events, np.int64), cov


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
    and a block numpy rejects or that fails a check.  It converts and
    checks one record at a time, so it is the slower of the two.
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
        required = _patient_header(0)
        try:
            header = next(csv.reader(fh))
        except StopIteration:
            raise SchemaError("empty file", missing=required) from None
        except csv.Error as exc:
            raise ParseError(str(exc), line=1) from None
        missing = [c for c in required if c not in header]
        if missing:
            raise SchemaError("bad patient-line header", missing=missing)
        k = len(header) - len(required)
        if header != _patient_header(k):
            raise SchemaError(
                f"header must be {','.join(required)},z1,...,zk; got {','.join(header)}"
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

# The kinds of each ScenarioSpec field that is a union, by their JSON names
_KINDS = {
    "baseline": {"identity": IdentityBaseline, "weibull": WeibullBaseline},
    "censoring": {
        "none": NoCensoring,
        "administrative": AdministrativeCensoring,
        "exponential": ExponentialCensoring,
    },
}


def _kind_to_json(value, what: str) -> dict:
    """``{"kind": name, **fields}`` of the baseline or censoring ``value``."""
    kind = next(name for name, cls in _KINDS[what].items() if type(value) is cls)
    return {"kind": kind} | {f.name: getattr(value, f.name) for f in fields(value)}


def _kind_from_json(obj: dict, what: str):
    """The baseline or censoring scheme ``obj`` names; a field with a default may be left out."""
    kind = obj.get("kind")
    for name, cls in _KINDS[what].items():
        if name == kind:
            given = [f.name for f in fields(cls) if f.default is MISSING or f.name in obj]
            return cls(**{key: float(obj[key]) for key in given})
    raise ParseError(f"unknown {what} kind {kind!r}")


def scenario_to_json(spec: ScenarioSpec) -> dict:
    return {
        "trial_effects": [[float(v) for v in e] for e in spec.trial_effects],
        "sizes": list(spec.sizes),
        "covariate_dist": {
            "support": [[float(v) for v in row] for row in spec.covariate_dist.support],
            "probs": [float(v) for v in spec.covariate_dist.probs],
        },
        "baseline": _kind_to_json(spec.baseline, "baseline"),
        "censoring": _kind_to_json(spec.censoring, "censoring"),
        "seed": spec.seed,
    }


@contextlib.contextmanager
def _schema(what: str):
    """Report a missing, wrongly typed or wrongly sized field of the JSON
    file ``what`` as a ``SchemaError``."""
    try:
        yield
    except KeyError as exc:
        raise SchemaError(f"{what} missing field {exc}") from None
    except (TypeError, AttributeError) as exc:
        raise SchemaError(f"{what} has a field of the wrong type ({exc})") from None
    except DimensionMismatchError as exc:
        raise SchemaError(f"{what}: {exc}") from None


def _law_from_json(obj) -> CovariateDistribution:
    """The covariate law in the ``covariate_dist`` field of a JSON file."""
    law = obj["covariate_dist"]
    return CovariateDistribution(
        support=np.asarray(law["support"], dtype=float),
        probs=np.asarray(law["probs"], dtype=float),
    )


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
    with _schema("scenario config"):
        dist = _law_from_json(obj)
        return ScenarioSpec(
            trial_effects=tuple(np.asarray(e, dtype=float) for e in obj["trial_effects"]),
            sizes=tuple(_json_int(s, "sizes") for s in obj["sizes"]),
            covariate_dist=dist,
            # an absent field keeps ScenarioSpec's default
            **{what: _kind_from_json(obj[what], what) for what in _KINDS if what in obj},
            seed=_json_int(obj.get("seed", 0), "seed"),
        )
