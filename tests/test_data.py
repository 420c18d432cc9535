import csv
import functools
import io
import json
import math
import re
import warnings
from dataclasses import is_dataclass, replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hrmix import (
    AdministrativeCensoring,
    CovariateDistribution,
    DimensionMismatchError,
    ExponentialCensoring,
    IdentityBaseline,
    NoCensoring,
    ParseError,
    ScenarioSpec,
    SchemaError,
    TrialDataset,
    WeibullBaseline,
    bias_sweep,
    breslow_limit,
    pool,
    read_patient_csv,
    replicate_stream,
    scenario_from_json,
    scenario_to_json,
    simulate_scenario,
    simulate_trial,
    write_patient_csv,
)
from hrmix import data as data_module

from conftest import censor_administrative, reference_read_patient_csv


class TestCovariateDistribution:
    def test_bernoulli(self):
        d = CovariateDistribution.bernoulli(0.3)
        assert d.arm_probability() == pytest.approx(0.3)
        assert d.mean[0] == pytest.approx(0.3)

    def test_validation(self):
        with pytest.raises(ValueError):
            CovariateDistribution(support=[[0.0], [1.0]], probs=[0.5, 0.6])
        with pytest.raises(ValueError):
            CovariateDistribution(support=[[0.0], [0.0]], probs=[0.5, 0.5])
        with pytest.raises(ValueError):
            CovariateDistribution(support=[[0.0], [1.0]], probs=[1.0, 0.0])

    @pytest.mark.parametrize(
        "support, probs, error",
        [
            ([[0.0], [1.0]], [math.nan, 0.5], "probabilities must be finite"),
            ([[0.0], [1.0]], [math.nan, math.nan], "probabilities must be finite"),
            ([[0.0], [1.0]], [math.inf, 0.5], "probabilities must be finite"),
            ([[0.0], [math.inf]], [0.5, 0.5], "support points must be finite"),
            ([[0.0], [math.nan]], [0.5, 0.5], "support points must be finite"),
            ([[0.0, -math.inf], [1.0, 0.0]], [0.5, 0.5], "support points must be finite"),
        ],
    )
    def test_rejects_non_finite(self, support, probs, error):
        with pytest.raises(ValueError, match=error):
            CovariateDistribution(support=support, probs=probs)

    def test_two_covariates_not_binary_arm(self):
        d = CovariateDistribution(
            support=[[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]], probs=[0.25] * 4
        )
        assert d.arm_probability() is None
        np.testing.assert_allclose(d.mean, [0.5, 0.5])


class TestSimulateTrial:
    def test_treated_times_match_target_rate(self, bernoulli_half):
        # inverse-transform sampling: treated times are Exp(0.3) draws
        rng = replicate_stream(11, 0)
        data = simulate_trial(math.log(0.3), 100_000, bernoulli_half, rng=rng)
        treated = data.times[data.covariates[:, 0] == 1.0]
        mean = treated.mean()
        se = treated.std(ddof=1) / math.sqrt(treated.size)
        assert abs(mean - 1.0 / 0.3) <= 3 * se

    def test_null_effect_ignores_covariates(self, bernoulli_half):
        rng = replicate_stream(12, 0)
        data = simulate_trial(0.0, 50_000, bernoulli_half, rng=rng)
        t1 = data.times[data.covariates[:, 0] == 1.0]
        t0 = data.times[data.covariates[:, 0] == 0.0]
        se = math.hypot(t1.std(ddof=1) / math.sqrt(t1.size), t0.std(ddof=1) / math.sqrt(t0.size))
        assert abs(t1.mean() - t0.mean()) <= 3 * se

    def test_example3_censored_fraction(self, example3_scenario):
        spec = replace(example3_scenario, censoring=AdministrativeCensoring(t_max=1.0))
        fracs = []
        for r in range(30):
            pooled = pool(simulate_scenario(spec, replicate=r))
            fracs.append(1.0 - pooled.events.mean())
        assert np.mean(fracs) == pytest.approx(0.51, abs=0.02)

    def test_administrative_censoring_invariant(self, example3_scenario):
        censored_spec = replace(example3_scenario, censoring=AdministrativeCensoring(t_max=1.0))
        latent = pool(simulate_scenario(example3_scenario, replicate=3))
        censored = pool(simulate_scenario(censored_spec, replicate=3))
        # same stream, administrative censoring draws nothing extra
        assert np.all(censored.times <= 1.0)
        np.testing.assert_array_equal(censored.events, (latent.times <= 1.0).astype(int))
        np.testing.assert_allclose(censored.times, np.minimum(latent.times, 1.0))

    def test_exponential_censoring(self, bernoulli_half):
        rng = replicate_stream(13, 0)
        data = simulate_trial(
            0.0, 50_000, bernoulli_half, censoring=ExponentialCensoring(rate=1.0), rng=rng
        )
        # competing unit-rate exponentials: about half the records censored
        assert data.events.mean() == pytest.approx(0.5, abs=0.01)

    def test_weibull_baseline(self, bernoulli_half):
        rng = replicate_stream(14, 0)
        data = simulate_trial(
            0.0, 50_000, bernoulli_half, baseline=WeibullBaseline(shape=2.0), rng=rng
        )
        # H0(t) = t^2 so T = sqrt(E); E(T) = gamma(1.5)
        se = data.times.std(ddof=1) / math.sqrt(len(data))
        assert abs(data.times.mean() - math.gamma(1.5)) <= 3 * se

    @pytest.mark.parametrize(
        "make",
        [
            lambda v: WeibullBaseline(shape=v),
            lambda v: WeibullBaseline(shape=2.0, scale=v),
            lambda v: ExponentialCensoring(rate=v),
        ],
        ids=["weibull-shape", "weibull-scale", "exponential-rate"],
    )
    def test_infinite_simulator_parameter_rejected(self, make):
        # an infinite shape would make every time equal to scale, an infinite rate every time 0
        with pytest.raises(ValueError, match="must be positive and finite"):
            make(math.inf)

    @pytest.mark.parametrize(
        "effect, baseline",
        [(-720.0, IdentityBaseline()), (0.5, WeibullBaseline(0.001))],
        ids=["subnormal-hazard-ratio", "weibull-tiny-shape"],
    )
    def test_overflowing_latent_time_rejected(self, bernoulli_half, effect, baseline):
        # E / e^-720 and E^1000 overflow: the overflow warning escaped before
        # TrialDataset rejected the infinite times
        rng = np.random.default_rng(0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="latent event time overflows"):
                simulate_trial([effect], 50, bernoulli_half, baseline=baseline, rng=rng)

    def test_determinism_and_stream_independence(self, example3_scenario):
        a = pool(simulate_scenario(example3_scenario, replicate=5))
        b = pool(simulate_scenario(example3_scenario, replicate=5))
        c = pool(simulate_scenario(example3_scenario, replicate=6))
        assert a == b
        assert not np.array_equal(a.times, c.times)


class TestPool:
    def test_sizes_add(self, example3_scenario):
        trials = simulate_scenario(example3_scenario, replicate=0)
        pooled = pool(trials)
        assert len(pooled) == 570
        assert len(trials[0]) == 400 and len(trials[1]) == 170

    def test_single_dataset_identity(self, example3_scenario):
        trials = simulate_scenario(example3_scenario, replicate=0)
        assert pool([trials[0]]) == trials[0]

    def test_event_counts_partition(self, example3_scenario):
        spec = replace(example3_scenario, censoring=AdministrativeCensoring(t_max=2.0))
        trials = simulate_scenario(spec, replicate=1)
        pooled = pool(trials)
        for t in trials:
            mask = pooled.trial_ids == t.label
            assert pooled.events[mask].sum() == t.n_events

    def test_dimension_mismatch(self, example3_scenario):
        trials = simulate_scenario(example3_scenario, replicate=0)
        other = TrialDataset(
            times=[1.0],
            events=[1],
            covariates=[[1.0, 0.0]],
            trial_ids=np.array(["x"], dtype=object),
            label="x",
        )
        with pytest.raises(DimensionMismatchError):
            pool([trials[0], other])


class TestDatasetValidation:
    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            TrialDataset(times=[], events=[], covariates=np.empty((0, 1)), trial_ids=[])
        with pytest.raises(ValueError):
            TrialDataset(times=[-1.0], events=[1], covariates=[[0.0]], trial_ids=["t"])
        with pytest.raises(ValueError):
            TrialDataset(times=[1.0], events=[2], covariates=[[0.0]], trial_ids=["t"])

    def test_arrays_are_frozen(self, example3_scenario):
        data = simulate_scenario(example3_scenario, replicate=0)[0]
        with pytest.raises(ValueError):
            data.times[0] = 5.0


class TestPatientCsv:
    def test_roundtrip(self, tmp_path, example3_scenario):
        trials = simulate_scenario(example3_scenario, replicate=0)
        path = tmp_path / "lines.csv"
        write_patient_csv(trials, path)
        back = read_patient_csv(path)
        assert back == trials

    @given(
        times=st.lists(st.floats(0.0, 1e6, allow_nan=False), min_size=1, max_size=20),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=20, deadline=None)
    def test_roundtrip_property(self, tmp_path_factory, times, seed):
        rng = np.random.default_rng(seed)
        n = len(times)
        data = TrialDataset(
            times=np.array(times),
            events=rng.integers(0, 2, size=n),
            covariates=rng.normal(size=(n, 2)).round(6),
            trial_ids=np.array(["t1"] * n, dtype=object),
            label="t1",
        )
        path = tmp_path_factory.mktemp("csv") / "lines.csv"
        write_patient_csv([data], path)
        assert read_patient_csv(path) == [data]

    def test_written_bytes(self, tmp_path):
        # two trials, k = 2: records in trial order, floats as repr, \r\n line ends
        rng = np.random.default_rng(5)
        trials = [
            TrialDataset(
                times=rng.exponential(size=n) * scale,
                events=rng.integers(0, 2, size=n),
                covariates=np.column_stack([rng.integers(0, 2, size=n), rng.normal(size=n)]),
                trial_ids=np.array([tid] * n, dtype=object),
                label=tid,
            )
            for tid, n, scale in (("t1", 4, 1.0), ("t2", 3, 1e-300))
        ]
        path = tmp_path / "lines.csv"
        write_patient_csv(trials, path)
        lines = ["trial_id,time,event,z1,z2"] + [
            ",".join([tid, repr(float(t)), str(int(e)), *(repr(float(v)) for v in z)])
            for d in trials
            for tid, t, e, z in zip(d.trial_ids, d.times, d.events, d.covariates)
        ]
        assert path.read_bytes().decode("utf-8") == "".join(line + "\r\n" for line in lines)

    def test_no_datasets_writes_the_header_only(self, tmp_path):
        path = tmp_path / "lines.csv"
        write_patient_csv([], path)
        assert path.read_bytes() == b"trial_id,time,event\r\n"
        assert read_patient_csv(path) == []

    def test_awkward_trial_ids_roundtrip(self, tmp_path):
        # a trailing NUL (which a numpy string column would drop), a comma,
        # a quote and line breaks, each as a trial of its own
        ids = ["t\x00", "a,b", 'say "hi"', "two\nlines", "cr\r\nlf", "\x00"]
        trials = [
            TrialDataset(
                times=[1.0 + i, 0.5],
                events=[1, 0],
                covariates=[[0.0], [1.0]],
                trial_ids=np.array([tid, tid], dtype=object),
                label=tid,
            )
            for i, tid in enumerate(ids)
        ]
        path = tmp_path / "lines.csv"
        write_patient_csv(trials, path)
        back = read_patient_csv(path)
        # compared as Python strings: numpy would strip the trailing NULs
        assert [d.label for d in back] == ids
        assert [list(d.trial_ids) for d in back] == [[tid, tid] for tid in ids]
        assert back == trials

    def test_negative_time_parse_error(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("trial_id,time,event,z1\nt1,1.0,1,0.0\nt1,-2.0,1,1.0\n")
        with pytest.raises(ParseError) as err:
            read_patient_csv(path)
        assert err.value.line == 3

    def test_missing_column_schema_error(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("trial_id,time,z1\nt1,1.0,0.0\n")
        with pytest.raises(SchemaError) as err:
            read_patient_csv(path)
        assert "event" in err.value.missing

    def test_two_covariate_columns(self, tmp_path):
        path = tmp_path / "k2.csv"
        path.write_text("trial_id,time,event,z1,z2\nt1,1.0,1,0.0,1.0\nt1,2.0,0,1.0,0.5\n")
        (data,) = read_patient_csv(path)
        assert data.k == 2
        np.testing.assert_allclose(data.covariates, [[0.0, 1.0], [1.0, 0.5]])

    def test_bad_event_value(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("trial_id,time,event,z1\nt1,1.0,3,0.0\n")
        with pytest.raises(ParseError):
            read_patient_csv(path)


# Field texts of patient-line files.  The good ones parse and pass the
# checks under Python float/int rules; the rest fail a conversion or a check.
_GOOD_TIMES = ["1.5", "0.0", "-0.0", " 2.25 ", "+3", "1_0.5", "1e-300"]
_BAD_TIMES = ["nan", "1e400", "-1.0", "-inf", "x", ""]
_GOOD_EVENTS = ["0", "1", "01", " 1 ", "+0"]
_BAD_EVENTS = ["1_0", "2", "-1", "1.0", "99999999999999999999", ""]
_GOOD_COVARIATES = ["0.0", "-0.0", "1.0", " -2.5", "+0.5", "3_0", "5e-324"]
_BAD_COVARIATES = ["nan", "1e400", "-inf", "z", ""]
_TRIAL_IDS = ["t1", "t2", "a,b", 'say "hi"', "line\nbreak", "", "é"]


def _records(k, times, events, covariates, ids=_TRIAL_IDS):
    return st.tuples(
        st.sampled_from(ids),
        st.sampled_from(times),
        st.sampled_from(events),
        st.lists(st.sampled_from(covariates), min_size=k, max_size=k),
    ).map(lambda r: [r[0], r[1], r[2], *r[3]])


def _odd_records(k):
    """Records that may fail: any field text, or one field too few or too many."""
    fields = _records(
        k, _GOOD_TIMES + _BAD_TIMES, _GOOD_EVENTS + _BAD_EVENTS, _GOOD_COVARIATES + _BAD_COVARIATES
    )
    return st.one_of(fields, fields.map(lambda r: r[:-1]), fields.map(lambda r: r + ["1.0"]))


@functools.cache
def _bulk_records(k, n):
    """``n`` good records drawn by a fixed-seed generator, too many for Hypothesis to draw."""
    rng = np.random.default_rng([n, k])
    fields = [_TRIAL_IDS, _GOOD_TIMES, _GOOD_EVENTS] + [_GOOD_COVARIATES] * k
    columns = [np.array(f, dtype=object)[rng.integers(0, len(f), n)] for f in fields]
    return tuple(map(list, zip(*columns)))


@st.composite
def _patient_files(draw, bulk=0, first=0):
    """(k, records) of a patient-line file: good records with blank and odd ones inserted.

    With ``bulk``, the good records are that many fixed ones.  Inserted
    records land at index ``first`` or later.
    """
    k = draw(st.integers(0, 3))
    good = _records(k, _GOOD_TIMES, _GOOD_EVENTS, _GOOD_COVARIATES)
    rows = list(_bulk_records(k, bulk)) if bulk else draw(st.lists(good, max_size=30))
    for extra in (st.just([]), _odd_records(k)):
        for _ in range(draw(st.integers(0, 3))):
            rows.insert(draw(st.integers(min(first, len(rows)), len(rows))), draw(extra))
    return k, rows


def _write_records(path, k, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["trial_id", "time", "event"] + [f"z{j + 1}" for j in range(k)])
        writer.writerows(rows)


def _outcome(reader, path):
    """What a reader makes of a file: its datasets bit for bit, or its error."""
    try:
        datasets = reader(path)
    except (ParseError, SchemaError) as exc:
        return type(exc), str(exc), getattr(exc, "line", None)
    return [
        (d.label, list(d.trial_ids))
        + tuple((a.dtype.str, a.shape, a.tobytes()) for a in (d.times, d.events, d.covariates))
        for d in datasets
    ]


class TestPatientCsvBlocks:
    """The block-wise reader against the row-by-row reference reader."""

    @given(file=_patient_files(), block=st.sampled_from([1, 2, 3, 5, 4096]))
    @settings(max_examples=200, deadline=None)
    def test_matches_row_by_row_reader(self, tmp_path_factory, file, block):
        path = tmp_path_factory.mktemp("csv") / "lines.csv"
        _write_records(path, *file)
        with mock.patch.object(data_module, "_BLOCK_ROWS", block):
            got = _outcome(read_patient_csv, path)
        assert got == _outcome(reference_read_patient_csv, path)

    @given(file=_patient_files(bulk=2 * 4096 + 37, first=4096))
    @settings(max_examples=8, deadline=None)
    def test_later_and_partial_blocks_at_full_size(self, tmp_path_factory, file):
        # blank and odd records land in the second block or the last, partial one
        assert data_module._BLOCK_ROWS == 4096
        path = tmp_path_factory.mktemp("csv") / "lines.csv"
        _write_records(path, *file)
        assert _outcome(read_patient_csv, path) == _outcome(reference_read_patient_csv, path)

    def test_int64_overflowing_event(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("trial_id,time,event,z1\nt1,1.0,1,0.0\n\nt1,2.0,99999999999999999999,1.0\n")
        with pytest.raises(ParseError) as err:
            read_patient_csv(path)
        assert err.value.line == 4
        assert str(err.value) == "line 4: event must be 0 or 1, got 99999999999999999999"

    def test_bad_record_before_csv_error_is_reported_first(self, tmp_path):
        # the csv module rejects the oversized field two records later, in the same block
        path = tmp_path / "bad.csv"
        huge = "x" * (csv.field_size_limit() + 1)
        path.write_text(f"trial_id,time,event,z1\nt1,1.0,1,0.0\nt1,-1.0,1,0.0\n{huge},1.0,1,0.0\n")
        for reader in (read_patient_csv, reference_read_patient_csv):
            with pytest.raises(ParseError) as err:
                reader(path)
            assert err.value.line == 3

    @pytest.mark.parametrize("block_rows", [2, 4096])
    def test_oversized_field_is_parse_error(self, tmp_path, monkeypatch, block_rows):
        # the csv module's own error carries the number of the record it stopped at
        monkeypatch.setattr(data_module, "_BLOCK_ROWS", block_rows)
        path = tmp_path / "bad.csv"
        huge = "x" * (csv.field_size_limit() + 1)
        path.write_text(f"trial_id,time,event,z1\nt1,1.0,1,0.0\n\nt1,2.0,0,1.0\n{huge},1.0,1,0.0\n")
        with pytest.raises(ParseError) as err:
            read_patient_csv(path)
        assert err.value.line == 5
        assert str(err.value).startswith("line 5: field larger than field limit")
        # the header is record 1
        path.write_text(f"trial_id,time,event,{huge}\nt1,1.0,1,0.0\n")
        with pytest.raises(ParseError) as err:
            read_patient_csv(path)
        assert err.value.line == 1
        assert str(err.value).startswith("line 1: field larger than field limit")

    def test_trailing_nul_stays_in_trial_ids(self, tmp_path):
        path = tmp_path / "nul.csv"
        path.write_text("trial_id,time,event,z1\nt\x00,1.0,1,0.0\nt\x00,2.0,0,1.0\n")
        (back,) = read_patient_csv(path)
        assert back.label == "t\x00"
        assert list(back.trial_ids) == ["t\x00", "t\x00"]

    def test_header_only_file_has_no_trials(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("trial_id,time,event,z1\n\n")
        assert read_patient_csv(path) == []

    def test_byte_order_mark_is_skipped(self, tmp_path):
        text = 'trial_id,time,event,z1\nt1,1.0,1,0.0\n"t,2",2.0,0,1.0\n'
        plain, marked = tmp_path / "plain.csv", tmp_path / "bom.csv"
        plain.write_text(text, encoding="utf-8")
        marked.write_text(text, encoding="utf-8-sig")
        assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
        back = read_patient_csv(marked)
        assert [d.label for d in back] == ["t1", "t,2"]
        assert back == read_patient_csv(plain)

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_roundtrip_with_awkward_labels(self, tmp_path_factory, data):
        labels = data.draw(st.lists(st.text(), min_size=1, max_size=4, unique=True))
        k = data.draw(st.integers(1, 2))
        n = data.draw(st.integers(1, 30))
        which = data.draw(st.lists(st.sampled_from(labels), min_size=n, max_size=n))
        times = data.draw(
            st.lists(
                st.floats(0.0, 1e300) | st.just(-0.0) | st.just(5e-324), min_size=n, max_size=n
            )
        )
        events = data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
        cov = data.draw(
            st.lists(
                st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=k, max_size=k),
                min_size=n,
                max_size=n,
            )
        )
        mixed = TrialDataset(
            times=np.array(times),
            events=np.array(events),
            covariates=np.array(cov),
            trial_ids=np.array(which, dtype=object),
        )
        path = tmp_path_factory.mktemp("csv") / "lines.csv"
        write_patient_csv([mixed], path)
        back = read_patient_csv(path)
        order = list(dict.fromkeys(which))
        assert [d.label for d in back] == order
        for d in back:
            # compared in Python: numpy would turn d.label into a numpy
            # string, which drops trailing NUL characters
            rows = np.flatnonzero([tid == d.label for tid in mixed.trial_ids])
            assert list(d.trial_ids) == [d.label] * rows.size
            assert d.times.tobytes() == mixed.times[rows].tobytes()
            assert d.events.tobytes() == mixed.events[rows].tobytes()
            assert d.covariates.tobytes() == mixed.covariates[rows].tobytes()



# Trial ids that need no quoting, with characters the C reader might mishandle:
# control characters, Unicode line-break-like ones and a comment marker.
_PLAIN_IDS = [
    "t1", "t2", "", " ", " t 1 ", "#", "#t", "t\x00", "\x00", "\x0c", "\x85", "\u2028", "é"
]
# lines csv.reader reads as one field, so a bad record
_WHITESPACE_LINES = [" ", "\t", "\x0c", "\x85 "]
# field texts numpy's parsers read differently from float and int, or crash on:
# separators numpy skips as whitespace, a character its integer parser reads
# past its tables on, non-ASCII digits and a NUL
_NUMPY_ODD_TEXTS = ["1\x1c", "\x1f0", "\U000e00010", "٣", "1\x00"]


@st.composite
def _unquoted_files(draw):
    """(k, text) of an unquoted patient-line file with mixed line endings.

    Records draw every field text, good or bad, and some have a field too
    few or too many; blank and whitespace-only lines are mixed in.
    """
    k = draw(st.integers(0, 3))
    good = _records(k, _GOOD_TIMES, _GOOD_EVENTS, _GOOD_COVARIATES, ids=_PLAIN_IDS)
    any_field = _records(
        k,
        _GOOD_TIMES + _BAD_TIMES + _NUMPY_ODD_TEXTS,
        _GOOD_EVENTS + _BAD_EVENTS + _NUMPY_ODD_TEXTS,
        _GOOD_COVARIATES + _BAD_COVARIATES + _NUMPY_ODD_TEXTS,
        ids=_PLAIN_IDS,
    )
    odd = st.one_of(
        any_field, any_field.map(lambda r: r[:-1]), any_field.map(lambda r: r + ["1.0"])
    )
    lines = [",".join(r) for r in draw(st.lists(good, max_size=30))]
    for extra in (st.just(""), st.sampled_from(_WHITESPACE_LINES), odd.map(",".join)):
        for _ in range(draw(st.integers(0, 2))):
            lines.insert(draw(st.integers(0, len(lines))), draw(extra))
    header = ",".join(["trial_id", "time", "event"] + [f"z{j + 1}" for j in range(k)])
    endings = st.sampled_from(["\n", "\r\n", "\r"])
    text = "".join(line + draw(endings) for line in [header, *lines])
    if draw(st.booleans()):
        # no line break after the last line
        text = text.rstrip("\r\n")
    return k, text


def _plain_file(path, k, n, ending="\n"):
    """n good unquoted records, as write_patient_csv would write them but with any line ending."""
    rows = [
        f"t{i % 3},{i * 0.25!r},{i % 2}" + "".join(f",{j - i * 0.5!r}" for j in range(k))
        for i in range(n)
    ]
    header = ",".join(["trial_id", "time", "event"] + [f"z{j + 1}" for j in range(k)])
    path.write_bytes("".join(line + ending for line in [header, *rows]).encode())


def _counted_loadtxt():
    """Patch ``np.loadtxt`` with a mock that counts the reader's calls and passes them on."""
    return mock.patch.object(np, "loadtxt", wraps=np.loadtxt)


@pytest.fixture
def loadtxt_calls():
    with _counted_loadtxt() as spy:
        yield spy


@pytest.mark.skipif(
    not data_module._loadtxt_rejects_float_events(),
    reason="this numpy parses int fields through float, so every block goes through csv",
)
class TestPatientCsvFastPath:
    """Unquoted blocks through np.loadtxt, against the row-by-row reference reader."""

    @given(file=_unquoted_files(), block=st.sampled_from([1, 2, 3, 5, 4096]))
    @settings(max_examples=300, deadline=None)
    def test_matches_row_by_row_reader(self, tmp_path_factory, file, block):
        k, text = file
        path = tmp_path_factory.mktemp("csv") / "lines.csv"
        path.write_bytes(text.encode())
        with mock.patch.object(data_module, "_BLOCK_ROWS", block), _counted_loadtxt() as loadtxt:
            got = _outcome(read_patient_csv, path)
        assert got == _outcome(reference_read_patient_csv, path)
        # numpy reads a block of plain ASCII lines with a record in it
        first_block = "".join(io.StringIO(text, newline="").readlines()[1 : 1 + block])
        plain = first_block.isascii() and not re.search("[\x1c-\x1f]", first_block)
        if plain and first_block.strip("\r\n"):
            assert loadtxt.called

    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    @pytest.mark.parametrize("ending", ["\n", "\r\n"])
    def test_good_blocks_take_only_the_fast_path(
        self, loadtxt_calls, tmp_path, monkeypatch, k, ending
    ):
        monkeypatch.setattr(data_module, "_BLOCK_ROWS", 4)
        csv_blocks = mock.Mock(wraps=data_module._block_columns)
        monkeypatch.setattr(data_module, "_block_columns", csv_blocks)
        path = tmp_path / "lines.csv"
        _plain_file(path, k, 10, ending)
        assert _outcome(read_patient_csv, path) == _outcome(reference_read_patient_csv, path)
        assert loadtxt_calls.call_count == 3
        assert not csv_blocks.called

    def test_simulated_file_takes_only_the_fast_path(
        self, loadtxt_calls, tmp_path, monkeypatch, example3_scenario
    ):
        # write_patient_csv ends its lines with \r\n
        csv_blocks = mock.Mock(wraps=data_module._block_columns)
        monkeypatch.setattr(data_module, "_block_columns", csv_blocks)
        trials = simulate_scenario(example3_scenario, replicate=0)
        path = tmp_path / "lines.csv"
        write_patient_csv(trials, path)
        assert b"\r\n" in path.read_bytes()
        assert read_patient_csv(path) == trials
        assert loadtxt_calls.call_count == 1
        assert not csv_blocks.called

    # the bad record is record 8 either way: a quoted line break starts no record
    @pytest.mark.parametrize("later", ['"a\nb",1.0,1,0.0', '"a,b",1.0,1,0.0'])
    def test_quote_in_a_later_block_hands_over_to_csv(
        self, loadtxt_calls, tmp_path, monkeypatch, later
    ):
        monkeypatch.setattr(data_module, "_BLOCK_ROWS", 3)
        head = "trial_id,time,event,z1\nt1,1.0,1,0.0\n\nt2,2.0,0,1.0\n"
        path = tmp_path / "lines.csv"
        path.write_text(head + f"t1,3.0,0,0.5\n{later}\nt3,0.5,1,1.0\nt1,-1.0,1,0.0\n", newline="")
        outcome = _outcome(read_patient_csv, path)
        assert outcome == _outcome(reference_read_patient_csv, path)
        assert outcome[:1] == (ParseError,) and outcome[2] == 8
        assert loadtxt_calls.call_count == 1
        path.write_text(head + f"t1,3.0,0,0.5\n{later}\nt3,0.5,1,1.0\n", newline="")
        back = read_patient_csv(path)
        assert back == reference_read_patient_csv(path)
        assert [d.label for d in back] == ["t1", "t2", later.split('",')[0][1:], "t3"]

    def test_oversized_field_in_a_later_block(self, loadtxt_calls, tmp_path, monkeypatch):
        monkeypatch.setattr(data_module, "_BLOCK_ROWS", 2)
        huge = "x" * (csv.field_size_limit() + 1)
        path = tmp_path / "bad.csv"
        path.write_text(f"trial_id,time,event,z1\nt1,1.0,1,0.0\n\nt1,2.0,0,1.0\n{huge},1.0,1,0.0\n")
        with pytest.raises(ParseError) as err:
            read_patient_csv(path)
        assert err.value.line == 5
        assert str(err.value).startswith("line 5: field larger than field limit")
        assert loadtxt_calls.call_count == 1
        # a bad record before it, in the same block, is reported first
        records = f"t1,1.0,1,0.0\nt1,2.0,0,1.0\nt1,-1.0,1,0.0\n{huge},1.0,1,0.0\n"
        path.write_text("trial_id,time,event,z1\n" + records)
        with pytest.raises(ParseError) as err:
            read_patient_csv(path)
        assert err.value.line == 4

    def test_blank_block_raises_no_warning(self, loadtxt_calls, tmp_path, monkeypatch):
        monkeypatch.setattr(data_module, "_BLOCK_ROWS", 3)
        path = tmp_path / "lines.csv"
        path.write_bytes(b"trial_id,time,event,z1\r\n\n\r\n\rt1,1.0,1,0.0\r\n\n\n\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            (back,) = read_patient_csv(path)
        assert back == reference_read_patient_csv(path)[0]
        assert loadtxt_calls.call_count == 1

    @pytest.mark.parametrize(
        "record, line",
        [
            # accepted by Python and not by numpy: underscores
            ("t1,1_0.5,1,3_0", None),
            ("t1,1.0,1_0,0.0", "line 3: event must be 0 or 1, got 1_0"),
            ("t1,1e400,1,0.0", "line 3: time must be finite and nonnegative, got 1e400"),
            ("t1,1.0,1,nan", "line 3: covariates must be finite"),
            ("t1,1.0,1.0,0.0", "line 3: invalid literal for int() with base 10: '1.0'"),
            (" ", "line 3: expected 4 fields, got 1"),
        ],
    )
    def test_numpy_rejections_get_python_rules(self, loadtxt_calls, tmp_path, record, line):
        path = tmp_path / "lines.csv"
        path.write_text(f"trial_id,time,event,z1\nt2,2.0,0,1.0\n{record}\n")
        outcome = _outcome(read_patient_csv, path)
        assert outcome == _outcome(reference_read_patient_csv, path)
        assert loadtxt_calls.call_count == 1
        if line is None:
            assert [label for label, *_ in outcome] == ["t2", "t1"]
        else:
            assert outcome[1] == line

    @pytest.mark.parametrize(
        "record",
        [
            "t1,1.0,\U000e00010,0.0",
            "t1,1.0\x1c,1,0.0",
            "t1,1.0,1,\x1f2.0",
            "é,1.0,1,0.0",
            "t1,1.5,١,٣",
            "t1,1.0,1,\xa00.5\u3000",
        ],
    )
    def test_blocks_numpy_misreads_go_to_csv(self, loadtxt_calls, tmp_path, record):
        path = tmp_path / "lines.csv"
        path.write_text(f"trial_id,time,event,z1\nt2,2.0,0,1.0\n{record}\n")
        assert _outcome(read_patient_csv, path) == _outcome(reference_read_patient_csv, path)
        assert not loadtxt_calls.called

    def test_csv_only_where_loadtxt_truncates_float_events(
        self, loadtxt_calls, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(data_module, "_loadtxt_rejects_float_events", lambda: False)
        path = tmp_path / "lines.csv"
        _plain_file(path, 2, 10)
        assert _outcome(read_patient_csv, path) == _outcome(reference_read_patient_csv, path)
        assert not loadtxt_calls.called

class TestScenarioJson:
    def test_roundtrip(self, example3_scenario, tmp_path):
        spec = replace(example3_scenario, censoring=AdministrativeCensoring(t_max=1.0))
        obj = scenario_to_json(spec)
        back = scenario_from_json(obj)
        assert back == spec
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(obj))
        assert scenario_from_json(path) == spec

    @pytest.mark.parametrize(
        "field, value",
        [
            ("baseline", WeibullBaseline(2.0, 1.5)),
            ("baseline", WeibullBaseline(0.5)),
            ("censoring", ExponentialCensoring(0.7)),
            ("censoring", AdministrativeCensoring(3.0)),
        ],
    )
    def test_roundtrip_of_every_kind(self, example3_scenario, field, value):
        spec = replace(example3_scenario, **{field: value})
        assert scenario_from_json(json.loads(json.dumps(scenario_to_json(spec)))) == spec

    def test_weibull_scale_defaults_to_one(self, example3_scenario):
        obj = scenario_to_json(example3_scenario)
        obj["baseline"] = {"kind": "weibull", "shape": 2.0}
        assert scenario_from_json(obj).baseline == WeibullBaseline(shape=2.0, scale=1.0)
        assert scenario_to_json(scenario_from_json(obj))["baseline"]["scale"] == 1.0

    def test_validation(self, bernoulli_half):
        with pytest.raises(ValueError):
            ScenarioSpec(trial_effects=[[0.0]], sizes=[10], covariate_dist=bernoulli_half)
        with pytest.raises(DimensionMismatchError):
            ScenarioSpec(
                trial_effects=[[0.0, 0.0], [0.1, 0.1]],
                sizes=[10, 10],
                covariate_dist=bernoulli_half,
            )
        with pytest.raises(ValueError):
            ScenarioSpec(
                trial_effects=[[0.0], [0.1]], sizes=[10, 0], covariate_dist=bernoulli_half
            )

    @pytest.mark.parametrize("effect", [800.0, -800.0])
    def test_hazard_ratio_must_be_finite_and_positive_on_the_support(self, bernoulli_half, effect):
        # e^800 overflows and e^-800 underflows at z = 1; both passed, and at
        # +800 the simulator drew event times of 0 behind an overflow warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="over- or underflows"):
                ScenarioSpec(
                    trial_effects=[[effect], [0.1]], sizes=[10, 10], covariate_dist=bernoulli_half
                )
            with pytest.raises(ValueError, match="over- or underflows"):
                simulate_trial([effect], 10, bernoulli_half, rng=np.random.default_rng(0))
        # on the support {0, 0.5} the same effect is legal
        law = CovariateDistribution(support=[[0.0], [0.5]], probs=[0.5, 0.5])
        ScenarioSpec(trial_effects=[[effect], [0.1]], sizes=[10, 10], covariate_dist=law)

    @pytest.mark.parametrize("effect", [math.nan, math.inf, -math.inf])
    def test_effects_must_be_finite(self, bernoulli_half, effect):
        with pytest.raises(ValueError, match="trial effects must be finite"):
            ScenarioSpec(
                trial_effects=[[0.0], [effect]], sizes=[10, 10], covariate_dist=bernoulli_half
            )

    @pytest.mark.parametrize(
        "sizes, seed, name",
        [
            ((400.5, 170), 0, "sizes"),
            ((True, 170), 0, "sizes"),
            ((400, np.float64(170.2)), 0, "sizes"),
            (("400", 170), 0, "sizes"),
            ((400, 170), 1.5, "seed"),
            ((400, 170), True, "seed"),
            ((400, 170), "7", "seed"),
            ((400, 170), math.nan, "seed"),
        ],
    )
    def test_counts_and_seed_must_be_integers(self, bernoulli_half, sizes, seed, name):
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            ScenarioSpec(
                trial_effects=[[0.0], [0.1]], sizes=sizes, covariate_dist=bernoulli_half, seed=seed
            )

    def test_integral_counts_and_seed_are_ints(self, bernoulli_half):
        spec = ScenarioSpec(
            trial_effects=[[0.0], [0.1]],
            sizes=(np.int32(400), 170.0),
            covariate_dist=bernoulli_half,
            seed=np.uint64(2**63),
        )
        assert spec.sizes == (400, 170) and spec.seed == 2**63
        assert all(type(v) is int for v in spec.sizes + (spec.seed,))

    def test_mixing_p(self, example3_scenario):
        assert example3_scenario.mixing_p == pytest.approx(400 / 570)


_LAW = CovariateDistribution.bernoulli(0.5)
_SMALL_SPEC = ScenarioSpec(trial_effects=[[-0.5], [0.2]], sizes=[30, 20], covariate_dist=_LAW, seed=3)
# each call takes one count or seed, and an integral value that it accepts
_COUNT_AND_SEED_CALLS = {
    "simulate_trial-size": (lambda v: simulate_trial([0.0], v, _LAW, rng=replicate_stream(0, 0)), 10),
    "simulate_scenario-replicate": (lambda v: simulate_scenario(_SMALL_SPEC, v), 3),
    "replicate_stream-seed": (lambda v: replicate_stream(v, 0).random(3).tolist(), 5),
    "bias_sweep-replicates": (lambda v: bias_sweep(_SMALL_SPEC, [math.inf], v), 100),
    "breslow_limit-subjects": (lambda v: breslow_limit(0.5, 1.0, 0.5, 0.7, [1.0], v), 1000),
    "breslow_limit-seed": (lambda v: breslow_limit(0.5, 1.0, 0.5, 0.7, [1.0], 1000, seed=v), 1),
    "breslow_limit-window": (lambda v: breslow_limit(0.5, 1.0, 0.5, 0.7, [1.0], 1000, window=v), 100),
}


@pytest.mark.parametrize("name", list(_COUNT_AND_SEED_CALLS))
def test_counts_and_seeds_take_one_rule(name):
    # the rule of ScenarioSpec.sizes: an integral float is its int, a
    # fraction or a bool is a ValueError
    call, good = _COUNT_AND_SEED_CALLS[name]
    for bad in (2.5, True):
        with pytest.raises(ValueError, match="must be an integer"):
            call(bad)
    got, want = call(float(good)), call(good)
    assert data_module._fields_equal(got, want) if is_dataclass(want) else got == want


class TestCensorAdministrative:
    def test_infinite_tmax_is_identity(self, example3_scenario):
        data = simulate_scenario(example3_scenario, replicate=0)[0]
        assert censor_administrative(data, math.inf) is data

    def test_no_censoring_scheme_flag(self):
        assert NoCensoring() == NoCensoring()
