"""One patient table and one sort for ``estimate --lines``.

The reader returns each trial as a read-only view of one trial-ordered
table, and the trial and pooled fits share one stable argsort of the
pooled times.  These tests check that every fit is bit-identical to
:func:`fit_cox` on freshly built datasets, and bound the traced memory of
the command.
"""

import contextlib
import io
import tracemalloc

import numpy as np
import pytest

from hrmix import DegenerateDataError, fit_cox, pool, read_patient_csv
from hrmix import cox as cox_module
from hrmix import data as data_module
from hrmix.analysis import _example4_pool, _sorted_latent, breslow_limit
from hrmix.cli import main
from hrmix.cox import _fit_trials_and_pooled, breslow_cumhaz
from hrmix.data import scenario_with

from conftest import reference_read_patient_csv


def _write_lines(path, trial, times, events, z):
    header = "trial_id,time,event," + ",".join(f"z{j + 1}" for j in range(z.shape[1]))
    rows = [
        ",".join([f"trial{c + 1}", repr(t), str(e)] + [repr(v) for v in zs])
        for c, t, e, zs in zip(trial.tolist(), times.tolist(), events.tolist(), z.tolist())
    ]
    path.write_text(header + "\n" + "\n".join(rows) + "\n", encoding="utf-8")


def _interleaved_file(path, seed, n_trials, k, n=300):
    """Trials' rows shuffled together; times on a coarse grid, so ties fall
    within and across trials; censored rows among the ties."""
    rng = np.random.default_rng([0x5EED, seed])
    trial = rng.integers(0, n_trials, n)
    trial[:n_trials] = np.arange(n_trials)[::-1]  # every trial present, not first-seen in order
    times = rng.integers(0, 12, n) * 0.25
    events = (rng.random(n) < 0.7).astype(int)
    arm = (rng.random(n) < 0.5).astype(float)
    extra = [np.round(rng.normal(0.0, 1.0, n), 1) + 0.0 for _ in range(k - 1)]
    z = np.column_stack([arm] + extra)
    _write_lines(path, trial, times, events, z)


def _assert_same_fit(got, want):
    assert np.array_equal(got.beta_hat, want.beta_hat)
    assert np.array_equal(got.covariance, want.covariance)
    assert got.log_partial_likelihood == want.log_partial_likelihood
    assert got.report.iterations == want.report.iterations
    assert got.n_events == want.n_events


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("n_trials, k", [(2, 1), (2, 2), (3, 2)])
def test_one_sort_fits_are_bit_identical(tmp_path, seed, n_trials, k):
    path = tmp_path / "lines.csv"
    _interleaved_file(path, seed, n_trials, k)
    table, sizes = data_module._read_trial_table(path)
    fits, pooled_fit = _fit_trials_and_pooled(table, list(sizes.values()))
    # datasets built afresh, row by row, share nothing with the table
    trials = reference_read_patient_csv(path)
    assert list(sizes) == [t.label for t in trials]
    assert list(sizes.values()) == [len(t) for t in trials]
    for got, trial in zip(fits, trials):
        _assert_same_fit(got, fit_cox(trial))
    _assert_same_fit(pooled_fit, fit_cox(pool(trials)))
    # the pooled table is pool() of the trials, value for value
    assert table == pool(trials)


def test_eventless_trial_raises_before_the_pooled_fit(tmp_path, monkeypatch):
    rng = np.random.default_rng(7)
    n = 200
    trial = rng.integers(0, 3, n)
    times = rng.integers(1, 9, n) * 0.5
    events = np.where(trial == 1, 0, (rng.random(n) < 0.8).astype(int))
    z = (rng.random((n, 1)) < 0.5).astype(float)
    path = tmp_path / "lines.csv"
    _write_lines(path, trial, times, events, z)
    fitted = []
    fit_ordered = cox_module._fit_ordered

    def counting(data, order):
        fitted.append(order.size)
        return fit_ordered(data, order)

    monkeypatch.setattr(cox_module, "_fit_ordered", counting)
    table, sizes = data_module._read_trial_table(path)
    with pytest.raises(DegenerateDataError) as got:
        _fit_trials_and_pooled(table, list(sizes.values()))
    # trial1 is fitted, then trial2 raises; the pooled fit never starts
    assert fitted == list(sizes.values())[:2]
    with pytest.raises(DegenerateDataError) as want:
        fit_cox(reference_read_patient_csv(path)[1])
    assert str(got.value) == str(want.value) == "no observed events"


def test_trials_are_read_only_views_of_one_table(tmp_path):
    path = tmp_path / "lines.csv"
    _interleaved_file(path, 11, 3, 2)
    trials = read_patient_csv(path)
    assert trials == reference_read_patient_csv(path)
    for column in ("times", "events", "covariates", "trial_ids"):
        arrays = [getattr(t, column) for t in trials]
        base = arrays[0].base
        assert base is not None and all(a.base is base for a in arrays)
        assert sum(len(a) for a in arrays) == len(base)
        assert not any(a.flags.writeable for a in arrays)
        with pytest.raises(ValueError):
            arrays[0][0] = arrays[0][1]
    # pool() of the views copies them
    pooled = pool(trials)
    assert not np.shares_memory(pooled.times, trials[0].times)
    assert not np.shares_memory(pooled.covariates, trials[0].covariates)


def test_estimate_lines_traced_peak_per_subject(tmp_path, capsys):
    """The command holds the patient table once: at most 175 bytes per
    subject traced on a 20,000-subject k = 2 file (arm and a binary
    stratum, trials split 70/30, 30% censored)."""
    n = 20_000
    rng = np.random.default_rng(20_000)
    n1 = round(0.7 * n)
    trial = np.repeat([0, 1], (n1, n - n1))
    z = np.column_stack([rng.random(n) < 0.5, rng.random(n) < 0.4]).astype(float)
    beta = np.array([[np.log(0.3), 0.4], [np.log(0.8), 0.2]])[trial]
    latent = rng.exponential(size=n) / np.exp(np.sum(z * beta, axis=1))
    end = float(np.quantile(latent, 0.7))
    path = tmp_path / "lines.csv"
    _write_lines(path, trial, np.minimum(latent, end), (latent <= end).astype(int), z)
    # a first run on a small file, so one-time setup is not traced
    small = tmp_path / "small.csv"
    _interleaved_file(small, 0, 2, 2)
    assert main(["estimate", "--lines", str(small)]) == 0
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["estimate", "--lines", str(path)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    assert peak / n <= 175


def test_sorted_latent_trials_match_their_own_sort(example3_scenario):
    spec = scenario_with(example3_scenario, sizes=(7, 5))
    replicates = range(3, 9)
    latent = _sorted_latent(spec, replicates)
    # the unsorted draw, rebuilt from each replicate's stream
    bounds = (0, 7, 12)
    raw_t = np.empty((6, 12))
    raw_l = np.empty((6, 12), dtype=np.intp)
    for row, r in enumerate(replicates):
        rng = data_module.replicate_stream(spec.seed, r)
        for i, (effect, size) in enumerate(zip(spec.trial_effects, spec.sizes)):
            part = slice(bounds[i], bounds[i + 1])
            raw_l[row, part], raw_t[row, part] = data_module._draw_latent(
                effect, size, spec.covariate_dist, spec.baseline, rng
            )
    for (times, levels), lo, hi in zip(latent, (0, 0, 7), (12, 7, 12)):
        order = np.argsort(-raw_t[:, lo:hi], axis=1, kind="stable")
        assert np.array_equal(times, np.take_along_axis(raw_t[:, lo:hi], order, axis=1))
        assert np.array_equal(levels, np.take_along_axis(raw_l[:, lo:hi], order, axis=1))


def test_breslow_limit_shares_one_order_with_public_calls():
    pooled = _example4_pool(0.5, 1.0, 0.5, 2_000, 3)
    fit = fit_cox(pooled)
    curve = breslow_cumhaz(pooled, fit.beta_hat)
    got = breslow_limit(0.5, 1.0, 0.5, 0.7, [0.5, 1.0], n_subjects=2_000, seed=3, window=50)
    assert got.fitted_c == float(np.exp(fit.beta_hat[0]))
    edges = np.arange(1, curve.event_times.size // 50 + 1) * 50 - 1
    edge_t = np.r_[0.0, curve.event_times[edges]]
    edge_h = np.r_[0.0, curve.cumulative[edges]]
    assert np.array_equal(got.block_hazard, np.diff(edge_h) / np.diff(edge_t))
