"""Outside-in span tracer for the hrmix layers.

While installed, the tracer replaces each public function at every module
attribute through which hrmix code reaches it (its binding sites).  Patching
only the defining module would miss the calls that ``analysis`` and ``cli``
make on names they imported directly.  Integrand and residual callables
handed to ``numerics`` are wrapped too, so that their evaluations are
counted.  Uninstalling restores every site, so untraced passes in the same
process run the original functions.

Spans stay in memory as ``[name, start, end, parent]`` lists; a span's self
time is its duration minus the time covered by its direct children.  The
program runs single-threaded here (``--threads 1``), so spans nest strictly
and the children of a span never overlap.
"""

from __future__ import annotations

import gzip
import importlib
import json
import time
from collections import Counter

# span name -> binding sites (module, attribute) through which hrmix calls it
SITES = {
    "numerics.integrate_semi_infinite": [("hrmix.estimators", "integrate_semi_infinite")],
    "numerics.brent_root": [("hrmix.estimators", "brent_root")],
    "numerics.newton_nd": [("hrmix.estimators", "newton_nd")],
    "numerics.solve_linear": [("hrmix.estimators", "solve_linear")],
    "estimators.solve_cpl_binary": [
        ("hrmix.estimators", "solve_cpl_binary"),
        ("hrmix.analysis", "solve_cpl_binary"),
    ],
    "estimators.solve_theta_pl_general": [
        ("hrmix.estimators", "solve_theta_pl_general"),
        ("hrmix.analysis", "solve_theta_pl_general"),
    ],
    "estimators.theta_pl_sensitivity": [("hrmix.estimators", "theta_pl_sensitivity")],
    "estimators.theta_m_estimate": [("hrmix.estimators", "theta_m_estimate")],
    "estimators.theta_hm_estimate": [("hrmix.estimators", "theta_hm_estimate")],
    "cox.fit_cox": [("hrmix.analysis", "fit_cox"), ("hrmix.cli", "fit_cox")],
    "data.simulate_trial": [("hrmix.analysis", "simulate_trial")],
    "data.censor_administrative": [("hrmix.analysis", "censor_administrative")],
    "data.pool": [("hrmix.analysis", "pool"), ("hrmix.data", "pool")],
    "data.read_patient_csv": [("hrmix.data", "read_patient_csv")],
    "analysis.table1_grid": [("hrmix.analysis", "table1_grid")],
    "analysis.figure2_grid": [("hrmix.analysis", "figure2_grid")],
    "analysis.bias_sweep": [("hrmix.analysis", "bias_sweep")],
    "cli.main": [("hrmix.cli", "main")],
}

# span name -> counter fed by each evaluation of the callable passed first
_COUNTED_CALLABLE = {
    "numerics.integrate_semi_infinite": "numerics.integrate_semi_infinite.panels",
    "numerics.brent_root": "numerics.brent_root.residual_evals",
    "numerics.newton_nd": "numerics.newton_nd.residual_evals",
}


def _on_result(counts: Counter, name: str, args, result) -> None:
    """Work counts read off a call's arguments and result."""
    if name == "numerics.newton_nd":
        counts["numerics.newton_nd.iterations"] += result.iterations
    elif name == "cox.fit_cox":
        counts["cox.fit_cox.subjects"] += len(args[0])
        counts["cox.fit_cox.iterations"] += result.report.iterations
    elif name == "data.read_patient_csv":
        counts["data.read_patient_csv.rows"] += sum(len(t) for t in result)
    elif name == "analysis.bias_sweep":
        counts["analysis.bias_sweep.replicates_failed"] += int(result.n_failed.sum())


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self.missing: list = []
        self._stack: list = []
        self._saved: list = []

    def _counted(self, key: str, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    def _wrap(self, name: str, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        counter_key = _COUNTED_CALLABLE.get(name)
        calls_key, failed_key = name + ".calls", name + ".failed"
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if counter_key is not None:
                args = (self._counted(counter_key, args[0]),) + args[1:]
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            counts[calls_key] += 1
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                rec[2] = clock()
                stack.pop()
                counts[failed_key] += 1
                raise
            rec[2] = clock()
            stack.pop()
            _on_result(counts, name, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Patch every binding site that exists; record the ones that do not."""
        for name, sites in SITES.items():
            for module_name, attr in sites:
                module = importlib.import_module(module_name)
                original = getattr(module, attr, None)
                if original is None:
                    self.missing.append(f"{module_name}.{attr}")
                    continue
                self._saved.append((module, attr, original))
                setattr(module, attr, self._wrap(name, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def summary(self) -> dict:
        """Per span name: total duration and self time, in seconds."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict = {}
        for i, (name, start, end, _) in enumerate(self.spans):
            agg = out.setdefault(name, {"total_s": 0.0, "self_s": 0.0})
            agg["total_s"] += end - start
            agg["self_s"] += end - start - child_time[i]
        return out

    def write_spans(self, path, epoch: float, tag) -> None:
        """Append the spans as JSON lines (times relative to ``epoch``)."""
        with gzip.open(path, "at", encoding="utf-8") as fh:
            for i, (name, start, end, parent) in enumerate(self.spans):
                rec = {"pass": tag, "id": i, "name": name, "parent": parent}
                rec["start"] = start - epoch
                rec["end"] = end - epoch
                fh.write(json.dumps(rec) + "\n")
