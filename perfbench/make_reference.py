"""Record the reference outputs that every benchmark pass is checked against.

Run once, from the root of a checkout of the commit whose outputs are the
reference, and commit the files it writes under ``perfbench/reference/``:

    python3 perfbench/make_reference.py

The grid has one input set; sweep and lines have ``N_INPUT_SETS`` each.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

from worker import import_hrmix
from workloads import N_INPUT_SETS, REFERENCE_DIR, WORKLOADS, run_command


def record_workload(hrmix, name: str) -> dict:
    input_sets = [0] if name == "grid" else range(N_INPUT_SETS)
    out = {}
    for i in input_sets:
        workload = WORKLOADS[name](i)
        with tempfile.TemporaryDirectory(dir=Path.cwd()) as tmp:
            workload.prepare(Path(tmp))
            recorded = {}
            for cmd in workload.commands():
                res, _ = run_command(hrmix.cli, cmd)
                if res.code != 0:
                    where = f"{name} input set {i}: {cmd.key}"
                    raise RuntimeError(f"{where} exited {res.code}\n{res.error}")
                recorded[cmd.key] = workload.reference_of(cmd, res)
        out[workload.reference_key()] = recorded
        print(f"{name}: input set {workload.reference_key()} recorded", file=sys.stderr)
    return {"input_sets": out}


def main() -> int:
    hrmix = import_hrmix(Path.cwd())
    REFERENCE_DIR.mkdir(exist_ok=True)
    for name in sorted(WORKLOADS):
        obj = record_workload(hrmix, name)
        (REFERENCE_DIR / f"{name}.json").write_text(json.dumps(obj, separators=(",", ":")) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
