"""Record the correctness gate's reference values into reference.json.

    python3 perfbench/record_reference.py

Run from the root of a checkout. For every workload, at full and smoke size,
and for every input set, it runs one iteration and stores each cell's final
values and every ``report`` verdict. Rerun it only on the commit whose
outputs are to become the reference; the gate then compares later commits
with that one.
"""

import json
import sys
import tempfile
from pathlib import Path

from run import bootstrap


def main() -> int:
    root = Path.cwd()
    bootstrap(root)
    import gate
    import harness
    import workloads

    inputs = {}
    for name, (_, workers) in workloads.WORKLOADS.items():
        for smoke in (False, True):
            entries = {}
            for index in range(workloads.INPUT_SETS):
                cfgs = workloads.configs(name, workloads.DEFAULT_SEED + index, smoke)
                with tempfile.TemporaryDirectory(dir=root, prefix=".perfbench-") as tmp:
                    it = harness.run_iteration(cfgs, workers, Path(tmp))
                cells = it.observed["cells"]
                bad = sorted(stem for stem, cell in cells.items() if cell["status"] != "ok")
                if bad:
                    raise RuntimeError(f"{name} input set {index}: cells not ok: {bad}")
                entries[str(index)] = {
                    "cells": {
                        stem: {k: v for k, v in cell.items() if k != "status"}
                        for stem, cell in cells.items()
                    },
                    "verdicts": it.observed["verdicts"],
                }
                print(name, "smoke" if smoke else "full", index, gate.known_defects(entries[str(index)]), flush=True)
            inputs[gate.reference_key(name, smoke)] = entries
    with open(gate.REFERENCE_PATH, "w") as fh:
        json.dump({"recorded_at": harness.git_head(root), "inputs": inputs}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
