"""Correctness gate: compare one workload iteration with the seed-commit reference.

``reference.json`` holds, for every input set of every workload, the values
and ``report`` verdicts the program produced at the commit that introduced
this benchmark (``record_reference.py`` writes it). Each check below is one
operation; a failed check counts in the run's ``failed`` total.

- every cell ran with ``status == "ok"``;
- ``final_rhp`` and ``final_entropy`` lie within ``REL_TOL`` of the reference;
- ``n_max`` is at least the reference minus ``REL_TOL`` of it (one-sided, so
  a better maximiser passes);
- every verdict that was PASS or DISTINCT at the reference is unchanged;
- CSV artifacts hash identically across the iterations of one run.

Verdicts that were already FAIL or NOT-DISTINCT at the reference are known
defects of that commit: they are listed, not gated.
"""

import json
from pathlib import Path

REFERENCE_PATH = Path(__file__).with_name("reference.json")
REL_TOL = 1e-6
GATED_VERDICTS = ("PASS", "DISTINCT")
VALUE_KEYS = ("final_rhp", "final_entropy", "n_max")


def load_reference(path=REFERENCE_PATH) -> dict:
    with open(path) as fh:
        return json.load(fh)


def reference_key(workload: str, smoke: bool) -> str:
    return f"{workload}@smoke" if smoke else workload


def observe(manifests: list[dict], reports: list[dict]) -> dict:
    """Cell statuses, final values and verdicts of one iteration's bundles."""
    cells = {}
    for manifest in manifests:
        for cell in manifest["cells"]:
            cells[cell["cell"]] = {
                "status": cell["status"],
                **{k: cell[k] for k in VALUE_KEYS if k in cell},
            }
    verdicts = {}
    for results in reports:
        for study, rows in results["studies"].items():
            for row, entry in rows.items():
                verdicts[f"{study}/{row}"] = entry["verdict"]
    return {"cells": cells, "verdicts": verdicts}


def known_defects(expected: dict) -> list[str]:
    """Reference verdicts that the gate does not hold the program to."""
    return sorted(
        f"{row}={verdict}"
        for row, verdict in expected["verdicts"].items()
        if verdict not in GATED_VERDICTS
    )


def check(observed: dict, expected: dict) -> list[tuple[str, bool, str]]:
    """(name, passed, detail) for every check of one iteration."""
    checks = []
    for stem in sorted(set(expected["cells"]) | set(observed["cells"])):
        got = observed["cells"].get(stem)
        want = expected["cells"].get(stem)
        if got is None or want is None:
            checks.append((f"{stem}:present", False, "cell missing" if got is None else "unexpected cell"))
            continue
        checks.append((f"{stem}:status", got["status"] == "ok", got["status"]))
        for key in VALUE_KEYS:
            if key not in want:
                continue
            value, ref = got.get(key), want[key]
            if value is None:
                checks.append((f"{stem}:{key}", False, "missing"))
            elif key == "n_max":
                ok = value >= ref - REL_TOL * abs(ref)
                checks.append((f"{stem}:{key}", ok, f"{value!r} vs floor {ref!r}"))
            else:
                ok = abs(value - ref) <= REL_TOL * abs(ref)
                checks.append((f"{stem}:{key}", ok, f"{value!r} vs {ref!r}"))
    for row, verdict in sorted(expected["verdicts"].items()):
        if verdict in GATED_VERDICTS:
            got = observed["verdicts"].get(row)
            checks.append((f"verdict:{row}", got == verdict, f"{got} vs {verdict}"))
    return checks


def check_hashes(first: dict, current: dict) -> tuple[str, bool, str]:
    """One check: the CSV artifacts of an iteration match the first iteration's."""
    differing = sorted(p for p in set(first) | set(current) if first.get(p) != current.get(p))
    return ("csv_hashes", not differing, ", ".join(differing[:5]) or f"{len(first)} files identical")
