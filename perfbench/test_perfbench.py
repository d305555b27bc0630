"""Tests of the benchmark itself, on the smoke sizes of its workloads.

    python3 -m pytest perfbench -q
"""

import copy
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
HERE = ROOT / "perfbench"
sys.path.insert(0, str(HERE))

from run import bootstrap  # noqa: E402

bootstrap(ROOT)

import gate  # noqa: E402
import harness  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT):
    cmd = [sys.executable, "perfbench/run.py", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def smoke(workload, trace, seed=workloads.DEFAULT_SEED):
    proc = bench("--workload", workload, "--seed", str(seed), "--seconds", "0", "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


def smoke_iteration(workload, out, recorder=None):
    _, workers = workloads.WORKLOADS[workload]
    cfgs = workloads.configs(workload, workloads.DEFAULT_SEED, smoke=True)
    return harness.run_iteration(cfgs, workers, out, recorder)


def expected(workload):
    return gate.load_reference()["inputs"][gate.reference_key(workload, True)]["0"]


def test_benchmark_json_lists_what_the_harness_prints():
    assert {w["name"]: w["why"] for w in BENCHMARK["workloads"]} == {
        name: why for name, (why, _) in workloads.WORKLOADS.items()
    }
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == harness.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == harness.per_layer_units()


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_untraced_run_prints_every_end_to_end_metric_and_passes_the_gate(workload):
    lines, result = smoke(workload, trace=0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    for name, unit in harness.END_TO_END.items():
        assert result["metrics"][name]["unit"] == unit
        assert result["metrics"][name]["value"] > 0
        assert any(line.startswith(f"metric {name} = ") and line.endswith(unit) for line in lines)
    host = json.loads(next(line for line in lines if line.startswith("host "))[5:])
    for key in ("nproc", "python", "numpy", "scipy", "git_head", "threads", "seed"):
        assert key in host
    assert set(host["threads"].values()) == {"1"}


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_traced_run_prints_every_per_layer_metric(workload):
    lines, result = smoke(workload, trace=1)
    assert result["correct"] and result["failed"] == 0
    assert {n: m["unit"] for n, m in result["metrics"].items()} == harness.per_layer_units()
    for name in harness.COMPUTED:
        assert any(line.startswith(f"metric {name} = ") and line.endswith("(computed)") for line in lines)
    assert (ROOT / harness.SPANS_DIR / f"{workload}-seed{workloads.DEFAULT_SEED}.jsonl").stat().st_size > 0


def test_self_times_add_up_to_traced_run_time(tmp_path):
    recorder = spans.SpanRecorder()
    it = smoke_iteration("paper_grid", tmp_path / "run", recorder)
    totals = recorder.self_times()
    children = sum(s for name, (s, _) in totals.items() if not name.startswith("experiments."))
    own = sum(s for name, (s, _) in totals.items() if name.startswith("experiments."))
    assert own > 0 and children > 0
    assert own + children == pytest.approx(it.run_s, rel=1e-9)
    cells = {s.cell for s in recorder.spans if s.name == spans.CELL_SPAN}
    assert len(cells) == len(it.observed["cells"])


def test_computed_counts_repeat_exactly(tmp_path):
    cfgs = workloads.configs("paper_grid", workloads.DEFAULT_SEED, smoke=True)
    runs = [
        harness.measure(cfgs, 1, 0.0, tmp_path / str(i), trace=True)[0] for i in range(2)
    ]
    layers = [harness.per_layer(iterations, cfgs) for iterations in runs]
    repeatable = [*harness.COMPUTED, "measures.flagged_steps", "experiments.artifacts"]
    repeatable += [f"{name}_calls" for name in harness.COUNTED_SPANS]
    assert {k: layers[0][k] for k in repeatable} == {k: layers[1][k] for k in repeatable}
    assert layers[0]["measures.blp_objective_evals"] == 9 * workloads.blp_objective_evals(workloads.SMOKE_SCHEDULE)


def test_corrupted_reference_trips_the_gate(tmp_path):
    want = expected("long_horizon")
    observed = smoke_iteration("long_horizon", tmp_path / "run").observed
    assert all(ok for _, ok, _ in gate.check(observed, want))

    stem = next(s for s in sorted(want["cells"]) if "final_rhp" in want["cells"][s])
    bad = copy.deepcopy(want)
    bad["cells"][stem]["final_rhp"] *= 1 + 1e-4
    failed = [name for name, ok, _ in gate.check(observed, bad) if not ok]
    assert failed == [f"{stem}:final_rhp"]

    bad = copy.deepcopy(want)
    bad["verdicts"]["rhp/1.3"] = "PASS"
    assert [name for name, ok, _ in gate.check(observed, bad) if not ok] == ["verdict:rhp/1.3"]

    bad = copy.deepcopy(want)
    del bad["cells"][stem]
    assert not all(ok for _, ok, _ in gate.check(observed, bad))


def test_n_max_check_is_one_sided(tmp_path):
    want = expected("paper_grid")
    observed = smoke_iteration("paper_grid", tmp_path / "run").observed
    stem = next(s for s in sorted(want["cells"]) if "n_max" in want["cells"][s])
    lower, higher = copy.deepcopy(want), copy.deepcopy(want)
    lower["cells"][stem]["n_max"] *= 0.9
    higher["cells"][stem]["n_max"] *= 1.1
    assert all(ok for _, ok, _ in gate.check(observed, lower))
    assert [name for name, ok, _ in gate.check(observed, higher) if not ok] == [f"{stem}:n_max"]


def test_hash_check_flags_a_changed_csv():
    assert gate.check_hashes({"a.csv": "1"}, {"a.csv": "1"})[1]
    assert not gate.check_hashes({"a.csv": "1"}, {"a.csv": "2"})[1]
    assert not gate.check_hashes({"a.csv": "1"}, {})[1]


def test_missing_wrap_point_is_skipped(tmp_path, monkeypatch):
    monkeypatch.setattr(spans, "WRAP_POINTS", spans.WRAP_POINTS + (("ptwalk.measures", "gone", "measures.gone"),))
    recorder = spans.SpanRecorder()
    smoke_iteration("wide_lattice", tmp_path / "run", recorder)
    assert "measures.gone" not in recorder.self_times()
    import ptwalk.measures

    assert not hasattr(ptwalk.measures, "gone")
    assert not hasattr(ptwalk.measures.trace_norm, "__wrapped__")


def test_without_program_sources_exits_nonzero_without_a_result():
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(HERE, Path(tmp) / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench("--workload", "paper_grid", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp)
    assert proc.returncode != 0
    assert proc.stdout == ""
