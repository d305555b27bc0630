"""Measurement loop, metrics and result line of the ptwalk benchmark.

One run repeats the workload's ``run(...)`` calls (an iteration) for about
``--seconds`` seconds, at least ``MIN_ITERATIONS`` times, and reports the
median iteration time. Every iteration is checked by the correctness gate
and its CSV hashes are compared with the first iteration's.

The shared host's speed drifts by up to a factor of two over minutes. A
fixed calibration loop is timed before the first iteration and after each
one, and an iteration's time is scaled by ``CALIBRATION_REF_S`` over the
mean of the two calibration times around it: ``run_s`` is in seconds of a
host on which the loop takes ``CALIBRATION_REF_S``. ``setup_s`` is scaled
the same way, by calibrations just before and after the set-up processes.

A traced run (``--trace 1``) alternates an untraced and a traced iteration
on one worker; for a multi-worker workload its first round also runs the
workload's own worker count untraced, so the gate compares CSV hashes across
worker counts. The difference between traced and untraced run times is the
tracing overhead.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy

import gate
import spans
import workloads
from ptwalk.experiments import report, run, validate_config
from run import THREAD_ENV

HERE = Path(__file__).resolve().parent
MIN_ITERATIONS = 2
REPORT_REPEATS = 25
SETUP_REPEATS = 5
SPANS_DIR = ".perfbench-spans"
CALIBRATION_REF_S = 0.5

END_TO_END = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# Spans whose self time is reported as <name>_s, and those whose calls are counted.
TIMED_SPANS = (
    "measures.maximize_blp",
    "measures.rhp_series",
    "measures.entanglement_series",
    "measures.write_csv",
    "channel.channel_matrix_series",
    "channel.coin_trajectory",
    "channel.build_euclidean_walk",
    "walk.walk_operator",
    "metric.build_metric",
    "metric.write_metric_csv",
    "linalg.trace_norm",
    "toy.run_toy",
)
COUNTED_SPANS = (
    "channel.channel_matrix_series",
    "channel.build_euclidean_walk",
    "walk.walk_operator",
    "metric.build_metric",
    "linalg.trace_norm",
)
# Derived from the configs or the written CSVs rather than timed; they repeat exactly.
COMPUTED = {
    "measures.blp_objective_evals": "count",
    "measures.series_bytes": "bytes",
    "channel.block_products": "count",
    "walk.blocks_built": "count",
    "metric.audit_bytes": "bytes",
    "experiments.artifact_bytes": "bytes",
}
SETUP_CODE = (
    "import sys; sys.path[:0] = sys.argv[1:3]; import workloads; "
    "from ptwalk.experiments import validate_config; "
    "[validate_config(c) for c in workloads.configs(sys.argv[3], int(sys.argv[4]), sys.argv[5] == '1')]"
)


def per_layer_units() -> dict[str, str]:
    units = {f"{name}_s": "s" for name in TIMED_SPANS}
    units.update({f"{name}_calls": "count" for name in COUNTED_SPANS})
    units.update(COMPUTED)
    units.update(
        {
            "measures.flagged_steps": "count",
            "measures.blp_n_max_sum": "dimensionless",
            "experiments.self_s": "s",
            "experiments.report_s": "s",
            "experiments.artifacts": "count",
            "trace.overhead_s": "s",
        }
    )
    return units


@dataclass
class Iteration:
    workers: int
    recorder: spans.SpanRecorder | None
    run_s: float
    report_times: list[float]
    observed: dict
    hashes: dict[str, str]
    csv_bytes: dict[str, int]
    artifacts: int
    flagged_steps: int
    host_factor: float = 1.0  # calibration time around the iteration / CALIBRATION_REF_S

    @property
    def scaled_run_s(self) -> float:
        return self.run_s / self.host_factor


def calibrate() -> float:
    """Seconds for a fixed loop of small numpy operations in Python, like the program's."""
    rng = np.random.default_rng(0)
    blocks = rng.standard_normal((64, 4, 4))
    x = rng.standard_normal(4)
    total = 0.0
    t0 = time.perf_counter()
    for _ in range(40000):
        y = blocks @ x
        total += float(np.sqrt((y * y).sum(axis=1)).max())
        x = x * 0.999 + 0.001
    return time.perf_counter() - t0


def run_iteration(cfgs, workers: int, out: Path, recorder=None) -> Iteration:
    """Run the configs into ``out``, time ``report`` on each bundle, collect outputs."""
    manifests = []
    started = time.perf_counter()
    for cfg in cfgs:
        if recorder is None:
            manifests.append(run(cfg, out / cfg.study, threads=workers))
        else:
            with spans.wrapped(recorder), recorder.span(spans.ROOT_SPAN):
                manifests.append(run(cfg, out / cfg.study, threads=1))
    run_s = time.perf_counter() - started if recorder is None else recorder.root_seconds()

    report_times = []
    for _ in range(REPORT_REPEATS):
        t0 = time.perf_counter()
        reports = [report(out / cfg.study)[1] for cfg in cfgs]
        report_times.append(time.perf_counter() - t0)

    hashes, csv_bytes = {}, {}
    for cfg, manifest in zip(cfgs, manifests):
        for artifact in manifest["artifacts"]:
            if artifact["path"].endswith(".csv"):
                key = f"{cfg.study}/{artifact['path']}"
                hashes[key] = artifact["sha256"]
                csv_bytes[key] = (out / cfg.study / artifact["path"]).stat().st_size
    return Iteration(
        workers=1 if recorder is not None else workers,
        recorder=recorder,
        run_s=run_s,
        report_times=report_times,
        observed=gate.observe(manifests, reports),
        hashes=hashes,
        csv_bytes=csv_bytes,
        artifacts=sum(len(m["artifacts"]) for m in manifests),
        flagged_steps=sum(len(c.get("flagged_steps", ())) for m in manifests for c in m["cells"]),
    )


def _round(trace: bool, workers: int, first: bool) -> list[tuple[int, bool]]:
    """(workers, traced) for each iteration of one round."""
    if not trace:
        return [(workers, False)]
    own = [(workers, False)] if first and workers != 1 else []
    return own + [(1, False), (1, True)]


def measure(cfgs, workers: int, seconds: float, tmp: Path, trace: bool) -> tuple[list[Iteration], float]:
    """Repeat rounds until the next one would overrun ``seconds``.

    Returns the iterations and the last calibration time.
    """
    iterations: list[Iteration] = []
    min_rounds = 1 if trace else MIN_ITERATIONS
    started = time.perf_counter()
    rounds, last = 0, 0.0
    before = calibrate()
    while rounds < min_rounds or time.perf_counter() - started + last <= seconds:
        t0 = time.perf_counter()
        for round_workers, traced in _round(trace, workers, rounds == 0):
            out = tmp / f"it{len(iterations)}"
            recorder = spans.SpanRecorder() if traced else None
            it = run_iteration(cfgs, round_workers, out, recorder)
            after = calibrate()
            it.host_factor = (before + after) / 2.0 / CALIBRATION_REF_S
            before = after
            iterations.append(it)
        last = time.perf_counter() - t0
        rounds += 1
    return iterations, before


def gate_checks(iterations: list[Iteration], expected: dict) -> list[tuple[str, bool, str]]:
    checks = []
    for i, it in enumerate(iterations):
        checks += [(f"it{i}:{name}", ok, detail) for name, ok, detail in gate.check(it.observed, expected)]
        if i:
            name, ok, detail = gate.check_hashes(iterations[0].hashes, it.hashes)
            checks.append((f"it{i}:{name}", ok, detail))
    return checks


def computed_counts(cfgs, csv_bytes: dict[str, int]) -> dict[str, int]:
    """Work counts from the configs, and bytes of the written CSVs."""
    counts = dict.fromkeys(COMPUTED, 0)
    for cfg in cfgs:
        unbroken = sum(validate_config(cfg).values())
        studies = ["blp", "rhp", "entanglement"] if cfg.study == "all" else [cfg.study]
        for study in studies:
            if study == "toy":
                continue
            cells = unbroken * len(cfg.metrics)
            counts["walk.blocks_built"] += cells * cfg.lattice_size
            counts["channel.block_products"] += cells * cfg.lattice_size * cfg.t_max
            if study == "blp":
                counts["measures.blp_objective_evals"] += cells * workloads.blp_objective_evals(cfg.anneal)
    for key, size in csv_bytes.items():
        stem = key.split("/", 1)[1]
        if stem.startswith(("blp__", "rhp__", "entanglement__")):
            counts["measures.series_bytes"] += size
        elif stem.startswith("metric__"):
            counts["metric.audit_bytes"] += size
        counts["experiments.artifact_bytes"] += size
    return counts


def per_layer(iterations: list[Iteration], cfgs) -> dict[str, float]:
    traced = [it for it in iterations if it.recorder is not None]
    untraced = [it for it in iterations if it.recorder is None and it.workers == 1]
    totals = [it.recorder.self_times() for it in traced]
    metrics: dict[str, float] = {}
    for name in TIMED_SPANS:
        metrics[f"{name}_s"] = statistics.median(t.get(name, (0.0, 0))[0] for t in totals)
    for name in COUNTED_SPANS:
        metrics[f"{name}_calls"] = totals[0].get(name, (0.0, 0))[1]
    metrics.update(computed_counts(cfgs, traced[0].csv_bytes))
    metrics["measures.flagged_steps"] = traced[0].flagged_steps
    metrics["measures.blp_n_max_sum"] = n_max_sum(traced[0].observed)
    metrics["experiments.self_s"] = statistics.median(
        sum(s for name, (s, _) in t.items() if name.startswith("experiments.")) for t in totals
    )
    metrics["experiments.artifacts"] = traced[0].artifacts
    metrics["experiments.report_s"] = fastest_report(iterations)
    metrics["trace.overhead_s"] = statistics.median(it.scaled_run_s for it in traced) - statistics.median(
        it.scaled_run_s for it in untraced
    )
    return metrics


def fastest_report(iterations: list[Iteration]) -> float:
    """Fastest ``report`` call of the run.

    A call takes milliseconds, and on a shared host whole iterations' worth
    of calls run up to twice as slow, so a median would follow the host.
    """
    return min(t for it in iterations for t in it.report_times)


def n_max_sum(observed: dict) -> float:
    return sum(cell.get("n_max", 0.0) for cell in observed["cells"].values())


def peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest reaped child (pool workers), in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def setup_seconds(root: Path, workload: str, seed: int, smoke: bool) -> list[float]:
    """Wall time of fresh processes that import ptwalk and validate the workload's configs."""
    argv = [sys.executable, "-c", SETUP_CODE, str(root / "src"), str(HERE), workload, str(seed), str(int(smoke))]
    times = []
    for _ in range(SETUP_REPEATS):
        # A blocking wait: a timeout would poll the child in sleeps of up to 50 ms.
        t0 = time.perf_counter()
        subprocess.run(argv, cwd=root, check=True)
        times.append(time.perf_counter() - t0)
    return times


def git_head(root: Path) -> str:
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def host_record(root: Path, args, index: int) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "input_set": index,
        "smoke": args.smoke,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "git_head": git_head(root),
        "threads": {k: os.environ.get(k) for k in THREAD_ENV},
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes of the same workload")
    return parser.parse_args(argv)


def main(argv, root: Path) -> int:
    args = parse_args(argv)
    index = workloads.input_set(args.seed)[0]
    _, workers = workloads.WORKLOADS[args.workload]
    cfgs = workloads.configs(args.workload, args.seed, args.smoke)
    expected = gate.load_reference()["inputs"][gate.reference_key(args.workload, args.smoke)][str(index)]
    print(f"host {json.dumps(host_record(root, args, index), sort_keys=True)}")

    with tempfile.TemporaryDirectory(dir=root, prefix=".perfbench-") as tmp:
        iterations, calibration = measure(cfgs, workers, args.seconds, Path(tmp), bool(args.trace))
    checks = gate_checks(iterations, expected)
    failed = [c for c in checks if not c[1]]

    if args.trace:
        values = per_layer(iterations, cfgs)
        units = per_layer_units()
        traced = [it for it in iterations if it.recorder is not None]
        self_total = sum(s for s, _ in traced[0].recorder.self_times().values())
        print(f"trace traced run_s {traced[0].run_s:.6f} s = sum of self times {self_total:.6f} s")
        spans_dir = root / SPANS_DIR
        spans_dir.mkdir(exist_ok=True)
        spans.write_spans(spans_dir / f"{args.workload}-seed{args.seed}.jsonl", [it.recorder for it in traced])
    else:
        values = {
            "run_s": statistics.median(it.scaled_run_s for it in iterations),
            "peak_rss_mb": peak_rss_mb(),
        }
        setup = setup_seconds(root, args.workload, args.seed, args.smoke)
        setup_factor = (calibration + calibrate()) / 2.0 / CALIBRATION_REF_S
        values["setup_s"] = statistics.median(setup) / setup_factor
        units = END_TO_END
        print(f"info wall run_s per iteration {[round(it.run_s, 4) for it in iterations]}")
        print(f"info host factor per iteration {[round(it.host_factor, 4) for it in iterations]}")
        print(f"info run_s per iteration {[round(it.scaled_run_s, 4) for it in iterations]}")
        print(f"info report_s fastest per iteration {[round(min(it.report_times), 6) for it in iterations]}")
        print(f"info wall setup_s per process {[round(t, 4) for t in setup]}, host factor {setup_factor:.4f}")
        print(f"info report_s {fastest_report(iterations)!r} s (fastest report call)")
        print(f"info blp_n_max_sum {n_max_sum(iterations[0].observed)!r} (sum of n_max over BLP cells)")

    for name in units:
        note = " (computed)" if name in COMPUTED else ""
        print(f"metric {name} = {values[name]!r} {units[name]}{note}")
    print(f"gate attempted={len(checks)} failed={len(failed)} error_rate={len(failed) / len(checks)!r} ratio")
    for name, _, detail in failed:
        print(f"gate FAIL {name}: {detail}")
    for defect in gate.known_defects(expected):
        print(f"gate known reference verdict, not gated: {defect}")
    result = {
        "correct": not failed,
        "attempted": len(checks),
        "failed": len(failed),
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0
