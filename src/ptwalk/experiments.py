"""Config-driven experiment runner and reporting.

A run sweeps the cartesian grid of non-Hermiticity factors e^gamma and
metric choices for the selected studies (information backflow, CP
indivisibility, coin-position entanglement, and the two-qubit toy), writing
one CSV series and one JSON summary per cell plus a manifest of content
hashes. The unit of work is one gamma under every metric: its walk is
built once for all of its metrics and studies, and the Bloch matrices M(t)
come from one pass over its shared angles, one M(t) per class of metrics
with bitwise-equal axes. Each measure runs once per class: at gamma = 0
every metric's axes come from S alone, so the metrics of e^gamma = 1 are
one class and share one annealer search, one series and one formatted set
of CSV rows, while each cell still writes its own CSV and JSON.
Cells whose gamma lies beyond the exceptional point are skipped and
reported, not fatal. Every file of a run is written here, its CSVs by one
writer (``_write_csv``). Given the same config and master seed, the CSV outputs are
byte-identical across reruns and thread counts; summary JSONs are
deterministic apart from their wall-clock ``runtime_s`` and ``timings``
fields.
"""

import csv
import hashlib
import json
import math
import os
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .channel import bloch_matrix_series, build_euclidean_walk, equal_classes
from .config import Config
from .errors import ConfigInvalid, MissingArtifacts
from .measures import AnnealSchedule, MeasureSeries, entanglement_series, maximize_blp_many, rhp_series
from .metric import MetricSpec
from .toy import ToyConfig, run_toy
from .walk import WalkParams, is_unbroken, momentum_grid

WALK_STUDIES = ("blp", "rhp", "entanglement")
STUDIES = (*WALK_STUDIES, "toy", "all")
OUTPUT_DIR_ENV = "PTWALK_OUTPUT_DIR"
SERIES_HEADER = ("t", "delta", "N", "g", "I_RHP", "S", "flags")
METRIC_HEADER = ("k", "re_g11", "im_g11", "re_g12", "im_g12", "re_g21", "im_g21", "re_g22", "im_g22")
# Rows of a CSV formatted and written together. It bounds the strings alive
# at once: formatted in one piece, the L = 4001 audit CSVs raised the peak
# RSS of a one-worker wide-lattice run (t_max = 20) by 1.8 MB.
CSV_BLOCK_ROWS = 512

# Reported alongside every cell so outputs are self-describing.
TOLERANCES = {
    "hermitian_metric_spread": 1e-8,
    "blp_metric_spread": 2e-2,
    "distinct_spread_ratio": 1e3,
    "toy_product_flatness": 1e-9,
    "toy_nonproduct_deviation": 1e-3,
}


@dataclass(frozen=True)
class ExperimentConfig(Config):
    """Walk family, sweep grid and bookkeeping for one run."""

    theta1: float = math.pi / 4
    theta2: float = -math.pi / 7
    lattice_size: int = 101
    gamma_factors: tuple[float, ...] = (1.0, 1.2, 1.3)
    metrics: tuple[MetricSpec, ...] = (
        MetricSpec(kind="g1_flat", name="G1"),
        MetricSpec(kind="random_xy", seed=11, name="G2"),
        MetricSpec(kind="random_xy", seed=23, name="G3"),
    )
    t_max: int = 50
    study: str = "all"
    output_dir: str = "results"
    master_seed: int = 2024
    coin_bloch: tuple[float, float, float] = (0.0, 1.0, 0.0)
    anneal: AnnealSchedule = field(default_factory=AnnealSchedule)
    toy: ToyConfig = field(default_factory=ToyConfig)

    def walk_params(self, gamma_factor: float) -> WalkParams:
        return WalkParams(self.theta1, self.theta2, math.log(gamma_factor), self.lattice_size)


def load_config(path) -> "ExperimentConfig":
    """Read a JSON config file; raises ConfigInvalid on parse or field errors."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigInvalid([("config", f"cannot read {path}: {exc}")]) from exc
    except json.JSONDecodeError as exc:
        raise ConfigInvalid([("config", f"not valid JSON: {exc}")]) from exc
    cfg = ExperimentConfig.from_dict(data)
    validate_config(cfg)
    return cfg


def validate_config(cfg: ExperimentConfig) -> dict:
    """Field-level validation; returns per-gamma regime info for reporting."""
    errors = [(name, "must be finite") for name in ("theta1", "theta2") if not math.isfinite(getattr(cfg, name))]
    if cfg.lattice_size < 1 or cfg.lattice_size % 2 == 0:
        errors.append(("lattice_size", f"must be odd and positive, got {cfg.lattice_size}"))
    if not isinstance(cfg.t_max, (int, np.integer)) or isinstance(cfg.t_max, bool):
        errors.append(("t_max", f"must be an integer, got {cfg.t_max!r}"))
    elif cfg.t_max < 1:
        errors.append(("t_max", f"must be >= 1, got {cfg.t_max}"))
    elif cfg.lattice_size < 2 * cfg.t_max + 1:
        errors.append(
            ("lattice_size", f"{cfg.lattice_size} < 2*t_max+1 = {2 * cfg.t_max + 1}")
        )
    if cfg.master_seed < 0:
        errors.append(("master_seed", f"must be >= 0, got {cfg.master_seed}"))
    if cfg.study not in STUDIES:
        errors.append(("study", f"must be one of {STUDIES}, got {cfg.study!r}"))
    if not cfg.gamma_factors:
        errors.append(("gamma_factors", "must not be empty"))
    if any(f <= 0 for f in cfg.gamma_factors):
        errors.append(("gamma_factors", "entries must be positive (they are e^gamma)"))
    if len({f"{f:g}" for f in cfg.gamma_factors}) != len(cfg.gamma_factors):
        errors.append(("gamma_factors", "entries must differ as file stems, formatted with :g"))
    if not cfg.metrics:
        errors.append(("metrics", "must not be empty"))
    if len({m.label for m in cfg.metrics}) != len(cfg.metrics):
        errors.append(("metrics", "labels must be unique"))
    for m in cfg.metrics:
        if m.kind == "random_xy" and not 0 < m.low < m.high < math.inf:
            errors.append(("metrics", f"{m.label}: needs 0 < low < high < inf, got {m.low}, {m.high}"))
        y = np.asarray(m.y, dtype=float) if m.kind == "explicit" else None
        if y is not None and (y.shape != (cfg.lattice_size,) or not np.all(np.isfinite(y) & (y > 0))):
            errors.append(("metrics", f"{m.label}: y needs {cfg.lattice_size} finite entries > 0"))
    if len(cfg.coin_bloch) != 3:
        errors.append(("coin_bloch", f"must have 3 components, got {len(cfg.coin_bloch)}"))
    elif not abs(np.linalg.norm(cfg.coin_bloch) - 1.0) <= 1e-9:
        errors.append(("coin_bloch", "must be a unit vector (pure initial coin state)"))
    if errors:
        raise ConfigInvalid(errors)
    regimes = {}
    for factor in cfg.gamma_factors:
        try:
            regimes[factor] = is_unbroken(cfg.walk_params(factor))
        except ValueError as exc:
            raise ConfigInvalid([("gamma_factors", str(exc))])
    return regimes


def _cell_stem(study: str, factor: float, label: str) -> str:
    return f"{study}__eg{factor:g}__{label}"


def _metric_csv_name(factor: float, label: str) -> str:
    return f"metric__eg{factor:g}__{label}.csv"


def _csv_rows(columns: list) -> str:
    """Rows in csv's default dialect from ``columns``, none of whose fields needs quoting.

    A column is a list of field strings, one per row, set into the rows with
    one extended-slice assignment, or one string that every row repeats,
    folded into the row template.
    """
    row, lists = [""], []
    for j, column in enumerate(columns):
        row[-1] += "," if j else ""
        if isinstance(column, str):
            row[-1] += column
        else:
            lists.append(column)
            row += [None, ""]
    row[-1] += "\r\n"
    fields = row * len(lists[0])
    for i, column in enumerate(lists):
        fields[2 * i + 1 :: len(row)] = column
    return "".join(fields)


def _write_csv(path: Path, header: tuple[str, ...], blocks, comment: str | None = None) -> None:
    """The one CSV writer: an optional '#'-prefixed provenance line, the header, then the row strings of ``blocks``."""
    with open(path, "w", newline="") as fh:
        if comment:
            fh.write(f"# {comment}\n")
        fh.write(",".join(header) + "\r\n")
        for block in blocks:
            fh.write(block)


def _series_rows(series: MeasureSeries) -> str:
    """The CSV rows of a series under ``SERIES_HEADER``, floats written with ``repr``; an unused column is empty."""
    cols = [series.delta, series.blp, series.g, series.rhp, series.entropy]
    values = ["" if arr is None else list(map(repr, np.asarray(arr, float).tolist())) for arr in cols]
    return _csv_rows([list(map(str, series.steps.tolist())), *values, series.flags])


def write_metric_csv(g11, g12, g22, k_column: list[str], path: Path, comment: str | None = None) -> None:
    """Audit export of one metric's real symmetric blocks [[g11, g12], [g12, g22]], given as their (L,) entries.

    One row per momentum holds the four block entries, re and im: g21 is
    g12 and every im is 0.0. ``k_column`` is the momentum column already
    formatted, one string per block, so that metrics on one grid share it.
    Every value is written with ``repr``, in blocks of ``CSV_BLOCK_ROWS`` rows.
    """
    if len(k_column) != len(g11):
        raise ValueError(f"momentum column has {len(k_column)} entries for {len(g11)} blocks")

    def blocks():
        for start in range(0, len(g11), CSV_BLOCK_ROWS):
            stop = start + CSV_BLOCK_ROWS
            a, b, d = (list(map(repr, g[start:stop].tolist())) for g in (g11, g12, g22))
            yield _csv_rows([k_column[start:stop], a, "0.0", b, "0.0", b, "0.0", d, "0.0"])

    _write_csv(path, METRIC_HEADER, blocks(), comment)


def _write_json(path: Path, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _run_cell(
    cfg: ExperimentConfig, spec: MetricSpec, summary: dict, out: Path, series: MeasureSeries, rows: str, started: float
) -> dict:
    """Write one (study, gamma, metric) walk cell: its series CSV and summary JSON.

    ``summary`` holds the cell's identity, its walk's health and its pair's
    stage timings. ``series`` is the cell's measure read from its M(t); a
    BLP cell's is the winning pair's series from the group's lockstep
    search, whose meta holds N_max and the pair. ``rows`` are the series'
    CSV rows (``_series_rows``). Cells with bitwise-equal M(t) share one
    series and its rows, but each writes its own CSV, with its own
    provenance line, and its own JSON. runtime_s counts from ``started``,
    so it holds what the caller timed for the cell first (the series and
    its rows, if this cell made them, or a BLP cell's share of the search),
    and is repeated as ``cell_s`` in ``timings``.
    """
    study, stem = summary["study"], summary["cell"]
    if study == "rhp":
        summary["final_rhp"] = float(series.rhp[-1])
    elif study == "entanglement":
        summary["final_entropy"] = float(series.entropy[-1])
        summary["coin_bloch"] = list(cfg.coin_bloch)
    elif study == "blp":
        summary["n_max"] = series.meta["n_max"]
        summary["best_pair"] = {
            "bloch_rho": series.meta["bloch_rho"],
            "bloch_sigma": series.meta["bloch_sigma"],
        }
        summary["anneal"] = series.meta["schedule"]
    else:
        raise ValueError(f"unknown cell study {study!r}")
    summary["flagged_steps"] = [
        int(t) for t, f in zip(series.steps, series.flags) if f
    ]
    comment = (
        f"cell={stem} master_seed={cfg.master_seed} metric={spec.label} "
        f"metric_seed={spec.seed} t_max={cfg.t_max} tolerances={json.dumps(TOLERANCES)}"
    )
    _write_csv(out / f"{stem}.csv", SERIES_HEADER, [rows], comment)
    summary["runtime_s"] = time.perf_counter() - started
    summary["timings"]["cell_s"] = summary["runtime_s"]
    _write_json(out / f"{stem}.json", summary)
    return summary


def _run_group(cfg: ExperimentConfig, factors: list[float], out_dir: str) -> list[dict]:
    """Run every requested walk study on a group of unbroken gammas, each under every metric of ``cfg``.

    The gammas are taken one at a time. Each gamma's walk is built once, for
    all of its metrics, whose blocks go straight to their audit CSVs and are
    dropped; then one ``bloch_matrix_series`` pass gives the Bloch matrices
    M(t) of that gamma's distinct metrics, and the walk is dropped. Every
    pair sits on the momentum grid of ``cfg.lattice_size``, so the audit
    CSVs share one k column, formatted once per group before any pair is timed.

    Metrics whose axes are bitwise equal have bitwise equal M(t), and each
    class of them is measured once: its series and the series' CSV rows serve
    all of its cells. That is exact, not a tolerance: at gamma = 0 every
    metric's axes are read from S alone, so every metric of e^gamma = 1 is in
    one class. The BLP cells are annealed together, one lockstep search over
    the group's classes. Top-level function so groups can run in a process
    pool; fully determined by its arguments, and a cell's outputs do not
    depend on its group.
    """
    out = Path(out_dir)
    studies = [s for s in WALK_STUDIES if cfg.study in (s, "all")]
    cells = []  # (spec, the summary fields its pair's cells share, its class) per pair
    blochs = []  # M(t) of each class
    k_column = list(map(repr, momentum_grid(cfg.lattice_size).tolist()))
    for factor in factors:
        params = cfg.walk_params(factor)
        started = time.perf_counter()
        ew, g = build_euclidean_walk(params, cfg.metrics)
        # one build serves every metric of the gamma: an even share each
        walk_s = (time.perf_counter() - started) / len(cfg.metrics)
        stages = []
        for i, spec in enumerate(cfg.metrics):
            started = time.perf_counter()
            comment = f"gamma_factor={factor:g} {json.dumps(spec.to_dict())}"
            write_metric_csv(*g[:, i], k_column, out / _metric_csv_name(factor, spec.label), comment)
            stages.append({"walk_s": walk_s, "metric_csv_s": time.perf_counter() - started})
        del g  # only the audit CSVs read the metrics
        first, index = equal_classes(np.stack(axes) for axes in zip(ew.n_x, ew.n_z))
        offset = len(blochs)
        started = time.perf_counter()
        blochs.extend(bloch_matrix_series(ew, cfg.t_max, first))
        # every metric of the pass has the same steps and momenta: an even share each
        bloch_s = (time.perf_counter() - started) / len(cfg.metrics)
        for i, (spec, stage) in enumerate(zip(cfg.metrics, stages)):
            pair = {
                "gamma_factor": factor,
                "gamma": params.gamma,
                "metric": spec.to_dict(),
                "metric_label": spec.label,
                "t_max": cfg.t_max,
                "master_seed": cfg.master_seed,
                "tolerances": TOLERANCES,
                "pseudo_hermiticity_residual": float(ew.pseudo_hermiticity_residual[i]),
                "ep_gap": ew.ep_gap,
                "metric_condition_max": float(ew.metric_condition_max[i]),
                "timings": {**stage, "bloch_s": bloch_s},
            }
            cells.append((spec, pair, offset + index[i]))
        del ew  # the next gamma's walk is built without this one

    measures = {
        "rhp": rhp_series,
        "entanglement": lambda bloch: entanglement_series(bloch, cfg.coin_bloch),
    }
    summaries = []
    for study in studies:
        share = 0.0
        if study == "blp":
            started = time.perf_counter()
            series = maximize_blp_many(blochs, cfg.anneal, cfg.master_seed)
            # the search's wall time, split evenly over the group's BLP cells
            share = (time.perf_counter() - started) / len(cells)
        else:
            series = [None] * len(blochs)
        rows = [None] * len(blochs)
        for spec, pair, c in cells:
            started = time.perf_counter() - share
            if rows[c] is None:
                if series[c] is None:
                    series[c] = measures[study](blochs[c])
                rows[c] = _series_rows(series[c])
            summary = {
                "cell": _cell_stem(study, pair["gamma_factor"], spec.label),
                "status": "ok",
                "study": study,
                **pair,
                "timings": dict(pair["timings"]),
            }
            if study == "blp":
                summary["timings"]["search_s"] = share
            summaries.append(_run_cell(cfg, spec, summary, out, series[c], rows[c], started))
    return summaries


def _run_toy_cell(cfg: ExperimentConfig, out: Path) -> dict:
    started = time.perf_counter()
    result = run_toy(cfg.toy)
    times = list(map(repr, result.times.tolist()))
    for name, curve in result.entropy.items():
        comment = (
            f"cell=toy__{name} variant={result.meta['variant']} "
            f"mixing_strength={cfg.toy.mixing_strength} dt={cfg.toy.dt} entropy_base=2"
        )
        _write_csv(out / f"toy__{name}.csv", ("t", "S"), [_csv_rows([times, list(map(repr, curve.tolist()))])], comment)
    summary = {
        "cell": "toy",
        "status": "ok",
        "study": "toy",
        "toy": cfg.toy.to_dict(),
        "product_defects": result.product_defects,
        "transport_unitarity_residual": result.transport_residuals,
        "frame_condition": result.frame_conditions,
        "max_abs_dev_from_one_bit": {
            name: float(np.abs(curve - 1.0).max()) for name, curve in result.entropy.items()
        },
        "tolerances": TOLERANCES,
        "runtime_s": time.perf_counter() - started,
    }
    _write_json(out / "toy__summary.json", summary)
    return summary


def run(cfg: ExperimentConfig, out_dir=None, threads: int = 1) -> dict:
    """Run the configured studies and return the written manifest.

    The unbroken gammas are dealt round-robin into min(threads, gammas)
    groups, each run by ``_run_group`` on its gammas under every metric, so
    that all metrics of one gamma, whose M(t) may be bitwise equal, share
    one group and its measures; more than one group runs in a pool of worker
    processes.
    """
    regimes = validate_config(cfg)
    out = Path(out_dir if out_dir is not None else cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)

    studies = [s for s in WALK_STUDIES if cfg.study in (s, "all")]
    unbroken = [factor for factor in cfg.gamma_factors if studies and regimes[factor]]
    count = min(max(threads, 1), len(unbroken))
    groups = [unbroken[i::count] for i in range(count)]
    if len(groups) > 1:
        # imported here: a one-group run never needs the process machinery
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=len(groups)) as pool:
            futures = [pool.submit(_run_group, cfg, group, str(out)) for group in groups]
            done = [f.result() for f in futures]
    else:
        done = [_run_group(cfg, group, str(out)) for group in groups]
    by_cell = {summary["cell"]: summary for group in done for summary in group}

    summaries = []
    for study in studies:
        for factor in cfg.gamma_factors:
            for metric in cfg.metrics:
                stem = _cell_stem(study, factor, metric.label)
                summaries.append(
                    by_cell.get(stem)
                    or {
                        "cell": stem,
                        "status": "skipped",
                        "reason": "broken regime: |a(k)| >= 1 somewhere on the grid",
                    }
                )
    # exactly the files this run wrote, never older ones left in the directory
    artifacts = [
        _metric_csv_name(factor, m.label) for group in groups for factor in group for m in cfg.metrics
    ]
    artifacts += [
        f"{s['cell']}{ext}" for s in summaries if s["status"] == "ok" for ext in (".csv", ".json")
    ]
    if cfg.study in ("toy", "all"):
        toy = _run_toy_cell(cfg, out)
        summaries.append(toy)
        artifacts += [f"toy__{name}.csv" for name in toy["max_abs_dev_from_one_bit"]]
        artifacts.append("toy__summary.json")
    from . import __version__  # the package has finished importing by now

    manifest = {
        "config": cfg.to_dict(),
        "versions": {
            "ptwalk": __version__,
            "numpy": np.__version__,
            "python": ".".join(map(str, sys.version_info[:3])),
        },
        "git_commit": _git_commit(),
        "cpu_count": os.cpu_count(),
        "cells": summaries,
        "skipped": [s["cell"] for s in summaries if s.get("status") == "skipped"],
        "artifacts": [
            {"path": rel, "sha256": _sha256(out / rel)} for rel in sorted(artifacts)
        ],
    }
    _write_json(out / "manifest.json", manifest)
    return manifest


def _git_commit(git: Path = Path(__file__).resolve().parents[2] / ".git") -> str:
    """HEAD's commit in the checkout holding the package, from ``.git``; "unknown" outside one."""
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head  # detached
        if (git / head[5:]).is_file():
            return (git / head[5:]).read_text().strip()
        packed = (line.split() for line in (git / "packed-refs").read_text().splitlines())
        return next((fields[0] for fields in packed if fields[1:] == [head[5:]]), "unknown")
    except OSError:
        return "unknown"


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _load_series_column(path: Path, column: str) -> np.ndarray:
    with open(path) as fh:
        reader = csv.DictReader(line for line in fh if not line.startswith("#"))
        return np.array([float(row[column]) for row in reader if row[column] != ""])


def report(in_dir) -> tuple[str, dict]:
    """Cross-metric spread statistics and pass/fail classification for a bundle.

    Only the artifacts the manifest lists are read, so files an earlier run
    left in the same directory never enter a verdict; a listed artifact that
    is absent raises MissingArtifacts, naming it.
    """
    out = Path(in_dir)
    manifest_path = out / "manifest.json"
    if not manifest_path.exists():
        raise MissingArtifacts(f"no manifest.json under {out}")
    manifest = json.loads(manifest_path.read_text())
    cfg = ExperimentConfig.from_dict(manifest["config"])
    listed = {art["path"] for art in manifest["artifacts"]}
    absent = sorted(rel for rel in listed if not (out / rel).is_file())
    if absent:
        raise MissingArtifacts(f"listed in the manifest but absent under {out}: {', '.join(absent)}")

    rows = []
    results: dict = {"studies": {}}

    def spread_rows(study: str, column: str):
        by_factor = {}
        for factor in cfg.gamma_factors:
            curves = []
            for metric in cfg.metrics:
                name = f"{_cell_stem(study, factor, metric.label)}.csv"
                if name in listed:
                    curves.append(_load_series_column(out / name, column))
            if len(curves) >= 2:
                spread = max(
                    float(np.abs(a - b).max()) for i, a in enumerate(curves) for b in curves[i + 1 :]
                )
                by_factor[factor] = spread
        if not by_factor:
            return
        hermitian = by_factor.get(1.0)
        entry = {}
        for factor, spread in sorted(by_factor.items()):
            if factor == 1.0:
                verdict = "PASS" if spread < TOLERANCES["hermitian_metric_spread"] else "FAIL"
            elif hermitian is not None:
                ratio = spread / max(hermitian, TOLERANCES["hermitian_metric_spread"])
                verdict = (
                    "DISTINCT" if ratio > TOLERANCES["distinct_spread_ratio"] else "NOT-DISTINCT"
                )
            else:
                verdict = "n/a"
            rows.append((study, f"e^g={factor:g}", f"max_t spread {spread:.3e}", verdict))
            entry[str(factor)] = {"spread": spread, "verdict": verdict}
        results["studies"][study] = entry

    spread_rows("rhp", "I_RHP")
    spread_rows("entanglement", "S")

    blp_entry = {}
    for factor in cfg.gamma_factors:
        values = []
        for metric in cfg.metrics:
            name = f"{_cell_stem('blp', factor, metric.label)}.json"
            if name in listed:
                values.append(json.loads((out / name).read_text())["n_max"])
        if len(values) >= 2:
            spread = max(values) - min(values)
            verdict = "PASS" if spread <= TOLERANCES["blp_metric_spread"] else "FAIL"
            rows.append(("blp", f"e^g={factor:g}", f"N_max spread {spread:.3e}", verdict))
            blp_entry[str(factor)] = {"spread": spread, "verdict": verdict, "values": values}
    if blp_entry:
        results["studies"]["blp"] = blp_entry

    if "toy__summary.json" in listed:
        devs = json.loads((out / "toy__summary.json").read_text())["max_abs_dev_from_one_bit"]
        toy_entry = {}
        for name, dev in devs.items():
            if name.startswith("product"):
                verdict = "PASS" if dev <= TOLERANCES["toy_product_flatness"] else "FAIL"
            else:
                verdict = (
                    "DISTINCT" if dev > TOLERANCES["toy_nonproduct_deviation"] else "NOT-DISTINCT"
                )
            rows.append(("toy", name, f"max |S-1| = {dev:.3e}", verdict))
            toy_entry[name] = {"deviation": dev, "verdict": verdict}
        results["studies"]["toy"] = toy_entry

    if not rows:
        raise MissingArtifacts(f"manifest present but no study artifacts found under {out}")
    if manifest.get("skipped"):
        for cell in manifest["skipped"]:
            rows.append(("skipped", cell, "broken regime", "SKIPPED"))
        results["skipped"] = manifest["skipped"]

    width = [max(len(str(r[i])) for r in rows) for i in range(4)]
    lines = [
        "  ".join(str(col).ljust(width[i]) for i, col in enumerate(row)) for row in rows
    ]
    return "\n".join(lines), results
