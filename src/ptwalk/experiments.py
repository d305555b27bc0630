"""Config-driven experiment runner and reporting.

A run sweeps the cartesian grid of non-Hermiticity factors e^gamma and
metric choices for the selected studies (information backflow, CP
indivisibility, coin-position entanglement, and the two-qubit toy), writing
one CSV series and one JSON summary per cell, one ``.npy`` audit of each
(gamma, metric) pair's blocks, and a manifest of content hashes. The unit
of work is one gamma under every metric: its walk is built once for all of
its metrics and studies, and the Bloch matrices M(t)
come from one pass over its shared angles, one M(t) per class of metrics
with bitwise-equal axes. Each study measures every class of a run in one
pass, whose wall time is split evenly over the study's cells: at gamma = 0
every metric's axes come from S alone, so the metrics of e^gamma = 1 are
one class and share one series and one formatted set of CSV rows, while
each cell still writes its own CSV and JSON.
Cells whose gamma lies beyond the exceptional point are skipped and
reported, not fatal. Every file of a run is written by one function
(``_put``), which hashes the bytes it writes and records them for the
manifest, so the manifest lists exactly the files the run wrote; the format
helpers (``_csv_bytes``, ``_json_bytes``, ``_audit_bytes``) return bytes and
open nothing. Given the same config and master seed, the CSV and ``.npy``
outputs are byte-identical across reruns and worker counts; summary JSONs
are deterministic apart from their wall-clock ``timings`` field.
"""

import csv
import hashlib
import io
import json
import math
import os
import sys
import time
from dataclasses import dataclass, field
from functools import partial
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
    ExperimentConfig.from_dict(cfg.to_dict())  # the types, by the codec that writes and reads the manifest
    errors = [(name, "must be finite") for name in ("theta1", "theta2") if not math.isfinite(getattr(cfg, name))]
    if cfg.lattice_size < 1 or cfg.lattice_size % 2 == 0:
        errors.append(("lattice_size", f"must be odd and positive, got {cfg.lattice_size}"))
    if cfg.t_max < 1:
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
    if not abs(np.linalg.norm(cfg.coin_bloch) - 1.0) <= 1e-12:  # no looser than the measures' own checks
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


def _csv_rows(columns: list[list[str]]) -> str:
    """Rows in csv's default dialect from ``columns``, lists of field strings, one per row, none of which needs quoting."""
    row = [None, ","] * len(columns)
    row[-1] = "\r\n"
    fields = row * len(columns[0])
    for i, column in enumerate(columns):
        fields[2 * i :: len(row)] = column
    return "".join(fields)


def _csv_bytes(header: tuple[str, ...], body: str, comment: str | None = None) -> bytes:
    """A CSV file: an optional '#'-prefixed provenance line, the header, then the row strings ``body``."""
    return ((f"# {comment}\n" if comment else "") + ",".join(header) + "\r\n" + body).encode()


def _series_rows(series: MeasureSeries, columns: tuple[str, ...]) -> tuple[tuple[str, ...], str]:
    """The CSV header ``t, *columns`` and rows of a series, floats written with ``repr``.

    A column is one of ``delta, N, g, I_RHP, S``, a float field of the
    series, or ``flags``, its notes as they are.
    """
    held = {"delta": series.delta, "N": series.blp, "g": series.g, "I_RHP": series.rhp, "S": series.entropy}
    values = [series.flags if c == "flags" else list(map(repr, np.asarray(held[c], float).tolist())) for c in columns]
    return ("t", *columns), _csv_rows([list(map(str, range(len(series.flags)))), *values])


def _audit_bytes(g11, g12, g22, k) -> bytes:
    """Audit export of one metric's real symmetric blocks [[g11, g12], [g12, g22]], given as their (L,) entries.

    The file is one ``np.save`` of a C-order (L, 4) float64 array whose
    columns are the momenta ``k`` and the block's three entries, bit for
    bit; ``np.load(path, allow_pickle=False)`` reads it back.
    """
    if len(k) != len(g11):
        raise ValueError(f"momentum column has {len(k)} entries for {len(g11)} blocks")
    buffer = io.BytesIO()
    np.save(buffer, np.stack([k, g11, g12, g22], axis=1, dtype=float), allow_pickle=False)
    return buffer.getvalue()


def _json_bytes(payload: dict) -> bytes:
    return (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode()


def _put(out: Path, name: str, data: bytes, written: dict) -> None:
    """The one write site of a run: ``data`` to ``out / name``, and its sha256 to ``written[name]``."""
    (out / name).write_bytes(data)
    written[name] = hashlib.sha256(data).hexdigest()


def _search_blp(cfg: ExperimentConfig, blochs: list, threads: int) -> list[MeasureSeries]:
    """``maximize_blp_many`` of the classes in min(threads, classes) contiguous chunks, searched at once: the first
    here, each other one in a worker process. A class's result does not depend on its chunk, so neither do the bits."""
    n = min(threads, len(blochs))
    if n == 1:
        return maximize_blp_many(blochs, cfg.anneal, cfg.master_seed)
    from concurrent.futures import ProcessPoolExecutor  # imported here: only this search needs the pool

    first, *rest = np.array_split(np.asarray(blochs), n)
    with ProcessPoolExecutor(max_workers=n - 1) as pool:
        searched = pool.map(maximize_blp_many, rest, [cfg.anneal] * (n - 1), [cfg.master_seed] * (n - 1))
        return maximize_blp_many(first, cfg.anneal, cfg.master_seed) + [series for chunk in searched for series in chunk]


# Per walk study: the pass that measures every class of a run at once, given its
# worker count, the columns of a cell's CSV after t, and the fields a cell's JSON
# keeps of its class's series. Only RHP steps are ever flagged in a run: every
# BLP step is clean, and validation refuses the impure coin that entanglement flags.
_PASSES = {
    "blp": (
        _search_blp,
        ("delta", "N"),
        lambda cfg, series: {
            "n_max": series.meta["n_max"],
            "best_pair": {"bloch_rho": series.meta["bloch_rho"], "bloch_sigma": series.meta["bloch_sigma"]},
            "anneal": series.meta["schedule"],
        },
    ),
    "rhp": (
        lambda cfg, blochs, threads: [rhp_series(bloch) for bloch in blochs],
        ("g", "I_RHP", "flags"),
        lambda cfg, series: {
            "final_rhp": float(series.rhp[-1]),
            "flagged_steps": [t for t, f in enumerate(series.flags) if f],
        },
    ),
    "entanglement": (
        lambda cfg, blochs, threads: [entanglement_series(bloch, cfg.coin_bloch) for bloch in blochs],
        ("S",),
        lambda cfg, series: {"final_entropy": float(series.entropy[-1]), "coin_bloch": list(cfg.coin_bloch)},
    ),
}


def _run_cell(cfg: ExperimentConfig, spec: MetricSpec, summary: dict, put, rows: tuple, started: float) -> dict:
    """Write one (study, gamma, metric) walk cell: its series CSV and summary JSON, each by ``put``, the run's ``_put``.

    ``summary`` holds every field of the cell's JSON but ``timings.cell_s``:
    its identity, its walk's health, its pair's stage timings and what its
    study keeps of its class's series. ``rows`` are that series' CSV header
    and rows (``_series_rows``). Cells of one class share the rows, but each
    writes its own CSV, with its own provenance line, and its own JSON. The
    ``cell_s`` of ``timings`` counts from ``started``, so it holds what the
    caller timed for the cell first: its share of its study's pass.
    """
    stem = summary["cell"]
    comment = (
        f"cell={stem} master_seed={cfg.master_seed} metric={spec.label} "
        f"metric_seed={spec.seed} t_max={cfg.t_max} tolerances={json.dumps(TOLERANCES)}"
    )
    header, body = rows
    put(f"{stem}.csv", _csv_bytes(header, body, comment))
    summary["timings"]["cell_s"] = time.perf_counter() - started
    put(f"{stem}.json", _json_bytes(summary))
    return summary


def _run_group(cfg: ExperimentConfig, factors: list[float], put, threads: int) -> list[dict]:
    """Run every requested walk study on the unbroken gammas ``factors``, each under every metric of ``cfg``.

    The gammas are taken one at a time. Each gamma's walk is built once, for
    all of its metrics, whose blocks go straight to their audits and are
    dropped; then one ``bloch_matrix_series`` pass gives the Bloch matrices
    M(t) of that gamma's distinct metrics, and the walk is dropped.

    Metrics whose axes are bitwise equal have bitwise equal M(t), and each
    class of them is measured once: its series and the series' CSV rows serve
    all of its cells. That is exact, not a tolerance: at gamma = 0 every
    metric's axes are read from S alone, so every metric of e^gamma = 1 is in
    one class. Each study measures all of the classes in one pass of
    ``_PASSES``, and the wall time of the pass and of formatting its rows is
    split evenly over the study's cells. Everything runs in the calling
    process but the BLP search, which ``_search_blp`` spreads over up to
    ``threads`` processes. Every file is written by ``put``, the run's ``_put``.
    """
    studies = [s for s in WALK_STUDIES if cfg.study in (s, "all")]
    cells = []  # (spec, the summary fields its pair's cells share, its class) per pair
    blochs = []  # M(t) of each class
    k = momentum_grid(cfg.lattice_size)
    for factor in factors:
        params = cfg.walk_params(factor)
        started = time.perf_counter()
        ew, g = build_euclidean_walk(params, cfg.metrics)
        # one build serves every metric of the gamma: an even share each
        walk_s = (time.perf_counter() - started) / len(cfg.metrics)
        stages = []
        for i, spec in enumerate(cfg.metrics):
            started = time.perf_counter()
            put(f"metric__eg{factor:g}__{spec.label}.npy", _audit_bytes(*g[:, i], k))
            stages.append({"walk_s": walk_s, "audit_s": time.perf_counter() - started})
        del g  # only the audits read the metrics
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

    summaries = []
    for study in studies:
        measure, columns, fields = _PASSES[study]
        started = time.perf_counter()
        done = [(_series_rows(series, columns), fields(cfg, series)) for series in measure(cfg, blochs, threads)]
        share = (time.perf_counter() - started) / len(cells)
        for spec, pair, c in cells:
            started = time.perf_counter() - share
            rows, held = done[c]
            summary = {
                "cell": _cell_stem(study, pair["gamma_factor"], spec.label),
                "status": "ok",
                "study": study,
                **pair,
                **held,
                "timings": dict(pair["timings"]),
            }
            if study == "blp":
                summary["timings"]["search_s"] = share
            summaries.append(_run_cell(cfg, spec, summary, put, rows, started))
    return summaries


def _run_toy_cell(cfg: ExperimentConfig, put) -> dict:
    started = time.perf_counter()
    result = run_toy(cfg.toy)
    times = list(map(repr, result.times.tolist()))
    for name, curve in result.entropy.items():
        comment = (
            f"cell=toy__{name} variant={result.meta['variant']} "
            f"mixing_strength={cfg.toy.mixing_strength} dt={cfg.toy.dt} entropy_base=2"
        )
        body = _csv_rows([times, list(map(repr, curve.tolist()))])
        put(f"toy__{name}.csv", _csv_bytes(("t", "S"), body, comment))
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
        "timings": {"cell_s": time.perf_counter() - started},
    }
    put("toy__summary.json", _json_bytes(summary))
    return summary


def run(cfg: ExperimentConfig, out_dir=None, threads: int = 1) -> dict:
    """Run the configured studies and return the written manifest.

    One ``_run_group`` call runs every unbroken gamma under every metric in
    this process. Only the BLP search, the one stage that pays for more
    processes, runs on up to ``threads``: this one and threads - 1 workers.
    Every other stage is a few numpy calls, for which a pool only adds its
    start-up. ``threads`` below 1 raises ConfigInvalid before any file is written.
    """
    regimes = validate_config(cfg)
    if threads < 1:
        raise ConfigInvalid([("threads", f"must be >= 1, got {threads}")])
    out = Path(out_dir if out_dir is not None else cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)

    studies = [s for s in WALK_STUDIES if cfg.study in (s, "all")]
    unbroken = [factor for factor in cfg.gamma_factors if studies and regimes[factor]]
    written = {}  # the sha256 of every file this run writes, by name; older files in the directory are never listed
    put = partial(_put, out, written=written)
    by_cell = {s["cell"]: s for s in (_run_group(cfg, unbroken, put, threads) if unbroken else [])}

    skipped = {"status": "skipped", "reason": "broken regime: |a(k)| >= 1 somewhere on the grid"}
    stems = [_cell_stem(s, factor, m.label) for s in studies for factor in cfg.gamma_factors for m in cfg.metrics]
    summaries = [by_cell.get(stem) or {"cell": stem, **skipped} for stem in stems]
    if cfg.study in ("toy", "all"):
        summaries.append(_run_toy_cell(cfg, put))
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
        "artifacts": [{"path": name, "sha256": written[name]} for name in sorted(written)],
    }
    _put(out, "manifest.json", _json_bytes(manifest), {})
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


def _load_series_column(path: Path, column: str, steps: int) -> np.ndarray:
    """``column`` of a series CSV, one float per row; MissingArtifacts names the file and the row of an empty or
    non-numeric value, and a file whose row count is not ``steps``."""
    with open(path, newline="") as fh:
        values = [row.get(column) for row in csv.DictReader(line for line in fh if not line.startswith("#"))]
    if len(values) != steps:
        raise MissingArtifacts(f"{path.name} holds {len(values)} rows, not t_max + 1 = {steps}")
    for t, value in enumerate(values):
        try:
            values[t] = float(value)
        except (TypeError, ValueError):
            raise MissingArtifacts(f"{path.name}, row t={t}: {column} is {value!r}, not a number") from None
    return np.array(values)


def report(in_dir) -> tuple[str, dict]:
    """Cross-metric spread statistics and pass/fail classification for a bundle.

    Only the artifacts the manifest lists are read, so files an earlier run
    left in the same directory never enter a verdict; a listed artifact that
    is absent raises MissingArtifacts, naming it, and so does a series CSV
    with a value that is not a number or a row count other than t_max + 1.
    The BLP N_max values and the toy's deviations come from the manifest's
    ``cells``, so the series CSVs are the only other files opened.
    """
    out = Path(in_dir)
    manifest_path = out / "manifest.json"
    if not manifest_path.exists():
        raise MissingArtifacts(f"no manifest.json under {out}")
    manifest = json.loads(manifest_path.read_text())
    cfg = ExperimentConfig.from_dict(manifest["config"])
    cells = {cell["cell"]: cell for cell in manifest["cells"]}
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
                    curves.append(_load_series_column(out / name, column, cfg.t_max + 1))
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
            stem = _cell_stem("blp", factor, metric.label)
            if f"{stem}.json" in listed:
                values.append(cells[stem]["n_max"])
        if len(values) >= 2:
            spread = max(values) - min(values)
            verdict = "PASS" if spread <= TOLERANCES["blp_metric_spread"] else "FAIL"
            rows.append(("blp", f"e^g={factor:g}", f"N_max spread {spread:.3e}", verdict))
            blp_entry[str(factor)] = {"spread": spread, "verdict": verdict, "values": values}
    if blp_entry:
        results["studies"]["blp"] = blp_entry

    if "toy__summary.json" in listed:
        devs = cells["toy"]["max_abs_dev_from_one_bit"]
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
