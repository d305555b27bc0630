"""Config-driven experiment runner and reporting.

A run sweeps the cartesian grid of non-Hermiticity factors e^gamma and
metric choices for the selected studies (information backflow, CP
indivisibility, coin-position entanglement, and the two-qubit toy), writing
one CSV series and one JSON summary per cell plus a manifest of content
hashes. Cells whose gamma lies beyond the exceptional point are skipped and
reported, not fatal. Given the same config and master seed, the CSV outputs
are byte-identical across reruns and thread counts; summary JSONs are
deterministic apart from their wall-clock runtime field.
"""

import csv
import hashlib
import json
import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .channel import build_euclidean_walk
from .errors import ConfigInvalid, MissingArtifacts
from .measures import (
    AnnealSchedule,
    bloch_state,
    entanglement_series,
    maximize_blp,
    rhp_series,
)
from .metric import MetricSpec, build_metric, write_metric_csv
from .toy import ToyConfig, run_toy
from .walk import WalkParams, is_unbroken

STUDIES = ("blp", "rhp", "entanglement", "toy", "all")
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
class ExperimentConfig:
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

    def to_dict(self) -> dict:
        return {
            "theta1": self.theta1,
            "theta2": self.theta2,
            "lattice_size": self.lattice_size,
            "gamma_factors": list(self.gamma_factors),
            "metrics": [m.to_dict() for m in self.metrics],
            "t_max": self.t_max,
            "study": self.study,
            "output_dir": self.output_dir,
            "master_seed": self.master_seed,
            "coin_bloch": list(self.coin_bloch),
            "anneal": self.anneal.to_dict(),
            "toy": self.toy.to_dict(),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        kwargs = dict(d)
        errors = []
        try:
            if "metrics" in kwargs:
                kwargs["metrics"] = tuple(MetricSpec.from_dict(m) for m in kwargs["metrics"])
            if "anneal" in kwargs:
                kwargs["anneal"] = AnnealSchedule.from_dict(kwargs["anneal"])
            if "toy" in kwargs:
                kwargs["toy"] = ToyConfig.from_dict(kwargs["toy"])
            if "gamma_factors" in kwargs:
                kwargs["gamma_factors"] = tuple(kwargs["gamma_factors"])
            if "coin_bloch" in kwargs:
                kwargs["coin_bloch"] = tuple(kwargs["coin_bloch"])
            unknown = set(kwargs) - {f for f in cls.__dataclass_fields__}
            if unknown:
                errors.append(("config", f"unknown fields {sorted(unknown)}"))
        except (ValueError, TypeError, KeyError) as exc:
            errors.append(("config", str(exc)))
        if errors:
            raise ConfigInvalid(errors)
        return cls(**kwargs)


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
    errors = []
    if cfg.lattice_size < 1 or cfg.lattice_size % 2 == 0:
        errors.append(("lattice_size", f"must be odd and positive, got {cfg.lattice_size}"))
    if cfg.t_max < 1:
        errors.append(("t_max", f"must be >= 1, got {cfg.t_max}"))
    elif cfg.lattice_size < 2 * cfg.t_max + 1:
        errors.append(
            ("lattice_size", f"{cfg.lattice_size} < 2*t_max+1 = {2 * cfg.t_max + 1}")
        )
    if cfg.study not in STUDIES:
        errors.append(("study", f"must be one of {STUDIES}, got {cfg.study!r}"))
    if not cfg.gamma_factors:
        errors.append(("gamma_factors", "must not be empty"))
    if any(f <= 0 for f in cfg.gamma_factors):
        errors.append(("gamma_factors", "entries must be positive (they are e^gamma)"))
    if not cfg.metrics:
        errors.append(("metrics", "must not be empty"))
    if len({m.label for m in cfg.metrics}) != len(cfg.metrics):
        errors.append(("metrics", "labels must be unique"))
    if abs(np.linalg.norm(cfg.coin_bloch) - 1.0) > 1e-9:
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


def _write_json(path: Path, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _run_cell(cfg_dict: dict, study: str, factor: float, metric_dict: dict, out_dir: str) -> dict:
    """Execute one (study, gamma, metric) cell and write its artifacts.

    Top-level function so cells can run in a process pool; fully determined
    by its arguments.
    """
    cfg = ExperimentConfig.from_dict(cfg_dict)
    spec = MetricSpec.from_dict(metric_dict)
    out = Path(out_dir)
    stem = _cell_stem(study, factor, spec.label)
    started = time.perf_counter()
    params = cfg.walk_params(factor)
    if not is_unbroken(params):
        return {
            "cell": stem,
            "status": "skipped",
            "reason": "broken regime: |a(k)| >= 1 somewhere on the grid",
        }
    ew = build_euclidean_walk(params, spec)
    summary = {
        "cell": stem,
        "status": "ok",
        "study": study,
        "gamma_factor": factor,
        "gamma": params.gamma,
        "metric": spec.to_dict(),
        "metric_label": spec.label,
        "t_max": cfg.t_max,
        "master_seed": cfg.master_seed,
        "tolerances": TOLERANCES,
        "unitarity_residual": ew.unitarity_residual,
        "ep_gap": ew.ep_gap,
        "metric_condition_max": ew.metric_condition_max,
    }
    if study == "rhp":
        series = rhp_series(ew, cfg.t_max)
        summary["final_rhp"] = float(series.rhp[-1])
    elif study == "entanglement":
        series = entanglement_series(ew, bloch_state(cfg.coin_bloch), cfg.t_max)
        summary["final_entropy"] = float(series.entropy[-1])
        summary["coin_bloch"] = list(cfg.coin_bloch)
    elif study == "blp":
        schedule = AnnealSchedule.from_dict({**cfg.anneal.to_dict(), "seed": cfg.master_seed})
        _, n_max, series = maximize_blp(ew, schedule, cfg.t_max)
        summary["n_max"] = n_max
        summary["best_pair"] = {
            "bloch_rho": series.meta["bloch_rho"],
            "bloch_sigma": series.meta["bloch_sigma"],
        }
        summary["anneal"] = schedule.to_dict()
    else:
        raise ValueError(f"unknown cell study {study!r}")
    summary["flagged_steps"] = [
        int(t) for t, f in zip(series.steps, series.flags) if f
    ]
    comment = (
        f"cell={stem} master_seed={cfg.master_seed} metric={spec.label} "
        f"metric_seed={spec.seed} t_max={cfg.t_max} tolerances={json.dumps(TOLERANCES)}"
    )
    series.write_csv(out / f"{stem}.csv", comment=comment)
    summary["runtime_s"] = time.perf_counter() - started
    _write_json(out / f"{stem}.json", summary)
    return summary


def _run_toy_cell(cfg: ExperimentConfig, out: Path) -> dict:
    started = time.perf_counter()
    result = run_toy(cfg.toy)
    for name, curve in result.entropy.items():
        with open(out / f"toy__{name}.csv", "w", newline="") as fh:
            fh.write(
                f"# cell=toy__{name} variant={cfg.toy.variant} "
                f"mixing_strength={cfg.toy.mixing_strength} dt={cfg.toy.dt} entropy_base=2\n"
            )
            writer = csv.writer(fh)
            writer.writerow(["t", "S"])
            for t, s in zip(result.times, curve):
                writer.writerow([repr(float(t)), repr(float(s))])
    summary = {
        "cell": "toy",
        "status": "ok",
        "study": "toy",
        "toy": cfg.toy.to_dict(),
        "product_defects": result.product_defects,
        "max_abs_dev_from_one_bit": {
            name: float(np.abs(curve - 1.0).max()) for name, curve in result.entropy.items()
        },
        "tolerances": TOLERANCES,
        "runtime_s": time.perf_counter() - started,
    }
    _write_json(out / "toy__summary.json", summary)
    return summary


def run(cfg: ExperimentConfig, out_dir=None, threads: int = 1) -> dict:
    """Run the configured studies and return the written manifest."""
    validate_config(cfg)
    out = Path(out_dir if out_dir is not None else cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)

    studies = ["blp", "rhp", "entanglement", "toy"] if cfg.study == "all" else [cfg.study]
    cells = [
        (study, factor, metric)
        for study in studies
        if study != "toy"
        for factor in cfg.gamma_factors
        for metric in cfg.metrics
    ]

    summaries = []
    cfg_dict = cfg.to_dict()
    if threads > 1 and cells:
        with ProcessPoolExecutor(max_workers=threads) as pool:
            futures = [
                pool.submit(_run_cell, cfg_dict, study, factor, metric.to_dict(), str(out))
                for study, factor, metric in cells
            ]
            summaries = [f.result() for f in futures]
    else:
        summaries = [
            _run_cell(cfg_dict, study, factor, metric.to_dict(), str(out))
            for study, factor, metric in cells
        ]
    if "toy" in studies:
        summaries.append(_run_toy_cell(cfg, out))

    # Audit export of every constructed metric, once per (gamma, metric);
    # pointless for toy-only runs, which never build walk metrics.
    for factor in cfg.gamma_factors if cells else ():
        params = cfg.walk_params(factor)
        if not is_unbroken(params):
            continue
        for metric in cfg.metrics:
            write_metric_csv(
                build_metric(params, metric),
                out / f"metric__eg{factor:g}__{metric.label}.csv",
                comment=f"gamma_factor={factor:g} {json.dumps(metric.to_dict())}",
            )

    artifacts = sorted(
        str(p.relative_to(out)) for p in out.iterdir() if p.suffix in (".csv", ".json") and p.name != "manifest.json"
    )
    manifest = {
        "config": cfg.to_dict(),
        "cells": summaries,
        "skipped": [s["cell"] for s in summaries if s.get("status") == "skipped"],
        "artifacts": [
            {"path": rel, "sha256": _sha256(out / rel)} for rel in artifacts
        ],
    }
    _write_json(out / "manifest.json", manifest)
    return manifest


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    digest.update(path.read_bytes())
    return digest.hexdigest()


def _load_series_column(path: Path, column: str) -> np.ndarray:
    with open(path) as fh:
        reader = csv.DictReader(line for line in fh if not line.startswith("#"))
        return np.array([float(row[column]) for row in reader if row[column] != ""])


def report(in_dir) -> tuple[str, dict]:
    """Cross-metric spread statistics and pass/fail classification for a bundle."""
    out = Path(in_dir)
    manifest_path = out / "manifest.json"
    if not manifest_path.exists():
        raise MissingArtifacts(f"no manifest.json under {out}")
    with open(manifest_path) as fh:
        manifest = json.load(fh)
    cfg = ExperimentConfig.from_dict(manifest["config"])

    rows = []
    results: dict = {"studies": {}}

    def spread_rows(study: str, column: str):
        by_factor = {}
        for factor in cfg.gamma_factors:
            curves = []
            for metric in cfg.metrics:
                path = out / f"{_cell_stem(study, factor, metric.label)}.csv"
                if path.exists():
                    curves.append(_load_series_column(path, column))
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
                ratio = spread / max(hermitian, 1e-300)
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
            path = out / f"{_cell_stem('blp', factor, metric.label)}.json"
            if path.exists():
                with open(path) as fh:
                    values.append(json.load(fh)["n_max"])
        if len(values) >= 2:
            spread = max(values) - min(values)
            verdict = "PASS" if spread <= TOLERANCES["blp_metric_spread"] else "FAIL"
            rows.append(("blp", f"e^g={factor:g}", f"N_max spread {spread:.3e}", verdict))
            blp_entry[str(factor)] = {"spread": spread, "verdict": verdict, "values": values}
    if blp_entry:
        results["studies"]["blp"] = blp_entry

    toy_path = out / "toy__summary.json"
    if toy_path.exists():
        with open(toy_path) as fh:
            toy_summary = json.load(fh)
        devs = toy_summary["max_abs_dev_from_one_bit"]
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
