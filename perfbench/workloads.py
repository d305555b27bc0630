"""Workload definitions: the ptwalk configs each benchmark workload runs.

A workload is a list of ``ExperimentConfig`` objects, each passed to one
``ptwalk.experiments.run`` call, plus the worker count for those calls.
The workload seed picks one of ``INPUT_SETS`` input sets; an input set fixes
the annealer's master seed and the seeds of the two ``random_xy`` metrics.
The set is bounded so that every input the benchmark can generate has its
values recorded in ``reference.json`` (see ``record_reference.py``).
The default seed gives the program's own defaults: 2024, 11 and 23.
"""

from dataclasses import replace

from ptwalk.experiments import ExperimentConfig
from ptwalk.measures import AnnealSchedule
from ptwalk.metric import MetricSpec

DEFAULT_SEED = 2024
INPUT_SETS = 16

# name -> (why, workers); the "why" lines are repeated in BENCHMARK.json.
WORKLOADS = {
    "paper_grid": (
        "the paper's default sweep on one worker; the BLP annealer dominates, so "
        "measures-layer changes show here",
        1,
    ),
    "long_horizon": (
        "L=1201, t_max=600, RHP and entropy only; channel series and trajectories "
        "dominate and the annealer is bypassed",
        1,
    ),
    "wide_lattice": (
        "L=4001, t_max=20, RHP on two workers; per-k walk and metric loops and "
        "serial audit-CSV writes dominate",
        2,
    ),
}

# Small sizes of the same workloads, used by the benchmark's own tests.
SMOKE_SCHEDULE = AnnealSchedule(cooling_factor=0.5, steps_per_temperature=10, restarts=2)


def input_set(seed: int) -> tuple[int, int, int, int]:
    """(index, master_seed, G2 seed, G3 seed) for a workload seed."""
    index = (seed - DEFAULT_SEED) % INPUT_SETS
    return index, DEFAULT_SEED + index, 11 + 1000 * index, 23 + 1000 * index


def configs(name: str, seed: int, smoke: bool = False) -> list[ExperimentConfig]:
    """The configs of one workload iteration, one per ``run`` call."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose from {sorted(WORKLOADS)}")
    _, master, g2, g3 = input_set(seed)
    metrics = (
        MetricSpec(kind="g1_flat", name="G1"),
        MetricSpec(kind="random_xy", seed=g2, name="G2"),
        MetricSpec(kind="random_xy", seed=g3, name="G3"),
    )
    base = ExperimentConfig(metrics=metrics, master_seed=master)
    if name == "paper_grid":
        if smoke:
            return [replace(base, lattice_size=21, t_max=10, anneal=SMOKE_SCHEDULE)]
        return [base]
    if name == "long_horizon":
        size = (41, 20) if smoke else (1201, 600)
        return [
            ExperimentConfig(
                lattice_size=size[0],
                t_max=size[1],
                gamma_factors=(1.0, 1.3),
                metrics=metrics[:2],
                study=study,
                master_seed=master,
            )
            for study in ("rhp", "entanglement")
        ]
    size = (61, 5) if smoke else (4001, 20)
    return [
        ExperimentConfig(
            lattice_size=size[0],
            t_max=size[1],
            gamma_factors=(1.0, 1.1, 1.2, 1.3),
            metrics=metrics,
            study="rhp",
            master_seed=master,
        )
    ]


def blp_objective_evals(schedule: AnnealSchedule) -> int:
    """Objective evaluations ``maximize_blp`` makes for one cell under a schedule.

    Three axis pairs are scored to pick the start, the best is scored again,
    and each restart scores its start and then one proposal per step at each
    temperature above the floor.
    """
    temperatures = 0
    temperature = schedule.initial_temperature
    while temperature > schedule.temperature_floor:
        temperatures += 1
        temperature *= schedule.cooling_factor
    return 3 + 1 + schedule.restarts * (1 + temperatures * schedule.steps_per_temperature)

