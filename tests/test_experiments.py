import dataclasses
import json
import math
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ptwalk import __version__, ConfigInvalid, ExperimentConfig, MissingArtifacts, is_unbroken, load_config, report, run
from ptwalk.cli import main
from ptwalk.experiments import validate_config
from ptwalk.measures import AnnealSchedule
from ptwalk.metric import MetricSpec
from ptwalk.toy import FRAME_CONDITION_MAX, ToyConfig, run_toy


def tiny_config(out_dir, study="all"):
    return ExperimentConfig(
        lattice_size=21,
        gamma_factors=(1.0, 1.2),
        metrics=(
            MetricSpec(kind="g1_flat", name="G1"),
            MetricSpec(kind="random_xy", seed=11, name="G2"),
        ),
        t_max=8,
        study=study,
        output_dir=str(out_dir),
        master_seed=5,
        anneal=AnnealSchedule(
            initial_temperature=0.05,
            cooling_factor=0.7,
            steps_per_temperature=10,
            proposal_stddev=0.3,
            restarts=2,
            temperature_floor=5e-3,
        ),
        toy=ToyConfig(t_max=1.0, dt=0.1),
    )


def test_default_config_is_valid():
    cfg = ExperimentConfig()
    regimes = validate_config(cfg)
    assert regimes[1.0] and regimes[1.2] and regimes[1.3]


def test_config_roundtrip(tmp_path):
    cfg = tiny_config(tmp_path)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg.to_dict()))
    back = load_config(path)
    assert back == cfg


def test_config_validation_messages():
    with pytest.raises(ConfigInvalid) as err:
        validate_config(ExperimentConfig(lattice_size=20))
    assert any(field == "lattice_size" for field, _ in err.value.errors)
    with pytest.raises(ConfigInvalid):
        validate_config(ExperimentConfig(lattice_size=21, t_max=50))
    with pytest.raises(ConfigInvalid):
        validate_config(ExperimentConfig(study="everything"))
    with pytest.raises(ConfigInvalid):
        validate_config(ExperimentConfig(gamma_factors=()))
    with pytest.raises(ConfigInvalid):
        load_config("/nonexistent/config.json")
    with pytest.raises(ConfigInvalid):
        ExperimentConfig.from_dict({"lattice_dimension": 3})


@pytest.mark.parametrize(
    "field, value",
    [
        ("coin_bloch", [1.0, 0.0]),
        ("t_max", 5.5),
        ("gamma_factors", [1.2, 1.2000001]),
        ("metrics", [{"kind": "random_xy", "seed": 1, "low": -1.0, "high": 2.0}]),
        ("metrics", [{"kind": "explicit", "y": [-1.0] * 21}]),
        ("metrics", [{"kind": "explicit", "y": [1.0] * 5}]),
        ("toy", {"dt": 0.0}),
        ("toy", {"dt": -0.1}),
        ("toy", {"t_max": -1.0}),
        ("toy", {"weights_a2": [0.5, 0.0]}),
        ("toy", {"variant": "complex"}),
        # misspelt keys and mistyped values, refused by the codec
        ("metrics", [{"kind": "random_xy", "seed": 3, "hihg": 0.5}]),
        ("gamma_factors", ["1.2"]),
        ("theta1", "x"),
        ("lattice_size", 101.0),
        ("metrics", [{"kind": "random_xy", "seed": "a"}]),
        ("anneal", {"restarts": 2.5}),
        ("metrics", ["G1"]),
        ("toy", {"mixing_strength": "a"}),
        # negative seeds and a metric name that is no file stem
        ("master_seed", -1),
        ("metrics", [{"kind": "random_xy", "seed": -3}]),
        ("metrics", [{"kind": "g1_flat", "name": "a/b"}]),
        # the search's seed is the run's master_seed; a schedule holds none
        ("anneal", {"seed": 7}),
        # a valid explicit metric but for its x weight, which no longer exists
        ("metrics", [{"kind": "explicit", "x": [1.0] * 21, "y": [1.0] * 21}]),
        # non-finite values, which JSON carries as NaN and Infinity
        ("coin_bloch", [math.nan, 1.0, 0.0]),
        ("theta2", math.inf),
        ("toy", {"mixing_strength": math.inf}),
        ("toy", {"h_a": [[[math.nan, 0.0], [1.2, 0.0]], [[1.2, 0.0], [1.0, 0.0]]], "h_b": [[[1.0, 0.0]] * 2] * 2}),
        ("toy", {"weights_b1": [1.0, math.nan]}),
        ("toy", {"weights_a2": [math.inf, 1.0]}),
        ("toy", {"dt": math.inf}),
        ("toy", {"t_max": math.inf}),
        ("metrics", [{"kind": "random_xy", "seed": 1, "high": math.inf}]),
        # text that would break a CSV's '#' provenance line: a control
        # character in a metric name, and an unknown variant beside custom blocks
        ("metrics", [{"kind": "g1_flat", "name": "G\n2"}]),
        (
            "toy",
            {
                "variant": "x\ny",
                "h_a": [[[1.0, 0.0], [1.2, 0.0]], [[1.2, 0.0], [1.0, 0.0]]],
                "h_b": [[[1.0, 0.0], [1.4, 0.0]], [[1.4, 0.0], [1.0, 0.0]]],
            },
        ),
    ],
)
def test_invalid_config_exits_2_before_writing(tmp_path, field, value):
    # refused up front, so a bad config never leaves partial or overwritten output
    config = {"lattice_size": 21, "t_max": 5, "study": "rhp" if field != "toy" else "all", field: value}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize(
    "field, value", [("theta1", math.nan), ("theta2", -math.inf), ("coin_bloch", (math.nan, 1.0, 0.0))]
)
def test_non_finite_values_are_refused_under_their_own_field(field, value):
    with pytest.raises(ConfigInvalid) as err:
        validate_config(dataclasses.replace(ExperimentConfig(), **{field: value}))
    assert [name for name, _ in err.value.errors] == [field]


def test_config_errors_name_the_path():
    cases = [
        ({"metrics": [{"kind": "random_xy", "seed": "a"}]}, "config.metrics[0].seed"),
        ({"metrics": [{"kind": "g1_flat"}, {"kind": "g1_flat", "hihg": 0.5}]}, "config.metrics[1]"),
        ({"anneal": {"restarts": True}}, "config.anneal.restarts"),  # a bool is no int
        ({"gamma_factors": [1.0, False]}, "config.gamma_factors[1]"),  # nor a float
        ({"coin_bloch": [1.0, 0.0]}, "config.coin_bloch"),
        ({"toy": {"h_a": [[[1.0, 0.0], [2.0, 0.0]], [[2.0, 0.0], [1.0]]]}}, "config.toy.h_a[1][1]"),
        ({"metrics": [{"kind": "random_xy"}]}, "config.metrics[0]"),  # the dataclass's own ValueError
        ([], "config"),
    ]
    for data, path in cases:
        with pytest.raises(ConfigInvalid) as err:
            ExperimentConfig.from_dict(data)
        assert [field for field, _ in err.value.errors] == [path], data


def test_config_codec_keeps_ints_given_for_floats():
    cfg = ExperimentConfig.from_dict({"theta1": 1, "gamma_factors": [1, 1.2]})
    assert type(cfg.theta1) is int and cfg.gamma_factors == (1, 1.2)
    assert cfg.to_dict()["gamma_factors"] == [1, 1.2]


def test_metric_spec_encoding_is_pinned():
    # the metric CSV's '#' line is json.dumps of this dict, unsorted
    spec = MetricSpec(kind="random_xy", seed=11, name="G2")
    assert json.dumps(spec.to_dict()) == '{"kind": "random_xy", "low": 0.2, "high": 2.0, "seed": 11, "name": "G2"}'


def test_config_json_roundtrip_is_exact():
    cfg = dataclasses.replace(
        tiny_config("out"),
        metrics=(
            MetricSpec(kind="g1_flat", name="G1"),
            MetricSpec(kind="random_xy", seed=11, low=0.5, high=1.5),
            MetricSpec(kind="explicit", y=tuple(np.linspace(0.3, 2.0, 21)), name="E"),
        ),
        toy=custom_toy(),
    )
    assert cfg.anneal != AnnealSchedule()
    back = ExperimentConfig.from_dict(json.loads(json.dumps(cfg.to_dict())))
    assert back == cfg
    assert back.to_dict() == cfg.to_dict()


def custom_toy():
    h_a = np.array([[np.exp(0.7j), 1.1], [1.1, np.exp(-0.7j)]])
    h_b = np.array([[np.exp(2.3j), 1.4 + 0.1j], [1.4 - 0.1j, np.exp(-2.3j)]])
    return ToyConfig(h_a=h_a, h_b=h_b, t_max=1.0, dt=0.1)


def test_manifest_reproduces_custom_toy(tmp_path):
    cfg = dataclasses.replace(tiny_config(tmp_path / "a", study="toy"), toy=custom_toy())
    manifest = run(cfg)
    back = ExperimentConfig.from_dict(json.loads(json.dumps(manifest["config"])))
    for got, want in zip(back.toy.hamiltonians(), cfg.toy.hamiltonians()):
        assert np.array_equal(got, want)
    assert back.to_dict() == cfg.to_dict()
    rerun = run(back, out_dir=tmp_path / "b")
    hashes = lambda m: {a["path"]: a["sha256"] for a in m["artifacts"] if a["path"].endswith(".csv")}
    assert hashes(rerun) == hashes(manifest)


def test_custom_toy_records_the_variant_custom(tmp_path):
    # the built-in blocks were not used, so no CSV may name them; the
    # manifest keeps the config as given, so it still round-trips
    toy = ToyConfig(h_a=[[1j, 1.5], [1.5, -1j]], h_b=[[1j, 2.0], [2.0, -1j]], t_max=1.0)
    assert run_toy(toy).meta["variant"] == "custom"
    assert run_toy(dataclasses.replace(toy, h_a=None, h_b=None)).meta["variant"] == "pt_phase"
    out = tmp_path / "out"
    manifest = run(dataclasses.replace(tiny_config(out, study="toy"), toy=toy))
    for name in ("product1", "product2", "nonproduct"):
        first = (out / f"toy__{name}.csv").read_text().splitlines()[0]
        assert first.startswith(f"# cell=toy__{name} variant=custom mixing_strength=")
    assert manifest["config"]["toy"]["variant"] == "pt_phase"
    assert ExperimentConfig.from_dict(manifest["config"]).toy == toy


@pytest.mark.parametrize("toy", [ToyConfig(), custom_toy()], ids=["default", "custom"])
def test_toy_csvs_match_value_by_value_writer(tmp_path, toy):
    import hashlib

    import loop_reference

    out = tmp_path / "out"
    manifest = run(dataclasses.replace(tiny_config(out, study="toy"), toy=toy))
    result = run_toy(toy)
    for name, curve in result.entropy.items():
        want = tmp_path / f"toy__{name}.csv"
        loop_reference.write_toy_csv(toy, name, result.times, curve, want)
        assert hashlib.sha256((out / want.name).read_bytes()).digest() == hashlib.sha256(want.read_bytes()).digest()
    assert sum(a["path"].startswith("toy__") and a["path"].endswith(".csv") for a in manifest["artifacts"]) == 3


def test_toy_summary_records_transport_residuals(tmp_path):
    # Measured: the pt_phase residuals 5.0e-15, 3.1e-15 and 3.9e-15; the real
    # variant's 1.4e-15, 2.3e-15 and 2.2e-15, its non-product frame at
    # kappa(B) = 1.81e4 (the root of the assembled metric, at condition
    # number 3.3e8, left 1.28e-8 there).
    for toy in (ToyConfig(), ToyConfig(variant="real", t_max=1.0)):
        out = tmp_path / toy.variant
        run(dataclasses.replace(tiny_config(out, study="toy"), toy=toy))
        summary = json.loads((out / "toy__summary.json").read_text())
        residuals = summary["transport_unitarity_residual"]
        assert set(residuals) == {"product1", "product2", "nonproduct"}
        assert residuals["product1"] < 1e-13  # the identity transport
        assert 0.0 <= residuals["product2"] < 1e-13
        assert 0.0 <= residuals["nonproduct"] < 1e-13
        conditions = summary["frame_condition"]
        assert set(conditions) == set(residuals)
        assert 1.0 <= min(conditions.values()) and max(conditions.values()) <= FRAME_CONDITION_MAX
    assert conditions["nonproduct"] == pytest.approx(1.81e4, rel=1e-3)


def test_toy_config_rejects_a_single_custom_block():
    h_a, _ = custom_toy().hamiltonians()
    with pytest.raises(ConfigInvalid):
        ToyConfig(h_a=h_a)
    toy = custom_toy().to_dict()
    del toy["h_b"]
    with pytest.raises(ConfigInvalid):
        ExperimentConfig.from_dict({"toy": toy})
    toy = custom_toy().to_dict()
    toy["h_b"] = [[1.0, 2.0], [3.0, 4.0]]
    with pytest.raises(ConfigInvalid):
        ExperimentConfig.from_dict({"toy": toy})


def test_run_writes_artifacts_and_manifest(tmp_path):
    cfg = tiny_config(tmp_path / "out")
    manifest = run(cfg)
    out = tmp_path / "out"
    assert (out / "manifest.json").exists()
    # every manifest entry exists and hashes correctly
    import hashlib

    for art in manifest["artifacts"]:
        p = out / art["path"]
        assert p.exists()
        assert hashlib.sha256(p.read_bytes()).hexdigest() == art["sha256"]
    stems = {art["path"] for art in manifest["artifacts"]}
    for study in ("blp", "rhp", "entanglement"):
        for factor in ("1", "1.2"):
            assert f"{study}__eg{factor}__G1.csv" in stems
            assert f"{study}__eg{factor}__G1.json" in stems
    assert "toy__summary.json" in stems
    assert "metric__eg1.2__G2.csv" in stems
    assert manifest["skipped"] == []
    # series CSVs are self-describing: provenance comment on the first line
    first = (out / "rhp__eg1.2__G2.csv").read_text().splitlines()[0]
    assert first.startswith("# cell=rhp__eg1.2__G2")
    assert "master_seed=5" in first and "metric_seed=11" in first
    # the manifest on disk names the library versions and the host's CPU count
    written = json.loads((out / "manifest.json").read_text())
    assert written["versions"] == {
        "ptwalk": __version__,
        "numpy": np.__version__,
        "python": platform.python_version(),
    }
    assert written["cpu_count"] == os.cpu_count()


def test_run_is_deterministic_modulo_runtime(tmp_path):
    cfg = tiny_config(tmp_path / "a", study="rhp")
    m1 = run(cfg)
    m2 = run(cfg, out_dir=tmp_path / "b")
    h1 = {a["path"]: a["sha256"] for a in m1["artifacts"]}
    h2 = {a["path"]: a["sha256"] for a in m2["artifacts"]}
    assert set(h1) == set(h2)
    for path in h1:
        if path.endswith(".csv"):
            assert h1[path] == h2[path], path
        else:
            s1 = json.loads((tmp_path / "a" / path).read_text())
            s2 = json.loads((tmp_path / "b" / path).read_text())
            for key in ("runtime_s", "timings"):
                s1.pop(key, None)
                s2.pop(key, None)
            assert s1 == s2


def test_walk_cell_summaries_record_numerical_health(tmp_path):
    cfg = tiny_config(tmp_path, study="all")
    manifest = run(cfg)
    walk_cells = [c for c in manifest["cells"] if c["study"] != "toy"]
    assert len(walk_cells) == 12
    for cell in walk_cells:
        summary = json.loads((tmp_path / f"{cell['cell']}.json").read_text())
        assert summary["ep_gap"] == cell["ep_gap"]
        assert 0.0 < summary["ep_gap"] < 1.0
        assert summary["metric_condition_max"] >= 1.0
        assert 0.0 <= summary["pseudo_hermiticity_residual"] <= 1e-14 and "unitarity_residual" not in summary
        # stage timings: the pair's shared walk, audit CSV and M(t), and the cell's own stage
        timings = summary["timings"]
        search = {"search_s"} if cell["study"] == "blp" else set()
        assert set(timings) == {"walk_s", "metric_csv_s", "bloch_s", "cell_s"} | search
        assert min(timings.values()) >= 0.0
        assert timings["cell_s"] == summary["runtime_s"]
        if search:
            # a BLP cell's even share of its group's lockstep search is part of its cell_s;
            # the search's seed is the run's master_seed, never the schedule's
            assert timings["search_s"] <= timings["cell_s"]
            assert "seed" not in summary["anneal"] and summary["master_seed"] == 5
        pair = [
            json.loads((tmp_path / f"{study}__eg{cell['gamma_factor']:g}__{cell['metric_label']}.json").read_text())
            for study in ("blp", "rhp", "entanglement")
        ]
        shared = ("walk_s", "metric_csv_s", "bloch_s")
        assert all([s["timings"][key] for key in shared] == [timings[key] for key in shared] for s in pair)
        # M(t) comes from one pass per gamma: every metric's cells record an even share of it
        same_gamma = [
            json.loads((tmp_path / f"{c['cell']}.json").read_text())["timings"]["bloch_s"]
            for c in walk_cells
            if c["gamma_factor"] == cell["gamma_factor"]
        ]
        assert same_gamma == [timings["bloch_s"]] * len(same_gamma)
    flat_hermitian = next(c for c in walk_cells if c["gamma_factor"] == 1.0 and c["metric_label"] == "G1")
    assert flat_hermitian["metric_condition_max"] == 1.0


def test_run_parallel_cells_match_sequential(tmp_path, monkeypatch):
    # The 2 gammas go into 2 groups at 2 and at 3 workers, each with both its
    # metrics; every artifact must match the one-group run, whose pass holds
    # both gammas, the summaries apart from runtime_s. With 33
    # elements at L = 21, folded onto 11 +-k pairs, a block holds 3 of the 9
    # steps, so the pass steps from the block starts t = 0, 3 and 6. Worker
    # processes are forked, so they see the patched constant.
    import ptwalk.channel

    for elements in (ptwalk.channel.BLOCK_ELEMENTS, 33):
        monkeypatch.setattr(ptwalk.channel, "BLOCK_ELEMENTS", elements)
        base = tmp_path / str(elements)
        cfg = tiny_config(base / "seq", study="all")
        seq = run(cfg)
        names = sorted(p.name for p in (base / "seq").iterdir())
        assert any(n.startswith("blp__") for n in names) and any(n.startswith("metric__") for n in names)
        for threads in (2, 3):
            par_dir = base / f"par{threads}"
            par = run(cfg, out_dir=par_dir, threads=threads)
            assert sorted(p.name for p in par_dir.iterdir()) == names
            for name in names:
                if name.endswith(".csv"):
                    assert (par_dir / name).read_bytes() == (base / "seq" / name).read_bytes(), name
                elif name != "manifest.json":
                    want = json.loads((base / "seq" / name).read_text())
                    got = json.loads((par_dir / name).read_text())
                    want.pop("runtime_s")
                    got.pop("runtime_s")
                    want.pop("timings", None)  # walk cells only; the toy has none
                    got.pop("timings", None)
                    assert got == want, name
            assert [c["cell"] for c in par["cells"]] == [c["cell"] for c in seq["cells"]]


def _record_measures(monkeypatch) -> dict:
    """Patch the runner's measures to record the M(t) each is given, per study."""
    import ptwalk.experiments as experiments

    seen = {"blp": [], "rhp": [], "entanglement": []}
    many, rhp, entanglement = (
        experiments.maximize_blp_many, experiments.rhp_series, experiments.entanglement_series
    )
    monkeypatch.setattr(
        experiments, "maximize_blp_many", lambda blochs, *args: seen["blp"].append(list(blochs)) or many(blochs, *args)
    )
    monkeypatch.setattr(experiments, "rhp_series", lambda bloch: seen["rhp"].append(bloch) or rhp(bloch))
    monkeypatch.setattr(
        experiments, "entanglement_series", lambda bloch, r0: seen["entanglement"].append(bloch) or entanglement(bloch, r0)
    )
    return seen


def _default_grid(out_dir) -> ExperimentConfig:
    # the default walk, grid and metrics; a short schedule keeps the search quick
    short = AnnealSchedule(cooling_factor=0.5, steps_per_temperature=10, restarts=2)
    return ExperimentConfig(study="all", output_dir=str(out_dir), anneal=short)


def test_run_measures_each_distinct_bloch_once(tmp_path, monkeypatch):
    # at e^gamma = 1 the three metrics give one M(t), so of the 9 pairs 7
    # reach the search, and each series function runs 7 times, at any worker
    # count: run deals whole gammas to its groups (1 and 1.3 apart from 1.2
    # at 2 workers, one each at 3). The groups run on threads of this process
    # here, so that the patched measures see every group's calls.
    import concurrent.futures

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", concurrent.futures.ThreadPoolExecutor)
    seen = _record_measures(monkeypatch)
    for threads, searched in ((1, [7]), (2, [3, 4]), (3, [1, 3, 3])):
        for calls in seen.values():
            calls.clear()
        run(_default_grid(tmp_path / str(threads)), threads=threads)
        assert sorted(len(blochs) for blochs in seen["blp"]) == searched, threads
        assert len(seen["rhp"]) == len(seen["entanglement"]) == 7, threads
        blp = [b for blochs in seen["blp"] for b in blochs]
        for study, blochs in (("blp", blp), ("rhp", seen["rhp"]), ("entanglement", seen["entanglement"])):
            assert len({b.tobytes() for b in blochs}) == 7, (study, threads)
    # 2 and 3 groups write the bytes of the one-group run
    names = sorted(path.name for path in (tmp_path / "1").glob("*.csv"))
    for threads in (2, 3):
        assert sorted(path.name for path in (tmp_path / str(threads)).glob("*.csv")) == names
        for name in names:
            assert (tmp_path / str(threads) / name).read_bytes() == (tmp_path / "1" / name).read_bytes(), name


def test_run_builds_one_walk_per_gamma(tmp_path, monkeypatch):
    # the default grid on one worker: each unbroken gamma's walk is built once
    # for all of its metrics, and its axis classes, which the measures share
    # by, are read once
    import ptwalk.experiments as experiments

    calls = []
    build, classes = experiments.build_euclidean_walk, experiments.equal_classes
    monkeypatch.setattr(experiments, "build_euclidean_walk", lambda *args: calls.append("walk") or build(*args))
    monkeypatch.setattr(experiments, "equal_classes", lambda arrays: calls.append("classes") or classes(arrays))
    cfg = _default_grid(tmp_path)
    run(cfg, threads=1)
    assert all(is_unbroken(cfg.walk_params(factor)) for factor in cfg.gamma_factors)
    assert calls == ["walk", "classes"] * len(cfg.gamma_factors)


def test_cells_with_one_bloch_share_their_series(tmp_path):
    # each e^gamma = 1 cell writes the CSV body and the results of G1's cell,
    # under its own provenance line; at e^gamma = 1.2 the metrics differ
    run(_default_grid(tmp_path), threads=1)

    def cell(study, factor, label):
        csv = (tmp_path / f"{study}__eg{factor:g}__{label}.csv").read_text().split("\n", 1)
        return csv, json.loads((tmp_path / f"{study}__eg{factor:g}__{label}.json").read_text())

    for study, keys in (
        ("blp", ("n_max", "best_pair", "flagged_steps")),
        ("rhp", ("final_rhp", "flagged_steps")),
        ("entanglement", ("final_entropy", "flagged_steps")),
    ):
        (head, body), summary = cell(study, 1.0, "G1")
        for label in ("G2", "G3"):
            (other_head, other_body), other = cell(study, 1.0, label)
            assert other_body == body and other_head != head, (study, label)
            assert {k: other[k] for k in keys} == {k: summary[k] for k in keys}, (study, label)
        assert cell(study, 1.2, "G1")[0][1] != cell(study, 1.2, "G2")[0][1], study


def test_a_one_ulp_change_breaks_the_sharing(tmp_path, monkeypatch):
    # the equality behind the sharing is bitwise: an e^gamma = 1 axis row
    # moved by one ulp in one entry is measured on its own
    import ptwalk.experiments as experiments

    build = experiments.build_euclidean_walk

    def nudged(p, specs):
        ew, g = build(p, specs)
        if np.array_equal(ew.n_x[0], ew.n_x[1]):
            ew.n_x[1, 7] = np.nextafter(ew.n_x[1, 7], np.inf)
        return ew, g

    monkeypatch.setattr(experiments, "build_euclidean_walk", nudged)
    seen = _record_measures(monkeypatch)
    run(_default_grid(tmp_path), threads=1)
    assert [len(blochs) for blochs in seen["blp"]] == [8]
    assert len(seen["rhp"]) == len(seen["entanglement"]) == 8


@pytest.mark.parametrize("threads", [1, 2, 3])
def test_run_metric_csvs_match_value_by_value_writer(tmp_path, threads):
    # the pairs of a group share one formatted momentum column; every audit
    # CSV must still be the value-by-value export of its own pair's metric
    import loop_reference
    from ptwalk.walk import momentum_grid

    cfg = tiny_config(tmp_path, study="rhp")
    out = tmp_path / "out"
    run(cfg, out_dir=out, threads=threads)
    assert len(list(out.glob("metric__*.csv"))) == len(cfg.gamma_factors) * len(cfg.metrics)
    for factor in cfg.gamma_factors:
        for spec in cfg.metrics:
            name = f"metric__eg{factor:g}__{spec.label}.csv"
            want = tmp_path / name
            comment = f"gamma_factor={factor:g} {json.dumps(spec.to_dict())}"
            g = loop_reference.walk_alone(cfg.walk_params(factor), spec)[1]
            loop_reference.write_metric_csv(momentum_grid(cfg.lattice_size), g, want, comment)
            assert (out / name).read_bytes() == want.read_bytes(), name


def test_import_leaves_scipy_and_process_pool_unloaded():
    # A fresh interpreter: importing ptwalk must not pay for scipy or the
    # process-pool machinery, which only a run with several groups needs.
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = (
        "import sys, ptwalk; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] in ('scipy', 'multiprocessing') "
        "or m == 'concurrent.futures.process'))"
    )
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "[]"


def test_public_api_is_pinned():
    # growth of the top-level namespace shows up here, in review
    import types

    import ptwalk

    names = {n for n in dir(ptwalk) if not n.startswith("_") and not isinstance(getattr(ptwalk, n), types.ModuleType)}
    assert names == {
        "AnnealSchedule", "BrokenRegime", "ConfigInvalid",
        "DegeneratePairing", "EuclideanWalk", "ExperimentConfig",
        "LightConeViolation", "MeasureSeries", "MetricSpec",
        "MissingArtifacts", "NoBreaking", "NotPositive", "PTWalkError",
        "SpectrumNotReal", "ToyConfig", "ToyResult", "WalkParams",
        "blp_series", "build_euclidean_walk",
        "entanglement_series", "gamma_pt", "is_unbroken", "load_config",
        "report", "rhp_series", "run", "run_toy", "validate_config",
    }


def test_every_src_definition_is_exported_or_called():
    # a top-level function, class or constant of src/ptwalk that is neither
    # exported, the CLI entry point, nor referenced by other program code
    # (imports count, docstrings do not) is test-only code: it belongs under tests/
    import ast
    from collections import defaultdict

    import ptwalk

    defined, used = [], defaultdict(set)
    for path in sorted((Path(__file__).resolve().parents[1] / "src" / "ptwalk").glob("*.py")):
        for i, node in enumerate(ast.parse(path.read_text()).body):
            where = (path.stem, i)
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.append((node.name, where))
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined += [(t.id, where) for t in targets if isinstance(t, ast.Name)]
            for sub in ast.walk(node):
                name = getattr(sub, "id", None) or getattr(sub, "attr", None)
                if isinstance(sub, ast.alias):
                    name = sub.name
                if name:
                    used[name].add(where)
    assert len(defined) > 50
    orphans = [
        f"{where[0]}.{name}"
        for name, where in defined
        if name not in dir(ptwalk) and (where[0], name) != ("cli", "main") and not used[name] - {where}
    ]
    assert orphans == []


def test_only_experiments_opens_files():
    # every artifact format is written behind one writer in experiments; a
    # file opened or written anywhere else in src/ptwalk would let a second one grow
    import ast

    opened = [
        f"{path.name}:{node.lineno}"
        for path in sorted((Path(__file__).resolve().parents[1] / "src" / "ptwalk").glob("*.py"))
        if path.name != "experiments.py"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call)
        and (
            getattr(node.func, "id", None) == "open"
            or getattr(node.func, "attr", None) in ("open", "write_text", "write_bytes")
        )
    ]
    assert opened == []


def test_no_eigensolver_in_the_program():
    # the walk reads its eigenvectors and the toy its eigenpairs in closed
    # form: no call in src/ptwalk reaches LAPACK's eigenvectors or an inverse
    import ast

    solvers = {"eig", "eigh", "eigvals", "eigvalsh", "inv"}
    called = [
        f"{path.name}:{node.lineno}"
        for path in sorted((Path(__file__).resolve().parents[1] / "src" / "ptwalk").glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call) and (getattr(node.func, "attr", None) or getattr(node.func, "id", None)) in solvers
    ]
    assert called == []


def test_benchmark_contract(tmp_path):
    # The benchmark under perfbench/ imports these names and reads these
    # fields; tier-1 does not collect perfbench/, so a rename would otherwise
    # break the benchmark unseen.
    from ptwalk.measures import trace_norm

    assert callable(trace_norm)
    schedule = AnnealSchedule(cooling_factor=0.5, steps_per_temperature=10, restarts=2)
    for name in ("initial_temperature", "temperature_floor", "cooling_factor", "steps_per_temperature", "restarts"):
        assert isinstance(getattr(schedule, name), (int, float))
    metrics = (MetricSpec(kind="g1_flat", name="G1"), MetricSpec(kind="random_xy", seed=11, name="G2"))
    base = ExperimentConfig(metrics=metrics, master_seed=2024)
    assert isinstance(base.anneal, AnnealSchedule) and "anneal" in base.to_dict()
    cfg = dataclasses.replace(
        base, lattice_size=21, t_max=5, gamma_factors=(1.0, 1.5), study="rhp", anneal=schedule
    )
    assert validate_config(cfg) == {1.0: True, 1.5: False}
    manifest = run(cfg, tmp_path / cfg.study, threads=1)
    ok = [c for c in manifest["cells"] if c["status"] == "ok"]
    assert len(ok) == 2 and all("final_rhp" in c for c in ok)
    assert all((tmp_path / cfg.study / a["path"]).is_file() for a in manifest["artifacts"])
    _, results = report(tmp_path / cfg.study)
    assert all("verdict" in row for rows in results["studies"].values() for row in rows.values())


def test_run_skips_broken_cells(tmp_path):
    cfg = tiny_config(tmp_path / "out", study="rhp")
    cfg = ExperimentConfig.from_dict({**cfg.to_dict(), "gamma_factors": [1.0, 1.5]})
    manifest = run(cfg)
    assert any("eg1.5" in cell for cell in manifest["skipped"])
    ok = [c for c in manifest["cells"] if c["status"] == "ok"]
    assert len(ok) == 2  # both metrics at e^gamma = 1


def test_report_classifies(tmp_path):
    out = tmp_path / "out"
    run(tiny_config(out))
    text, results = report(out)
    assert "rhp" in results["studies"]
    rhp = results["studies"]["rhp"]
    assert rhp["1.0"]["verdict"] == "PASS"
    assert rhp["1.2"]["verdict"] == "DISTINCT"
    ent = results["studies"]["entanglement"]
    assert ent["1.0"]["verdict"] == "PASS"
    assert ent["1.2"]["verdict"] == "DISTINCT"
    toy = results["studies"]["toy"]
    assert toy["product1"]["verdict"] == "PASS"
    assert toy["nonproduct"]["verdict"] == "DISTINCT"
    assert "PASS" in text


def test_report_distinct_needs_a_spread_above_the_hermitian_tolerance(tmp_path):
    # With a Hermitian spread of exactly 0 the DISTINCT ratio is taken to the
    # Hermitian tolerance, not to 0: a non-Hermitian spread of 1e-6 is
    # NOT-DISTINCT. G2's curves are rewritten as G1's, plus 1e-6 in the last
    # I_RHP value at e^gamma = 1.2.
    out = tmp_path / "out"
    run(tiny_config(out, study="rhp"))
    for factor, bump in (("1", 0.0), ("1.2", 1e-6)):
        comment, header, *rows = (out / f"rhp__eg{factor}__G1.csv").read_text().splitlines()
        column = header.split(",").index("I_RHP")
        last = rows[-1].split(",")
        last[column] = repr(float(last[column]) + bump)
        rows[-1] = ",".join(last)
        (out / f"rhp__eg{factor}__G2.csv").write_text("\n".join([comment, header, *rows]) + "\n")
    _, results = report(out)
    rhp = results["studies"]["rhp"]
    assert rhp["1.0"] == {"spread": 0.0, "verdict": "PASS"}
    assert rhp["1.2"]["spread"] == pytest.approx(1e-6, rel=1e-6)
    assert rhp["1.2"]["verdict"] == "NOT-DISTINCT"


def test_manifest_records_git_commit(tmp_path):
    import re

    from ptwalk.experiments import _git_commit

    commit = "0123456789abcdef0123456789abcdef01234567"
    git = tmp_path / ".git"
    assert _git_commit(git) == "unknown"  # outside a checkout
    (git / "refs" / "heads").mkdir(parents=True)
    (git / "HEAD").write_text("ref: refs/heads/main\n")
    assert _git_commit(git) == "unknown"  # a branch without a commit
    (git / "packed-refs").write_text(
        f"# pack-refs with: peeled fully-peeled sorted\n{commit[::-1]} refs/heads/main-old\n"
        f"{commit} refs/heads/main\n"
    )
    assert _git_commit(git) == commit
    (git / "refs" / "heads" / "main").write_text(commit[::-1] + "\n")
    assert _git_commit(git) == commit[::-1]  # a loose ref wins over the packed one
    (git / "HEAD").write_text(commit + "\n")
    assert _git_commit(git) == commit  # detached HEAD
    # a run records the commit of the checkout holding the package
    run(tiny_config(tmp_path / "out", study="rhp"))
    written = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert written["git_commit"] == _git_commit()
    assert re.fullmatch("[0-9a-f]{40}|unknown", written["git_commit"])


def test_manifest_and_report_ignore_files_of_an_earlier_run(tmp_path):
    # an rhp run and then an entanglement run into one directory: the second
    # manifest lists only what the second run wrote, and report reads only that
    out = tmp_path / "out"
    run(dataclasses.replace(tiny_config(out, study="rhp"), master_seed=1))
    manifest = run(tiny_config(out, study="entanglement"))
    paths = {art["path"] for art in manifest["artifacts"]}
    assert any(p.startswith("rhp__") for p in os.listdir(out))
    assert not any(p.startswith("rhp__") for p in paths)
    assert paths == {
        f"{stem}{ext}"
        for factor in ("1", "1.2")
        for label in ("G1", "G2")
        for stem, ext in (
            (f"entanglement__eg{factor}__{label}", ".csv"),
            (f"entanglement__eg{factor}__{label}", ".json"),
            (f"metric__eg{factor}__{label}", ".csv"),
        )
    }
    text, results = report(out)
    assert set(results["studies"]) == {"entanglement"}
    assert "rhp" not in text


def test_a_metric_holding_the_dropped_x_weight_is_refused(tmp_path):
    # G = r+ r+^T + y r- r-^T takes one weight; configs and manifests that
    # still hold the x weight, which only explicit metrics wrote, are refused
    # by the codec, which names the metric and the key
    data = {"metrics": [{"kind": "g1_flat"}, {"kind": "explicit", "x": [1.0] * 21, "y": [1.0] * 21}]}
    with pytest.raises(ConfigInvalid) as err:
        ExperimentConfig.from_dict(data)
    assert err.value.errors == [("config.metrics[1]", "unknown fields ['x']")]
    out = tmp_path / "out"
    explicit = MetricSpec(kind="explicit", y=tuple(np.linspace(0.5, 2.0, 21)), name="E")
    run(dataclasses.replace(tiny_config(out, study="rhp"), metrics=(MetricSpec(kind="g1_flat", name="G1"), explicit)))
    report(out)
    manifest = json.loads((out / "manifest.json").read_text())
    manifest["config"]["metrics"][1]["x"] = [1.0] * 21
    (out / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(ConfigInvalid) as err:
        report(out)
    assert err.value.errors == [("config.metrics[1]", "unknown fields ['x']")]


def test_report_missing_artifacts(tmp_path):
    with pytest.raises(MissingArtifacts):
        report(tmp_path)


def test_report_names_a_listed_artifact_that_is_absent(tmp_path, capsys):
    out = tmp_path / "out"
    run(tiny_config(out, study="rhp"))
    (out / "rhp__eg1.2__G2.csv").unlink()
    with pytest.raises(MissingArtifacts, match=r"absent under .*: rhp__eg1\.2__G2\.csv$"):
        report(out)
    # a usage error, not a numerical failure
    assert main(["report", "--in", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "rhp__eg1.2__G2.csv" in err


def test_cli_report_of_an_empty_directory_is_a_usage_error(tmp_path, capsys):
    assert main(["report", "--in", str(tmp_path)]) == 2
    assert capsys.readouterr().err == f"error: no manifest.json under {tmp_path}\n"


# ----------------------------------------------------------------------- CLI


def test_cli_gamma_pt(capsys):
    code = main(["gamma-pt", "--theta1", str(math.pi / 4), "--theta2", str(-math.pi / 7)])
    assert code == 0
    value = float(capsys.readouterr().out.strip())
    assert 1.345 <= value <= 1.355


def test_cli_gamma_pt_no_breaking(capsys):
    code = main(["gamma-pt", "--theta1", "0.5", "--theta2", "0.5"])
    assert code == 3


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("toy", [{"mixing_strength": 1000}, {"variant": "real", "mixing_strength": 10}])
def test_cli_run_refuses_toy_weights_out_of_range(tmp_path, capsys, toy):
    # e^{2 s lambda} leaves the float range: a numerical failure, not a traceback
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"study": "toy", "toy": toy}))
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 3
    assert capsys.readouterr().err.startswith("numerical failure: metric weights not finite and positive")


def test_cli_run_and_report(tmp_path, capsys):
    cfg = tiny_config(tmp_path / "ignored", study="entanglement")
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps(cfg.to_dict()))
    out = tmp_path / "results"
    code = main(["run", "--config", str(cfg_path), "--out", str(out)])
    assert code == 0
    assert (out / "manifest.json").exists()
    code = main(["report", "--in", str(out)])
    assert code == 0
    assert "entanglement" in capsys.readouterr().out


def test_cli_run_env_output_dir(tmp_path, capsys, monkeypatch):
    cfg = tiny_config(tmp_path / "ignored", study="toy")
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps(cfg.to_dict()))
    env_out = tmp_path / "from_env"
    monkeypatch.setenv("PTWALK_OUTPUT_DIR", str(env_out))
    assert main(["run", "--config", str(cfg_path)]) == 0
    assert (env_out / "toy__summary.json").exists()


def test_cli_bad_config_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"lattice_size": 20}')
    assert main(["run", "--config", str(bad)]) == 2


def test_cli_threads_flag(tmp_path, capsys):
    cfg = tiny_config(tmp_path / "ignored", study="rhp")
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps(cfg.to_dict()))
    out = tmp_path / "results"
    assert main(["run", "--config", str(cfg_path), "--out", str(out), "--threads", "2"]) == 0
    assert (out / "manifest.json").exists()
    assert main(["run", "--config", str(cfg_path), "--threads", "0"]) == 2


def test_cli_study_and_seed_override(tmp_path, capsys):
    cfg = tiny_config(tmp_path / "ignored", study="all")
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps(cfg.to_dict()))
    out = tmp_path / "results"
    code = main(
        ["run", "--config", str(cfg_path), "--out", str(out), "--study", "rhp", "--seed", "9"]
    )
    assert code == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["master_seed"] == 9
    assert all(c["study"] == "rhp" for c in manifest["cells"] if c["status"] == "ok")
