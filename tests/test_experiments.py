import dataclasses
import json
import math

import numpy as np
import pytest

from ptwalk import ConfigInvalid, ExperimentConfig, MissingArtifacts, load_config, report, run
from ptwalk.cli import main
from ptwalk.experiments import validate_config
from ptwalk.measures import AnnealSchedule
from ptwalk.metric import MetricSpec
from ptwalk.toy import ToyConfig


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
            s1.pop("runtime_s", None)
            s2.pop("runtime_s", None)
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
    flat_hermitian = next(c for c in walk_cells if c["gamma_factor"] == 1.0 and c["metric_label"] == "G1")
    assert flat_hermitian["metric_condition_max"] == 1.0


def test_run_parallel_cells_match_sequential(tmp_path):
    cfg = tiny_config(tmp_path / "seq", study="entanglement")
    run(cfg)
    run(cfg, out_dir=tmp_path / "par", threads=2)
    for p in sorted((tmp_path / "seq").glob("*.csv")):
        assert p.read_bytes() == (tmp_path / "par" / p.name).read_bytes()


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


def test_report_missing_artifacts(tmp_path):
    with pytest.raises(MissingArtifacts):
        report(tmp_path)


# ----------------------------------------------------------------------- CLI


def test_cli_gamma_pt(capsys):
    code = main(["gamma-pt", "--theta1", str(math.pi / 4), "--theta2", str(-math.pi / 7)])
    assert code == 0
    value = float(capsys.readouterr().out.strip())
    assert 1.345 <= value <= 1.355


def test_cli_gamma_pt_no_breaking(capsys):
    code = main(["gamma-pt", "--theta1", "0.5", "--theta2", "0.5"])
    assert code == 3


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
