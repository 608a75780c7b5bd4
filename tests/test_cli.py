import json
import os

import numpy as np
import pytest

from edgediag import cli
from edgediag.archive import Manifest, load_archive, read_manifest, save_archive
from edgediag.config import ExperimentConfig, default_config_text
from edgediag.datagen import load_splits
from edgediag.models import build_model, freeze_pre_fe, share_pre_fe
from edgediag.training import transfer_edge, write_reports
from test_archive import MALFORMED

TINY_CFG = """
model.pre_fe_channels = 6
model.c_stage_channels = 8,12
model.e_stage_channels = 6,6,8,8
model.feature_dim = 12
model.num_classes = 3
cloud.num_epoch = 2
transfer.num_epoch = 5
data.n_train = 8
data.n_finetune = 4
data.n_test = 6
"""


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    cfg_path = root / "tiny.cfg"
    cfg_path.write_text(TINY_CFG)
    assert cli.main(["gen-data", "--config", str(cfg_path), "--out", str(root)]) == 0
    data = root / "dataset.edgewts"
    cloud = root / "weights" / "cloud.edgewts"
    metrics = root / "metrics" / "cloud.jsonl"
    assert cli.main([
        "train-cloud", "--config", str(cfg_path), "--data", str(data),
        "--out-weights", str(cloud), "--metrics", str(metrics),
    ]) == 0
    return {"root": root, "cfg": cfg_path, "data": data, "cloud": cloud}


def test_gen_data_writes_echo_and_archive(workdir):
    echo = (workdir["root"] / "config-echo.txt").read_text()
    assert "model.num_classes = 3" in echo
    assert "data.n_train = 8" in echo  # every key echoed, file override applied
    assert read_manifest(workdir["data"]).kind == "dataset"


def test_gen_data_idempotent(workdir, tmp_path):
    out2 = tmp_path / "again"
    assert cli.main(["gen-data", "--config", str(workdir["cfg"]), "--out", str(out2)]) == 0
    assert (out2 / "dataset.edgewts").read_bytes() == workdir["data"].read_bytes()


def test_train_cloud_idempotent(workdir, tmp_path):
    w2 = tmp_path / "c.edgewts"
    m2 = tmp_path / "c.jsonl"
    assert cli.main([
        "train-cloud", "--config", str(workdir["cfg"]), "--data", str(workdir["data"]),
        "--out-weights", str(w2), "--metrics", str(m2),
    ]) == 0
    assert w2.read_bytes() == workdir["cloud"].read_bytes()
    assert m2.read_bytes() == (workdir["root"] / "metrics" / "cloud.jsonl").read_bytes()


def test_metrics_are_json_lines(workdir):
    lines = (workdir["root"] / "metrics" / "cloud.jsonl").read_text().splitlines()
    assert len(lines) == 2  # cloud.num_epoch
    for line in lines:
        rec = json.loads(line)
        assert "loss_classify" in rec and "wall_time_s" not in rec
    timing = (workdir["root"] / "metrics" / "cloud.jsonl.timing").read_text().splitlines()
    assert len(timing) == 2 and "wall_time_s" in timing[0]


def test_transfer_cli_equals_library_run(workdir, tmp_path):
    cfg_path, data, cloud = workdir["cfg"], workdir["data"], workdir["cloud"]
    w_cli = tmp_path / "e.edgewts"
    m_cli = tmp_path / "e.jsonl"
    assert cli.main([
        "transfer", "--config", str(cfg_path), "--cloud-weights", str(cloud),
        "--data", str(data), "--variant", "wo-da",
        "--out-weights", str(w_cli), "--metrics", str(m_cli),
    ]) == 0

    cfg = ExperimentConfig.from_file(cfg_path)
    seed = cfg["run.seed"]
    c_model, _ = cli._load_model(cfg, str(cloud), kind="cloud")
    e_model = build_model(cfg.model_config(), "edge", seed=cli._edge_seed(seed))
    share_pre_fe(c_model, e_model)
    freeze_pre_fe(e_model)
    splits = load_splits(data)
    reports = transfer_edge(
        c_model, e_model, splits.d_finetune_src, splits.d_finetune_tgt,
        cfg.transfer_train_config(seed), variant="wo_domain_adaptation",
    )
    m_lib = tmp_path / "lib.jsonl"
    write_reports(reports, m_lib)
    assert m_cli.read_bytes() == m_lib.read_bytes()
    lib_store = e_model.store
    cli_store = load_archive(w_cli)
    for name in lib_store.names():
        assert cli_store[name].data.tobytes() == lib_store[name].data.tobytes()


def test_variants_share_cloud_and_pre_fe(workdir, tmp_path):
    cfg = ExperimentConfig.from_file(workdir["cfg"])
    splits = load_splits(workdir["data"])
    c_model, _ = cli._load_model(cfg, str(workdir["cloud"]), kind="cloud")
    e1, e2 = (
        cli._edge_stage(cfg, c_model, splits, cfg["run.seed"], variant,
                        *(str(tmp_path / f"{variant}.{ext}") for ext in ("edgewts", "jsonl", "t")))
        for variant in ("proposed", "wo_domain_adaptation")
    )
    for n in c_model.store.names():
        if n.startswith("pre_fe."):
            assert e1.store[n].data.tobytes() == c_model.store[n].data.tobytes()
            assert e2.store[n].data.tobytes() == c_model.store[n].data.tobytes()


def test_eval_reports_accuracy_and_confusion(workdir, tmp_path, capsys):
    report = tmp_path / "eval.txt"
    assert cli.main([
        "eval", "--config", str(workdir["cfg"]), "--weights", str(workdir["cloud"]),
        "--data", str(workdir["data"]), "--report", str(report),
    ]) == 0
    out = capsys.readouterr().out
    assert "accuracy:" in out
    rec = json.loads((tmp_path / "eval.txt.jsonl").read_text())
    conf = np.asarray(rec["confusion"])
    assert conf.shape == (3, 3) and conf.sum() == 18
    assert report.read_text().count("\n") >= 4


def test_eval_manifest_mismatch_distinct_exit_code(workdir, tmp_path, capsys):
    other_cfg = tmp_path / "other.cfg"
    other_cfg.write_text(TINY_CFG.replace("feature_dim = 12", "feature_dim = 16"))
    code = cli.main([
        "eval", "--config", str(other_cfg), "--weights", str(workdir["cloud"]),
        "--data", str(workdir["data"]),
    ])
    assert code == cli.EXIT_ARCHIVE
    err = capsys.readouterr().err
    assert "stage=eval" in err and "code=5" in err


def test_unknown_config_key_rejected(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("model.frobnicate = 7\n")
    code = cli.main(["analyze", "--config", str(bad), "--kind", "edge"])
    assert code == cli.EXIT_CONFIG
    assert "frobnicate" in capsys.readouterr().err


def test_missing_dataset_is_data_error(workdir, capsys):
    code = cli.main([
        "train-cloud", "--config", str(workdir["cfg"]), "--data", "/nonexistent.edgewts",
        "--out-weights", "/tmp/x.edgewts", "--metrics", "/tmp/x.jsonl",
    ])
    assert code == cli.EXIT_DATA
    assert "code=3" in capsys.readouterr().err


def _poke(arr, value):
    arr = arr.copy()
    arr.flat[arr.size // 2] = value
    return arr


# each archive below keeps a valid checksum and the config's data hash;
# case: (command it is fed to, archive entry, edit of that entry)
MALFORMED_DATA = {
    "label_out_of_range": ("eval", "test.y", lambda y: np.where(y == 0, 7.0, y)),
    "negative_label": ("eval", "test.y", lambda y: y - 1.0),
    "fractional_cond": ("train-cloud", "training.cond", lambda c: c + 0.5),
    "test_labels_cut": ("eval", "test.y", lambda y: y[:10]),
    "training_labels_cut": ("train-cloud", "training.y", lambda y: y[:10]),
    "inf_in_finetune_target": ("transfer", "finetune_tgt.x", lambda x: _poke(x, np.inf)),
    "inf_in_test": ("eval", "test.x", lambda x: _poke(x, np.inf)),
    "nan_in_training": ("train-cloud", "training.x", lambda x: _poke(x, np.nan)),
    "samples_not_4d": ("eval", "test.x", lambda x: x.reshape(x.shape[0], -1)),
    "sample_shape_differs": ("eval", "test.x", lambda x: x[:, :, :16, :16]),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_DATA))
def test_malformed_dataset_exit_3(workdir, tmp_path, capsys, case):
    command, entry, edit = MALFORMED_DATA[case]
    store = load_archive(workdir["data"])
    store[entry].data = edit(store[entry].data)
    bad = tmp_path / "bad.edgewts"
    save_archive(store, read_manifest(workdir["data"]), bad)
    out = ["--out-weights", str(tmp_path / "w.edgewts"), "--metrics", str(tmp_path / "m.jsonl")]
    argv = [command, "--config", str(workdir["cfg"]), "--data", str(bad)] + {
        "eval": ["--weights", str(workdir["cloud"])],
        "train-cloud": out,
        "transfer": ["--cloud-weights", str(workdir["cloud"])] + out,
    }[command]
    assert cli.main(argv) == cli.EXIT_DATA
    assert f"stage={command} code=3" in capsys.readouterr().err
    assert not (tmp_path / "w.edgewts").exists()


@pytest.mark.parametrize("line", [
    "transfer.delta = 0", "transfer.smoothing_epsilon = 1.0", "transfer.kernel_count = 0",
])
def test_bad_transfer_value_fails_before_training(tmp_path, capsys, line):
    cfg_path = tmp_path / "bad.cfg"
    cfg_path.write_text(TINY_CFG + line + "\n")
    out = tmp_path / "grid"
    code = cli.main(["reproduce", "--config", str(cfg_path), "--seeds", "1", "--out", str(out)])
    assert not list(out.rglob("*.edgewts"))  # the cloud stage never ran
    assert code == cli.EXIT_CONFIG
    assert "stage=reproduce code=2: transfer.*" in capsys.readouterr().err


def test_missing_weights_is_archive_error(workdir, capsys):
    code = cli.main([
        "eval", "--config", str(workdir["cfg"]), "--weights", "/nonexistent.edgewts",
        "--data", str(workdir["data"]),
    ])
    assert code == cli.EXIT_ARCHIVE
    capsys.readouterr()


def test_corrupt_weights_is_archive_error(workdir, tmp_path, capsys):
    bad = tmp_path / "bad.edgewts"
    blob = bytearray(workdir["cloud"].read_bytes())
    blob[len(blob) // 2] ^= 0xFF
    bad.write_bytes(bytes(blob))
    code = cli.main([
        "eval", "--config", str(workdir["cfg"]), "--weights", str(bad),
        "--data", str(workdir["data"]),
    ])
    assert code == cli.EXIT_ARCHIVE
    capsys.readouterr()


@pytest.mark.parametrize("command", ["eval", "bench"])
@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_weights_exit_5(workdir, tmp_path, capsys, command, case):
    bad = tmp_path / "bad.edgewts"
    bad.write_bytes(MALFORMED[case])
    argv = [command, "--config", str(workdir["cfg"]), "--weights", str(bad)]
    argv += ["--data", str(workdir["data"])] if command == "eval" else ["--iters", "1"]
    assert cli.main(argv) == cli.EXIT_ARCHIVE
    assert "code=5" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["eval", "bench"])
def test_unknown_model_kind_exit_5(workdir, tmp_path, capsys, command):
    bad = tmp_path / "gizmo.edgewts"
    manifest = read_manifest(workdir["cloud"])
    manifest.kind = "gizmo"
    save_archive(load_archive(workdir["cloud"]), manifest, bad)
    argv = [command, "--config", str(workdir["cfg"]), "--weights", str(bad)]
    argv += ["--data", str(workdir["data"])] if command == "eval" else ["--iters", "1"]
    assert cli.main(argv) == cli.EXIT_ARCHIVE
    err = capsys.readouterr().err
    assert "code=5" in err and "gizmo" in err


def test_divergence_maps_to_exit_4(workdir, monkeypatch, capsys, tmp_path):
    from edgediag.training import TrainingDiverged

    def explode(*a, **k):
        raise TrainingDiverged("cloud training", 1, 0, "loss is NaN")

    monkeypatch.setattr(cli, "train_cloud", explode)
    code = cli.main([
        "train-cloud", "--config", str(workdir["cfg"]), "--data", str(workdir["data"]),
        "--out-weights", str(tmp_path / "w.edgewts"), "--metrics", str(tmp_path / "m.jsonl"),
    ])
    assert code == cli.EXIT_DIVERGED
    assert "code=4" in capsys.readouterr().err


def test_failure_echoes_resolved_config(workdir, capsys):
    cli.main([
        "eval", "--config", str(workdir["cfg"]), "--weights", "/nonexistent.edgewts",
        "--data", str(workdir["data"]),
    ])
    err = capsys.readouterr().err
    assert "model.feature_dim = 12" in err


def test_analyze_prints_table(workdir, capsys):
    assert cli.main(["analyze", "--config", str(workdir["cfg"]), "--kind", "cloud"]) == 0
    out = capsys.readouterr().out
    assert "total" in out and "pre_fe.conv1" in out


def test_bench_runs_tiny_protocol(workdir, tmp_path, capsys):
    report = tmp_path / "bench.jsonl"
    assert cli.main([
        "bench", "--config", str(workdir["cfg"]), "--weights", str(workdir["cloud"]),
        "--repeats", "2", "--iters", "3", "--warmup", "1", "--report", str(report),
    ]) == 0
    rec = json.loads(report.read_text())
    assert rec["repeats"] == 2 and len(rec["per_repeat_ms"]) == 2
    assert "latency" in capsys.readouterr().out


def test_reproduce_emits_three_rows_per_seed(workdir, tmp_path, capsys):
    out = tmp_path / "grid"
    assert cli.main([
        "reproduce", "--config", str(workdir["cfg"]), "--seeds", "2", "--out", str(out),
    ]) == 0
    capsys.readouterr()
    rows = [json.loads(l) for l in (out / "reports" / "accuracy.jsonl").read_text().splitlines()]
    assert len(rows) == 3 * 2
    variants = {r["variant"] for r in rows}
    assert variants == {"proposed", "wo_domain_adaptation", "wo_adaptation_adjustment"}
    summary = (out / "reports" / "summary.txt").read_text()
    assert "model complexity" in summary and "proposed" in summary


def test_default_config_roundtrips(tmp_path, capsys):
    assert cli.main(["default-config"]) == 0
    text = capsys.readouterr().out
    cfg = ExperimentConfig.from_text(text)
    assert cfg.values == ExperimentConfig().values
    assert text == default_config_text()
