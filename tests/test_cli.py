import json
import math
import struct
from dataclasses import replace

import numpy as np
import pytest

from edgediag import cli
from edgediag.archive import load_archive, read_manifest, save_archive
from edgediag.config import ExperimentConfig, default_config_text
from edgediag.datagen import ConditionSpec, load_splits
from edgediag.models import ModelConfig, build_model, freeze_pre_fe, share_pre_fe
from edgediag.training import TrainConfig, transfer_edge, write_reports
from test_archive import MALFORMED, _sealed

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
    # the input shape is the generator's window, not a setting
    bad = tmp_path / "bad.cfg"
    for key in ("model.frobnicate", "model.input_channels", "model.input_height",
                "model.input_width"):
        bad.write_text(f"{key} = 7\n")
        code = cli.main(["analyze", "--config", str(bad), "--kind", "edge"])
        assert code == cli.EXIT_CONFIG
        assert key in capsys.readouterr().err


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
    "mixed_training_cond": ("train-cloud", "training.cond", lambda c: _poke(c, c.max() + 1)),
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


@pytest.mark.parametrize("line", [
    "data.noise_sigma = -1", "data.source_speed = 0", "data.n_test = 0", "data.n_finetune = 9",
])
def test_bad_data_value_fails_before_generation(tmp_path, capsys, line):
    key = line.partition(" ")[0]
    kept = [l for l in TINY_CFG.splitlines() if not l.startswith(key + " ")]
    cfg_path = tmp_path / "bad.cfg"
    cfg_path.write_text("\n".join(kept + [line]) + "\n")
    code = cli.main(["gen-data", "--config", str(cfg_path), "--out", str(tmp_path)])
    assert not (tmp_path / "dataset.edgewts").exists()
    assert code == cli.EXIT_CONFIG
    assert "stage=gen-data code=2: data.*" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("key", ["cloud.lr_max", "transfer.lr_min", "data.noise_sigma"])
def test_non_finite_float_value_fails_before_any_work(tmp_path, capsys, key, value):
    kept = [l for l in TINY_CFG.splitlines() if not l.startswith(key + " ")]
    cfg_path = tmp_path / "bad.cfg"
    cfg_path.write_text("\n".join(kept + [f"{key} = {value}"]) + "\n")
    out = tmp_path / "grid"
    code = cli.main(["reproduce", "--config", str(cfg_path), "--seeds", "1", "--out", str(out)])
    assert not out.exists()
    assert code == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert "stage=reproduce code=2:" in err
    assert f"bad value for {key}: '{value}' is not a finite number" in err


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


def _first_entry_repeated(blob: bytes) -> bytes:
    """The archive re-sealed with its first entry written twice in a row."""
    mlen = struct.unpack("<I", blob[12:16])[0]
    (count,) = struct.unpack("<I", blob[16 + mlen:20 + mlen])
    entries = blob[20 + mlen:-4]
    (nlen,) = struct.unpack("<H", entries[:2])
    ndim = entries[2 + nlen]
    dims = struct.unpack(f"<{ndim}I", entries[3 + nlen:3 + nlen + 4 * ndim])
    first = entries[:3 + nlen + 4 * ndim + 4 * math.prod(dims)]
    return _sealed(blob[16:16 + mlen], count + 1, first + entries)


# CRC-valid cloud archives that keep the config's model hash but break a
# rule of FORMAT.md; case: the error text that must name the breach
INVALID_WEIGHTS = {
    "repeated_entry": "entry 1 repeats the name 'pre_fe.conv1.weight'",
    "negative_seed": "seed must be a non-negative integer, got -1",
}


@pytest.mark.parametrize("command", ["eval", "bench"])
@pytest.mark.parametrize("case", sorted(INVALID_WEIGHTS))
def test_invalid_weights_with_matching_hash_exit_5(workdir, tmp_path, capsys, command, case):
    bad = tmp_path / "bad.edgewts"
    if case == "negative_seed":
        manifest = read_manifest(workdir["cloud"])
        manifest.seed = -1
        save_archive(load_archive(workdir["cloud"]), manifest, bad)
    else:
        bad.write_bytes(_first_entry_repeated(workdir["cloud"].read_bytes()))
    argv = [command, "--config", str(workdir["cfg"]), "--weights", str(bad)]
    argv += ["--data", str(workdir["data"])] if command == "eval" else ["--iters", "1"]
    assert cli.main(argv) == cli.EXIT_ARCHIVE
    err = capsys.readouterr().err.splitlines()
    assert err[0].startswith(f"error stage={command} code=5: ")
    assert INVALID_WEIGHTS[case] in err[0]


@pytest.mark.filterwarnings("ignore:overflow encountered in cast:RuntimeWarning")
@pytest.mark.parametrize("command", ["eval", "bench", "transfer"])
def test_weights_with_non_finite_output_exit_5(workdir, tmp_path, capsys, command):
    # a CRC-valid cloud archive whose first conv overflows float32 on any input
    store = load_archive(workdir["cloud"])
    store["pre_fe.conv1.weight"].data = np.full_like(store["pre_fe.conv1.weight"].data, 3e38)
    bad = tmp_path / "overflow.edgewts"
    save_archive(store, read_manifest(workdir["cloud"]), bad)
    out = ["--out-weights", str(tmp_path / "w.edgewts"), "--metrics", str(tmp_path / "m.jsonl")]
    argv = [command, "--config", str(workdir["cfg"])] + {
        "eval": ["--weights", str(bad), "--data", str(workdir["data"])],
        "bench": ["--weights", str(bad), "--iters", "1", "--warmup", "0"],
        # the error comes from the reference activations, before the first step
        "transfer": ["--cloud-weights", str(bad), "--data", str(workdir["data"])] + out,
    }[command]
    assert cli.main(argv) == cli.EXIT_ARCHIVE
    err = capsys.readouterr().err.splitlines()
    assert err[0] == (f"error stage={command} code=5: "
                      f"conv2d produced a non-finite value from the weights in {bad}")
    assert not (tmp_path / "w.edgewts").exists()


def test_trained_weights_with_non_finite_output_exit_4(workdir, monkeypatch, capsys, tmp_path):
    from edgediag.tensor import NonFiniteError

    def overflow(*a, **k):  # the reference activations of the cloud model reproduce just trained
        raise NonFiniteError("conv2d produced a non-finite value")

    monkeypatch.setattr(cli, "transfer_edge", overflow)
    code = cli.main(["reproduce", "--config", str(workdir["cfg"]), "--seeds", "1",
                     "--out", str(tmp_path / "grid")])
    assert code == cli.EXIT_DIVERGED
    err = capsys.readouterr().err.splitlines()
    assert err[0] == "error stage=reproduce code=4: conv2d produced a non-finite value"


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


@pytest.mark.parametrize("count", ["0", "-1"])
def test_reproduce_rejects_seed_count_below_one(workdir, tmp_path, capsys, count):
    out = tmp_path / "grid"
    code = cli.main(["reproduce", "--config", str(workdir["cfg"]), "--seeds", count,
                     "--out", str(out)])
    assert code == cli.EXIT_CONFIG
    err = capsys.readouterr().err.splitlines()
    assert err[0] == f"error stage=reproduce code=2: --seeds must be >= 1, got {count}"
    assert sum(l.startswith("error ") for l in err) == 1
    assert not out.exists()


def test_negative_run_seed_fails_before_any_work(tmp_path, capsys):
    cfg_path = tmp_path / "bad.cfg"
    cfg_path.write_text(TINY_CFG + "run.seed = -1\n")
    out = tmp_path / "grid"
    code = cli.main(["reproduce", "--config", str(cfg_path), "--seeds", "1", "--out", str(out)])
    assert code == cli.EXIT_CONFIG
    err = capsys.readouterr().err.splitlines()
    assert err[0] == "error stage=reproduce code=2: run.seed must be >= 0, got -1"
    assert not out.exists()


@pytest.mark.parametrize("command", ["gen-data", "train-cloud", "transfer"])
def test_negative_seed_option_fails_before_any_work(workdir, tmp_path, capsys, command):
    out = tmp_path / "out"
    trained = ["--out-weights", str(out / "w.edgewts"), "--metrics", str(out / "m.jsonl"),
               "--data", str(workdir["data"])]
    argv = [command, "--config", str(workdir["cfg"]), "--seed", "-1"] + {
        "gen-data": ["--out", str(out)],
        "train-cloud": trained,
        "transfer": trained + ["--cloud-weights", str(workdir["cloud"])],
    }[command]
    assert cli.main(argv) == cli.EXIT_CONFIG
    err = capsys.readouterr().err.splitlines()
    assert err[0] == f"error stage={command} code=2: --seed must be >= 0, got -1"
    assert not out.exists()


def test_schema_defaults_match_the_dataclass_defaults():
    cfg = ExperimentConfig()
    assert cfg.model_config() == ModelConfig()
    assert cfg.transfer_train_config() == TrainConfig()
    assert cfg.cloud_train_config() == replace(TrainConfig(), num_epoch=12)
    assert [c.noise_sigma for c in cfg.conditions()] == [ConditionSpec.noise_sigma] * 2


def test_default_config_roundtrips(tmp_path, capsys):
    assert cli.main(["default-config"]) == 0
    text = capsys.readouterr().out
    cfg = ExperimentConfig.from_text(text)
    assert cfg.values == ExperimentConfig().values
    assert text == default_config_text()
