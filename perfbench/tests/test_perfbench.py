"""Tests of the benchmark itself, at a tiny length.

    python3 -m pytest perfbench/tests
"""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import edgediag.layers as layers
import edgediag.tensor as tensor
import edgediag.training as training
from edgediag.models import EModel
from perfbench import workloads as wl
from perfbench.bench import ROOT, catalog, execute
from perfbench.micro import TINY_MICRO
from perfbench.trace import Tracer


def run_tiny(name, trace, out_dir):
    return execute(name, 7, 0.01, trace, wl.TINY, TINY_MICRO, str(out_dir))


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    out = tmp_path_factory.mktemp("traced")
    return {name: run_tiny(name, True, out) for name in wl.MEASURE}


@pytest.mark.parametrize("name", wl.MEASURE)
def test_untraced_run_is_correct_and_emits_the_declared_metrics(name, tmp_path):
    result, record = run_tiny(name, False, tmp_path)
    assert result["correct"] and result["failed"] == 0, record["notes"]
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == set(catalog()["end_to_end"])
    assert result["metrics"]["ops_ok_frac"]["value"] == 1.0
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("name", wl.MEASURE)
def test_traced_run_is_correct_and_emits_the_declared_metrics(name, traced):
    result, record = traced[name]
    assert result["correct"], record["notes"]
    assert set(result["metrics"]) == set(catalog()["per_layer"])
    for kind in ("cloud", "edge"):
        assert record["layer_tables"][kind], "per-entry table is recorded"


def test_exact_counts_are_recorded(traced):
    metrics = traced["edge_transfer"][0]["metrics"]
    assert metrics["tensor.backward_calls_per_step.cloud"]["value"] == 1.0
    assert metrics["tensor.backward_calls_per_step.proposed"]["value"] == 2.0
    assert metrics["tensor.backward_calls_per_step.wo_da"]["value"] == 1.0
    counts = traced["edge_transfer"][1]["exact_counts"]
    assert counts["proposed.tape_entries_per_step"] == counts[
        "wo_domain_adaptation.tape_entries_per_step"]
    assert traced["cloud_train"][1]["complexity"]["edge_over_cloud"]["params"] < 0.1


ENTRY_POINT = {"cloud_train": "training.train_cloud", "edge_transfer": "training.transfer_edge",
               "edge_infer": "training.evaluate"}


@pytest.mark.parametrize("name", wl.MEASURE)
def test_spans_nest_inside_their_parents(name, traced):
    path = traced[name][1]["spans"]
    with open(path, encoding="utf-8") as fh:
        header = json.loads(fh.readline())
        rows = [dict(zip(header, json.loads(line))) for line in fh]
    assert rows, "the traced run recorded spans"
    self_ns = [r["end_ns"] - r["start_ns"] for r in rows]
    for r in rows:
        assert r["start_ns"] <= r["end_ns"]
        p = r["parent"]
        if p >= 0:
            parent = rows[p]
            assert p < r["id"]
            assert parent["start_ns"] <= r["start_ns"] and r["end_ns"] <= parent["end_ns"]
            self_ns[p] -= r["end_ns"] - r["start_ns"]
    assert min(self_ns) >= 0
    names = {r["name"] for r in rows}
    assert "layers.Conv2dLayer.forward" in names
    # the workload's entry point, which the benchmark imports by name, is traced
    assert ENTRY_POINT[name] in names


def test_tracer_restores_every_original():
    before = (tensor.custom_op, layers.custom_op, layers.Conv2dLayer.forward,
              tensor.Tape.backward, training.Adam.step, training.train_cloud)
    tracer = Tracer()
    with tracer.installed():
        assert layers.custom_op is not before[1]
        assert layers.Conv2dLayer.forward is not before[2]
    after = (tensor.custom_op, layers.custom_op, layers.Conv2dLayer.forward,
             tensor.Tape.backward, training.Adam.step, training.train_cloud)
    assert after == before


def test_seed_changes_the_generated_inputs(tmp_path):
    def inputs(seed):
        st = wl.setup("edge_infer", wl.Seeds.derive(seed), wl.TINY, str(tmp_path), wl.Outcome())
        return st.splits.d_training.x, st.edge.store.snapshot()["classifier.weight"]

    x1, w1 = inputs(1)
    x1b, w1b = inputs(1)
    x2, w2 = inputs(2)
    assert np.array_equal(x1, x1b) and np.array_equal(w1, w1b)
    assert not np.array_equal(x1, x2)
    assert not np.array_equal(w1, w2)


def test_wrong_batch1_logits_count_as_failed(tmp_path, monkeypatch):
    forward = EModel.forward_logits

    def skewed(self, x):
        out = forward(self, x)
        if x.shape[0] == 1:
            out.data[0, 0] += 1.0
        return out

    monkeypatch.setattr(EModel, "forward_logits", skewed)
    result, _ = run_tiny("edge_infer", False, tmp_path)
    assert not result["correct"] and result["failed"] > 0
    assert result["metrics"]["ops_ok_frac"]["value"] < 1.0


def test_alpha_in_the_late_epochs_counts_as_failed(tmp_path, monkeypatch):
    monkeypatch.setattr(training, "in_weighted_phase", lambda epoch, num_epoch: True)
    result, record = run_tiny("edge_transfer", False, tmp_path)
    assert result["failed"] > 0
    assert any("alpha == 0" in n for n in record["notes"])


def test_run_without_sources_exits_nonzero_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "edge_infer", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
