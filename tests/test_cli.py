"""End-to-end command-line flows and exit codes.

These tests drive `conlab.cli.main(argv)` in-process; one test execs the
installed console script to cover the entry point itself.
"""

import contextlib
import io
import json
import math
import shutil
import struct
import subprocess
import sys
import tempfile
import tracemalloc
import warnings

import numpy as np
import pytest
from conftest import params_equal
from hypothesis import given, settings
from hypothesis import strategies as st

from conlab import cli
from conlab.cli import main
from conlab.config import (
    config_digest,
    config_from_dict,
    config_to_dict,
    load_config,
)
from conlab.pipeline import init_state
from conlab.storage import (
    MAGIC,
    load_checkpoint,
    load_dataset,
    read_container,
    read_metrics,
    save_checkpoint,
    write_container,
)

SMALL_CONFIG = {
    "dataset": {
        "n_classes": 3,
        "input_dim": 8,
        "n_train": 192,
        "n_test": 60,
        "cluster_spread": 0.6,
        "mean_radius": 3.0,
        "seed": 5,
    },
    "model": {"trunk": [16, 12], "embed_dim": 8},
    "train": {
        "queue_size": 48,
        "batch_size": 24,
        "epochs": 2,
        "momentum_m": 0.99,
        "seed": 1,
    },
    "probe": {"epochs": 6, "batch_size": 64, "knn_k": 5},
}


@pytest.fixture()
def workspace(tmp_path):
    config = tmp_path / "run.json"
    config.write_text(json.dumps(SMALL_CONFIG))
    data = tmp_path / "data.umc"
    assert main(["gen-data", "--spec", str(config), "--out", str(data)]) == 0
    return tmp_path, config, data


def test_gen_data_deterministic(tmp_path):
    spec = tmp_path / "spec.json"
    # a bare dataset section (not a full config) is accepted too
    spec.write_text(json.dumps(SMALL_CONFIG["dataset"]))
    a, b = tmp_path / "a.umc", tmp_path / "b.umc"
    assert main(["gen-data", "--spec", str(spec), "--out", str(a)]) == 0
    assert main(["gen-data", "--spec", str(spec), "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    ds = load_dataset(a)
    assert ds.train_x.shape == (192, 8)


def test_pretrain_writes_artifacts(workspace):
    tmp_path, config, data = workspace
    out = tmp_path / "run"
    code = main(
        ["pretrain", "--config", str(config), "--data", str(data),
         "--out-dir", str(out)]
    )
    assert code == 0
    state, cfg = load_checkpoint(out / "checkpoint.umc")
    assert state.step == (192 // 24) * 2
    rows = read_metrics(out / "metrics.csv")
    assert len(rows) == state.step
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"] == config_to_dict(cfg)
    assert manifest["files"]["checkpoint"] == "checkpoint.umc"


def test_pretrain_rerun_is_byte_identical(workspace):
    tmp_path, config, data = workspace
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for out in (out_a, out_b):
        assert main(
            ["pretrain", "--config", str(config), "--data", str(data),
             "--out-dir", str(out)]
        ) == 0
    assert (out_a / "checkpoint.umc").read_bytes() == (
        out_b / "checkpoint.umc"
    ).read_bytes()
    assert (out_a / "metrics.csv").read_text() == (out_b / "metrics.csv").read_text()


def test_pretrain_interrupt_resume_matches_full_run(workspace):
    tmp_path, config, data = workspace
    full, parts = tmp_path / "full", tmp_path / "parts"
    assert main(
        ["pretrain", "--config", str(config), "--data", str(data),
         "--out-dir", str(full)]
    ) == 0
    assert main(
        ["pretrain", "--config", str(config), "--data", str(data),
         "--out-dir", str(parts), "--max-steps", "7"]
    ) == 0
    assert main(
        ["pretrain", "--config", str(config), "--data", str(data),
         "--out-dir", str(parts), "--resume", str(parts / "checkpoint.umc")]
    ) == 0
    assert (full / "checkpoint.umc").read_bytes() == (
        parts / "checkpoint.umc"
    ).read_bytes()
    assert (full / "metrics.csv").read_text() == (parts / "metrics.csv").read_text()


def test_pretrain_epochs_zero_keeps_init(workspace, tmp_path):
    _, config, data = workspace
    doc = dict(SMALL_CONFIG)
    doc["train"] = dict(SMALL_CONFIG["train"], epochs=0)
    cfg_path = tmp_path / "zero.json"
    cfg_path.write_text(json.dumps(doc))
    out = tmp_path / "zero"
    assert main(
        ["pretrain", "--config", str(cfg_path), "--data", str(data),
         "--out-dir", str(out)]
    ) == 0
    state, cfg = load_checkpoint(out / "checkpoint.umc")
    init = init_state(cfg)
    assert state.step == 0
    assert params_equal(state.params_q, init.params_q)


def test_pretrain_resume_config_mismatch_rejected(workspace, tmp_path, capsys):
    tmp_path_ws, config, data = workspace
    out = tmp_path_ws / "run"
    assert main(
        ["pretrain", "--config", str(config), "--data", str(data),
         "--out-dir", str(out), "--max-steps", "3"]
    ) == 0
    doc = dict(SMALL_CONFIG)
    doc["train"] = dict(SMALL_CONFIG["train"], lr=0.001)
    other = tmp_path / "other.json"
    other.write_text(json.dumps(doc))
    code = main(
        ["pretrain", "--config", str(other), "--data", str(data),
         "--out-dir", str(out), "--resume", str(out / "checkpoint.umc")]
    )
    assert code == 2
    assert "different config" in capsys.readouterr().err


def test_pretrain_dataset_mismatch_rejected(workspace, tmp_path, capsys):
    _, config, data = workspace
    doc = dict(SMALL_CONFIG)
    doc["dataset"] = dict(SMALL_CONFIG["dataset"], seed=99)
    other = tmp_path / "other.json"
    other.write_text(json.dumps(doc))
    code = main(
        ["pretrain", "--config", str(other), "--data", str(data),
         "--out-dir", str(tmp_path / "x")]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert "dataset.seed" in err


# SMALL_CONFIG, but naming a dataset other than the workspace's
OTHER_DATASET_SEED = dict(SMALL_CONFIG, dataset=dict(SMALL_CONFIG["dataset"], seed=99))
OTHER_DATASET_SEED_ERROR = "config error: dataset.seed: config has 99, file has 5\n"


def test_probe_dataset_mismatch_rejected(workspace, capsys):
    tmp_path, _, data = workspace
    config = tmp_path / "other.json"
    config.write_text(json.dumps(OTHER_DATASET_SEED))
    ckpt = _fresh_checkpoint(tmp_path, config)
    report = tmp_path / "probes.json"
    report.write_bytes(b'[{"run_id": "earlier"}]\n')
    code = main(
        ["probe", "--checkpoint", str(ckpt), "--data", str(data),
         "--out", str(report)]
    )
    assert code == 2
    assert capsys.readouterr().err == OTHER_DATASET_SEED_ERROR
    assert report.read_bytes() == b'[{"run_id": "earlier"}]\n'


def test_compare_dataset_mismatch_rejected(workspace, capsys, pretrain_calls):
    tmp_path, _, data = workspace
    config, out = tmp_path / "other.json", tmp_path / "cmp"
    config.write_text(json.dumps(OTHER_DATASET_SEED))
    code = main(
        ["compare", "--config", str(config), "--data", str(data),
         "--losses", "unicon", "--alphas", "1", "--seeds", "0",
         "--out-dir", str(out)]
    )
    assert code == 2
    assert capsys.readouterr().err == OTHER_DATASET_SEED_ERROR
    assert pretrain_calls == []
    assert not out.exists()


def test_pretrain_divergence_exit_code(workspace, tmp_path, capsys):
    _, config, data = workspace
    doc = dict(SMALL_CONFIG)
    doc["train"] = dict(SMALL_CONFIG["train"], lr=1e12)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    out = tmp_path / "diverged"
    code = main(
        ["pretrain", "--config", str(bad), "--data", str(data),
         "--out-dir", str(out)]
    )
    assert code == 3
    assert "partial metrics retained" in capsys.readouterr().err
    # the rows produced before the blow-up survive on disk
    assert len(read_metrics(out / "metrics.csv")) >= 1
    assert not (out / "checkpoint.umc").exists()


def test_probe_appends_to_report(workspace):
    tmp_path, config, data = workspace
    out = tmp_path / "run"
    assert main(
        ["pretrain", "--config", str(config), "--data", str(data),
         "--out-dir", str(out)]
    ) == 0
    report = tmp_path / "probes.json"
    for _ in range(2):
        assert main(
            ["probe", "--checkpoint", str(out / "checkpoint.umc"),
             "--data", str(data), "--out", str(report)]
        ) == 0
    entries = json.loads(report.read_text())
    assert len(entries) == 2
    assert entries[0] == entries[1]
    entry = entries[0]
    assert 0.0 <= entry["linear_top1"] <= 1.0
    assert entry["loss"] == "unicon"
    assert entry["step"] == (192 // 24) * 2
    assert entry["run_id"].startswith("s1-")


def test_losscheck_command(capsys):
    assert main(["losscheck", "--trials", "30", "--width", "9"]) == 0
    out = capsys.readouterr().out
    assert "grad_fd" in out
    assert "0 failed" in out


def test_compare_command(workspace, capsys):
    tmp_path, config, data = workspace
    out = tmp_path / "cmp"
    code = main(
        ["compare", "--config", str(config), "--data", str(data),
         "--losses", "unicon", "--alphas", "1", "--seeds", "0",
         "--out-dir", str(out)]
    )
    assert code == 0
    table = capsys.readouterr().out
    assert "alpha=0" in table and "alpha=1" in table
    csv_lines = (out / "compare.csv").read_text().splitlines()
    assert csv_lines[0] == "loss,alpha_0,alpha_1"
    doc = json.loads((out / "compare.json").read_text())
    assert doc["losses"] == ["unicon"]
    assert (out / "compare.txt").exists()


def test_compare_rejects_unknown_loss(workspace, capsys):
    tmp_path, config, data = workspace
    code = main(
        ["compare", "--config", str(config), "--data", str(data),
         "--losses", "unicon,margin", "--seeds", "0",
         "--out-dir", str(tmp_path / "cmp")]
    )
    assert code == 2
    assert "unknown loss" in capsys.readouterr().err


@pytest.mark.parametrize(
    "losses, seeds, message",
    [
        ("unicon,unicon", "3,3", "repeated loss: unicon"),
        ("unicon", "1,1,2", "repeated seed: 1"),
    ],
)
def test_compare_rejects_repeated_loss_or_seed(
    workspace, capsys, losses, seeds, message
):
    tmp_path, config, data = workspace
    out = tmp_path / "cmp"
    code = main(
        ["compare", "--config", str(config), "--data", str(data),
         "--losses", losses, "--alphas", "1", "--seeds", seeds,
         "--out-dir", str(out)]
    )
    assert code == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_compare_rejects_negative_seed_before_any_cell(workspace, capsys):
    tmp_path, config, data = workspace
    out = tmp_path / "cmp"
    code = main(
        ["compare", "--config", str(config), "--data", str(data),
         "--losses", "unicon", "--alphas", "1", "--seeds", "0,-1", "--verbose",
         "--out-dir", str(out)]
    )
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "config error: train.seed: must be >= 0\n"
    assert not out.exists()


@pytest.mark.parametrize("under", [False, True], ids=["file", "under_file"])
def test_compare_refuses_an_out_dir_at_a_file_before_any_cell(
    workspace, capsys, pretrain_calls, under
):
    tmp_path, config, data = workspace
    taken = tmp_path / "taken"
    taken.write_text("not a directory\n")
    out = taken / "cmp" if under else taken
    before = sorted(tmp_path.rglob("*"))
    code = main(
        ["compare", "--config", str(config), "--data", str(data),
         "--losses", "unicon", "--alphas", "1", "--seeds", "0", "--verbose",
         "--out-dir", str(out)]
    )
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    # the error that mkdir gives, raised before the first cell trains
    reason = "[Errno 20] Not a directory" if under else "[Errno 17] File exists"
    assert captured.err == f"error: {reason}: '{out}'\n"
    assert pretrain_calls == []
    assert sorted(tmp_path.rglob("*")) == before
    assert taken.read_text() == "not a directory\n"


def test_missing_files_exit_2(tmp_path, capsys):
    code = main(
        ["pretrain", "--config", str(tmp_path / "none.json"),
         "--data", str(tmp_path / "none.umc"), "--out-dir", str(tmp_path / "o")]
    )
    assert code == 2


def test_bad_config_exit_2(tmp_path, capsys):
    config = tmp_path / "bad.json"
    config.write_text(json.dumps({"train": {"taus": 0.2, "lr": -1}}))
    data = tmp_path / "d.umc"
    code = main(
        ["pretrain", "--config", str(config), "--data", str(data),
         "--out-dir", str(tmp_path / "o")]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert "train.taus: unknown key" in err
    assert "train.lr" in err


@pytest.mark.parametrize(
    "text, needle",
    [
        ('{"train": {"tau": NaN}}', "train.tau"),
        ('{"train": {"lr": 1' + "0" * 400 + "}}", "train.lr"),
    ],
    ids=["nan", "huge_int"],
)
def test_non_finite_config_exit_2_before_data_loads(tmp_path, capsys, text, needle):
    config = tmp_path / "bad.json"
    config.write_text(text)
    code = main(
        ["pretrain", "--config", str(config), "--data", str(tmp_path / "none.umc"),
         "--out-dir", str(tmp_path / "o")]
    )
    assert code == 2
    assert f"config error: {needle}: expected a number" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "doc, needle",
    [
        ({"model": {"trunk": [1000000000000]}}, "model: the parameter count"),
        ({"dataset": {"n_train": 10**9}}, "dataset.n_train: n_train * input_dim"),
    ],
    ids=["trunk", "n_train"],
)
def test_over_budget_config_exit_2_before_data_loads(tmp_path, capsys, doc, needle):
    config = tmp_path / "big.json"
    config.write_text(json.dumps(doc))
    code = main(
        ["pretrain", "--config", str(config), "--data", str(tmp_path / "none.umc"),
         "--out-dir", str(tmp_path / "o")]
    )
    assert code == 2
    assert f"config error: {needle} exceeds the budget" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_checkpoint_with_over_budget_config_exit_2(workspace, capsys):
    tmp_path, config, data = workspace
    ckpt = _fresh_checkpoint(tmp_path, config)
    _edit_header(ckpt, lambda h: h["config"]["model"].update(embed_dim=2**40))
    code = main(
        ["probe", "--checkpoint", str(ckpt), "--data", str(data),
         "--out", str(tmp_path / "p.json")]
    )
    assert code == 2
    assert "config error: train.queue_size:" in capsys.readouterr().err


# a batch of 64 from a training set of 40 rows: not one step per epoch
BATCH_OVER_N_TRAIN = dict(
    SMALL_CONFIG,
    dataset=dict(SMALL_CONFIG["dataset"], n_train=40),
    train=dict(SMALL_CONFIG["train"], batch_size=64, queue_size=64),
)
# 60 neighbours from a training set of 48 rows: a run the kNN probe refuses
KNN_OVER_N_TRAIN = dict(
    SMALL_CONFIG,
    dataset=dict(SMALL_CONFIG["dataset"], n_train=48),
    train=dict(SMALL_CONFIG["train"], batch_size=24, queue_size=48),
    probe=dict(SMALL_CONFIG["probe"], knn_k=60),
)


@pytest.mark.parametrize("command", ["pretrain", "compare"])
def test_batch_over_n_train_exit_2_before_writing(workspace, capsys, command):
    tmp_path, _, data = workspace
    config, out = tmp_path / "batch.json", tmp_path / "out"
    config.write_text(json.dumps(BATCH_OVER_N_TRAIN))
    code = main(
        [command, "--config", str(config), "--data", str(data), "--out-dir", str(out)]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert err == "config error: train.batch_size: must be <= dataset.n_train\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["pretrain", "compare"])
def test_knn_k_over_n_train_exit_2_before_training(
    workspace, capsys, pretrain_calls, command
):
    # such a run would train, then fail in the kNN probe: compare after its
    # first cell, probe on the checkpoint pretrain wrote
    tmp_path, _, data = workspace
    config, out = tmp_path / "knn.json", tmp_path / "out"
    config.write_text(json.dumps(KNN_OVER_N_TRAIN))
    code = main(
        [command, "--config", str(config), "--data", str(data), "--out-dir", str(out)]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert err == "config error: probe.knn_k: must be <= dataset.n_train\n"
    assert pretrain_calls == []
    assert not out.exists()


# under a million parameters, but 5000 x 65536 probe features (2.6 GB)
WIDE_TRUNK = {
    "dataset": {"input_dim": 2},
    "model": {"trunk": [65536], "proj_hidden": 8},
}


@pytest.mark.parametrize("command", ["pretrain", "probe"])
def test_over_budget_activations_exit_2_before_allocating(tmp_path, capsys, command):
    spec, config = tmp_path / "spec.json", tmp_path / "wide.json"
    spec.write_text(json.dumps(WIDE_TRUNK["dataset"]))
    config.write_text(json.dumps(WIDE_TRUNK))
    data = tmp_path / "data.umc"
    assert main(["gen-data", "--spec", str(spec), "--out", str(data)]) == 0
    # a checkpoint that fits the wide config, saved with splits small enough
    # for the budget; its layout does not depend on the split sizes
    cfg = config_from_dict(
        dict(WIDE_TRUNK, dataset={"input_dim": 2, "n_train": 64, "n_test": 64})
    )
    ckpt = tmp_path / "ckpt.umc"
    save_checkpoint(ckpt, init_state(cfg), cfg)
    _edit_header(
        ckpt, lambda h: h["config"]["dataset"].update(n_train=5000, n_test=1000)
    )
    argv = {
        "pretrain": ["pretrain", "--config", str(config), "--data", str(data),
                     "--out-dir", str(tmp_path / "o")],
        "probe": ["probe", "--checkpoint", str(ckpt), "--data", str(data),
                  "--out", str(tmp_path / "p.json")],
    }[command]
    tracemalloc.start()
    try:
        code = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert peak < 50 * 2**20
    err = capsys.readouterr().err
    assert "config error: model.trunk: max(n_train, n_test) * the widest" in err


def test_memory_error_exit_2(tmp_path, capsys, monkeypatch):
    # the backstop for an allocation the config budget does not foresee
    def no_memory(spec):
        raise MemoryError("Unable to allocate 8.00 TiB")

    monkeypatch.setattr(cli, "generate_dataset", no_memory)
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(SMALL_CONFIG["dataset"]))
    assert main(["gen-data", "--spec", str(spec), "--out", str(tmp_path / "d")]) == 2
    err = capsys.readouterr().err
    assert err == "error: out of memory: Unable to allocate 8.00 TiB\n"
    assert sorted(tmp_path.iterdir()) == [spec]


def test_gen_data_spec_is_not_bounded_by_the_default_model(tmp_path, monkeypatch):
    # 2**20 inputs would give the default model (trunk 64, 32) more
    # parameters than the budget allows, but a bare spec has no model
    seen = []

    def record(spec):
        seen.append(spec)
        raise MemoryError("not generated here")

    monkeypatch.setattr(cli, "generate_dataset", record)
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"input_dim": 2**20, "n_train": 64, "n_test": 64}))
    assert main(["gen-data", "--spec", str(spec), "--out", str(tmp_path / "d")]) == 2
    assert [s.input_dim for s in seen] == [2**20]


def test_gen_data_rejects_infinite_spec(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text('{"dataset": {"cluster_spread": Infinity}}')
    out = tmp_path / "data.umc"
    assert main(["gen-data", "--spec", str(spec), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config error: dataset.cluster_spread: expected a number" in err
    assert sorted(tmp_path.iterdir()) == [spec]


def test_corrupt_dataset_exit_2(tmp_path, capsys):
    config = tmp_path / "run.json"
    config.write_text(json.dumps(SMALL_CONFIG))
    data = tmp_path / "data.umc"
    data.write_bytes(b"garbage")
    code = main(
        ["pretrain", "--config", str(config), "--data", str(data),
         "--out-dir", str(tmp_path / "o")]
    )
    assert code == 2
    assert "UMC1" in capsys.readouterr().err


def _split(blob):
    """A container's bytes as (header, array payload)."""
    (hlen,) = struct.unpack("<I", blob[4:8])
    return json.loads(blob[8 : 8 + hlen]), blob[8 + hlen :]


def _join(header, payload=b""):
    raw = json.dumps(header).encode()
    return MAGIC + struct.pack("<I", len(raw)) + raw + payload


def _write_umc1(path, header):
    path.write_bytes(_join(header))


def _edit_header(path, edit):
    """Rewrite a container's header in place, keeping its array bytes."""
    header, payload = _split(path.read_bytes())
    edit(header)
    path.write_bytes(_join(header, payload))


def _entry(header, name):
    return next(e for e in header["arrays"] if e["name"] == name)


def _fresh_checkpoint(tmp_path, config):
    cfg = load_config(config)
    ckpt = tmp_path / "ckpt.umc"
    save_checkpoint(ckpt, init_state(cfg), cfg)
    return ckpt


MALFORMED_HEADERS = {
    "no_arrays": {"format_version": 1, "kind": "dataset"},
    "entry_without_shape": {
        "format_version": 1,
        "kind": "dataset",
        "arrays": [{"name": "means", "dtype": "f8"}],
    },
    "list_header": [1, 2],
}


@pytest.mark.parametrize("command", ["pretrain", "probe"])
@pytest.mark.parametrize("case", sorted(MALFORMED_HEADERS))
def test_malformed_container_header_exit_2(workspace, capsys, case, command):
    tmp_path, config, data = workspace
    bad = tmp_path / "bad.umc"
    _write_umc1(bad, MALFORMED_HEADERS[case])
    if command == "pretrain":
        argv = ["pretrain", "--config", str(config), "--data", str(bad),
                "--out-dir", str(tmp_path / "o")]
    else:
        argv = ["probe", "--checkpoint", str(bad), "--data", str(data),
                "--out", str(tmp_path / "p.json")]
    assert main(argv) == 2
    assert "error: corrupt header" in capsys.readouterr().err


def test_dataset_without_arrays_exit_2(workspace, capsys):
    tmp_path, config, data = workspace
    header, _ = read_container(data)
    header["arrays"] = []
    _write_umc1(data, header)
    code = main(
        ["pretrain", "--config", str(config), "--data", str(data),
         "--out-dir", str(tmp_path / "o")]
    )
    assert code == 2
    assert "dataset file lacks 'means'" in capsys.readouterr().err


def test_checkpoint_without_arrays_exit_2(workspace, capsys):
    tmp_path, config, data = workspace
    ckpt = _fresh_checkpoint(tmp_path, config)
    header, _ = read_container(ckpt)
    header["arrays"] = []
    _write_umc1(ckpt, header)
    code = main(
        ["probe", "--checkpoint", str(ckpt), "--data", str(data),
         "--out", str(tmp_path / "p.json")]
    )
    assert code == 2
    assert "checkpoint file lacks" in capsys.readouterr().err


BAD_CHECKPOINT_HEADERS = {
    "queue_not_object": lambda h: h.update(queue=5),
    "cursor_not_int": lambda h: h.update(queue={"cursor": "x"}),
    "negative_step": lambda h: h.update(step=-1),
    # one past the 16 steps (2 epochs of 192 // 24) of SMALL_CONFIG's run
    "step_past_end": lambda h: h.update(step=(192 // 24) * 2 + 1),
    "no_config": lambda h: h.pop("config"),
    "trunk_w_transposed": lambda h: _entry(h, "q.trunk.0.w")["shape"].reverse(),
    "labels_as_f8": lambda h: _entry(h, "queue.labels").update(dtype="f8"),
    # a layout of 2**20-wide arrays (about 0.5 GB), within the element
    # budget: the peak memory bound below shows it is checked, not allocated
    "embed_dim_huge": lambda h: h["config"]["model"].update(embed_dim=2**20),
    "batch_over_n_train": lambda h: h["config"].update(
        dataset=BATCH_OVER_N_TRAIN["dataset"], train=BATCH_OVER_N_TRAIN["train"]
    ),
    "knn_k_over_n_train": lambda h: h["config"].update(
        dataset=KNN_OVER_N_TRAIN["dataset"], probe=KNN_OVER_N_TRAIN["probe"]
    ),
}
# the cases refused by a config rule, not by the checkpoint's own checks
BAD_CHECKPOINT_CONFIG_ERRORS = {
    "batch_over_n_train": "config error: train.batch_size: must be <= dataset.n_train",
    "knn_k_over_n_train": "config error: probe.knn_k: must be <= dataset.n_train",
}


@pytest.mark.parametrize("case", sorted(BAD_CHECKPOINT_HEADERS))
def test_bad_checkpoint_header_exit_2(workspace, capsys, case):
    tmp_path, config, data = workspace
    ckpt = _fresh_checkpoint(tmp_path, config)
    _edit_header(ckpt, BAD_CHECKPOINT_HEADERS[case])
    tracemalloc.start()
    try:
        code = main(
            ["probe", "--checkpoint", str(ckpt), "--data", str(data),
             "--out", str(tmp_path / "p.json")]
        )
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert peak < 50 * 2**20
    err = capsys.readouterr().err
    assert err.startswith(BAD_CHECKPOINT_CONFIG_ERRORS.get(case, "error: "))
    assert "Traceback" not in err and "out of memory" not in err


def test_resume_from_checkpoint_with_shifted_cursor_exit_2(workspace, capsys):
    # each step pushes one batch of 24 keys into the 48-row queue, so at
    # step 7 the cursor is 7 * 24 % 48 = 24; resuming at 0 would overwrite
    # the newest keys and leave the run unlike an uninterrupted one
    tmp_path, config, data = workspace
    base = ["pretrain", "--config", str(config), "--data", str(data),
            "--out-dir", str(tmp_path / "run")]
    assert main(base + ["--max-steps", "7"]) == 0
    ckpt = tmp_path / "step7.umc"
    shutil.copy(tmp_path / "run" / "checkpoint.umc", ckpt)
    assert read_container(ckpt)[0]["queue"] == {"cursor": 24}
    _edit_header(ckpt, lambda h: h["queue"].update(cursor=0))
    assert main(base + ["--resume", str(ckpt)]) == 2
    err = capsys.readouterr().err
    assert "error: checkpoint queue cursor must be 24 at step 7" in err
    assert load_checkpoint(tmp_path / "run" / "checkpoint.umc")[0].step == 7


def test_checkpoint_asking_for_endless_probe_exit_2(workspace, capsys):
    # a probe.epochs of 2**40 would train the linear probe without end
    tmp_path, config, data = workspace
    ckpt = _fresh_checkpoint(tmp_path, config)
    _edit_header(ckpt, lambda h: h["config"]["probe"].update(epochs=2**40))
    code = main(
        ["probe", "--checkpoint", str(ckpt), "--data", str(data),
         "--out", str(tmp_path / "p.json")]
    )
    assert code == 2
    assert "config error: probe.epochs:" in capsys.readouterr().err


def test_dataset_with_reshaped_train_x_exit_2(workspace, capsys):
    # the same bytes declared as (2n, d/2) instead of (n, d)
    tmp_path, config, data = workspace
    _edit_header(
        data, lambda h: _entry(h, "train_x").update(shape=[2 * 192, 8 // 2])
    )
    code = main(
        ["pretrain", "--config", str(config), "--data", str(data),
         "--out-dir", str(tmp_path / "o")]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert "dataset array 'train_x' has shape (384, 4)" in err
    assert "Traceback" not in err


def _rewrite_array(path, name, edit):
    """Rewrite one array of a container in place, keeping everything else."""
    header, arrays = read_container(path)
    order = [e["name"] for e in header.pop("arrays")]
    del header["format_version"]
    edit(arrays[name])
    write_container(path, header, [(n, arrays[n]) for n in order])


def _set(index, value):
    return lambda a: a.__setitem__(index, value)


BAD_DATASET_VALUES = {
    "train_y_above_n_classes": ("train_y", _set(0, 7), "labels outside [0, 3)"),
    "test_y_negative": ("test_y", _set(4, -3), "labels outside [0, 3)"),
    "train_x_nan": ("train_x", _set((3, 2), np.nan), "non-finite"),
    "test_x_inf": ("test_x", _set((0, 0), -np.inf), "non-finite"),
    "means_nan": ("means", _set((1, 5), np.nan), "non-finite"),
}


@pytest.mark.parametrize("command", ["pretrain", "probe"])
@pytest.mark.parametrize("case", sorted(BAD_DATASET_VALUES))
def test_dataset_with_bad_values_exit_2(workspace, capsys, case, command):
    tmp_path, config, data = workspace
    name, edit, message = BAD_DATASET_VALUES[case]
    _rewrite_array(data, name, edit)
    if command == "pretrain":
        argv = ["pretrain", "--config", str(config), "--data", str(data),
                "--out-dir", str(tmp_path / "o")]
    else:
        argv = ["probe", "--checkpoint", str(_fresh_checkpoint(tmp_path, config)),
                "--data", str(data), "--out", str(tmp_path / "p.json")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"dataset array {name!r} holds {message}" in err
    assert "Traceback" not in err


BAD_CHECKPOINT_VALUES = {
    "trunk_w_nan": ("q.trunk.0.w", _set((2, 3), np.nan)),
    "velocity_inf": ("v.proj.1.b", _set(0, np.inf)),
    "queue_features_nan": ("queue.features", _set((5, 1), np.nan)),
}


@pytest.mark.parametrize("command", ["pretrain", "probe"])
@pytest.mark.parametrize("case", sorted(BAD_CHECKPOINT_VALUES))
def test_checkpoint_with_non_finite_values_exit_2(workspace, capsys, case, command):
    tmp_path, config, data = workspace
    name, edit = BAD_CHECKPOINT_VALUES[case]
    ckpt = _fresh_checkpoint(tmp_path, config)
    _rewrite_array(ckpt, name, edit)
    if command == "pretrain":
        argv = ["pretrain", "--config", str(config), "--data", str(data),
                "--out-dir", str(tmp_path / "o"), "--resume", str(ckpt)]
    else:
        argv = ["probe", "--checkpoint", str(ckpt), "--data", str(data),
                "--out", str(tmp_path / "p.json")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"checkpoint array {name!r} holds non-finite values" in err
    assert "Traceback" not in err


BAD_QUEUE_VALUES = {
    "feature_off_unit_norm": ("queue.features", _set((0, 0), 0.5), "not unit-norm"),
    "feature_huge": ("queue.features", _set((0, 0), 1e300), "not unit-norm"),
    "label_above_n_classes": ("queue.labels", _set(0, 7), "labels outside [-1, 3)"),
    "label_below_unlabeled": ("queue.labels", _set(0, -5), "labels outside [-1, 3)"),
}


@pytest.mark.parametrize("case", sorted(BAD_QUEUE_VALUES))
def test_checkpoint_breaking_queue_rules_exit_2(workspace, capsys, case):
    # finite values that push_batch would never have stored; the huge one
    # must be rejected without an overflow warning
    tmp_path, config, data = workspace
    name, edit, message = BAD_QUEUE_VALUES[case]
    ckpt = _fresh_checkpoint(tmp_path, config)
    _rewrite_array(ckpt, name, edit)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(
            ["pretrain", "--config", str(config), "--data", str(data),
             "--out-dir", str(tmp_path / "o"), "--resume", str(ckpt)]
        )
    assert code == 2
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err


@pytest.mark.parametrize("value", [1e300, 1e160])
def test_probe_on_overflowing_weights_exit_2(workspace, capsys, value):
    # finite weights whose trunk features (1e300) or their squared row norms
    # (1e160) overflow: the probes must not score inf/nan features
    tmp_path, config, data = workspace
    ckpt = _fresh_checkpoint(tmp_path, config)
    _rewrite_array(ckpt, "q.trunk.0.w", _set((0, 0), value))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(
            ["probe", "--checkpoint", str(ckpt), "--data", str(data),
             "--out", str(tmp_path / "p.json")]
        )
    assert code == 2
    assert capsys.readouterr().err.startswith("error: trunk features overflow")
    assert not (tmp_path / "p.json").exists()


def _fs_error_argv(case, tmp_path, config, data):
    """A command that must exit 2: a path names a file where a directory is
    expected or the reverse, or the loss list is empty."""
    a_dir = tmp_path / "a_dir"
    a_dir.mkdir()
    run = ["--config", str(config), "--data", str(data)]
    compare = ["compare", *run, "--losses", "unicon", "--alphas", "0", "--seeds", "0"]
    return {
        "pretrain_out_dir_is_file": ["pretrain", *run, "--out-dir", str(data)],
        "compare_out_dir_is_file": [*compare, "--out-dir", str(data)],
        "data_is_dir": ["pretrain", "--config", str(config), "--data", str(a_dir),
                        "--out-dir", str(tmp_path / "o")],
        "config_is_dir": ["pretrain", "--config", str(a_dir), "--data", str(data),
                          "--out-dir", str(tmp_path / "o")],
        "probe_out_is_dir": ["probe", "--checkpoint",
                             str(_fresh_checkpoint(tmp_path, config)),
                             "--data", str(data), "--out", str(a_dir)],
        "gen_data_out_is_dir": ["gen-data", "--spec", str(config), "--out", str(a_dir)],
        "compare_without_losses": ["compare", *run, "--losses", "",
                                   "--out-dir", str(tmp_path / "c")],
    }[case]


@pytest.mark.parametrize(
    "case, message",
    [
        ("pretrain_out_dir_is_file", "File exists"),
        ("compare_out_dir_is_file", "File exists"),
        ("data_is_dir", "Is a directory"),
        ("config_is_dir", "Is a directory"),
        ("probe_out_is_dir", "Is a directory"),
        ("gen_data_out_is_dir", "Is a directory"),
        ("compare_without_losses", "need at least one loss"),
    ],
)
def test_path_errors_exit_2(workspace, capsys, case, message):
    tmp_path, config, data = workspace
    assert main(_fs_error_argv(case, tmp_path, config, data)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert list(tmp_path.rglob("*.tmp.*")) == []  # no temp file left behind


def _to_parent_layout(data, ckpt):
    """Rewrite both files as earlier versions wrote them: the dataset with a
    train_labels array, the checkpoint header with dims, rng and inserted."""
    header, arrays = read_container(data)
    del header["format_version"], header["arrays"]
    names = ["means", "train_x", "train_y", "train_labels", "test_x", "test_y"]
    arrays["train_labels"] = arrays["train_y"].copy()
    write_container(data, header, [(n, arrays[n]) for n in names])
    header, arrays = read_container(ckpt)
    order = [e["name"] for e in header.pop("arrays")]
    del header["format_version"]
    header["rng"] = {"seed": SMALL_CONFIG["train"]["seed"], "step": header["step"]}
    header["dims"] = {
        "input_dim": 8, "trunk": [16, 12], "proj_hidden": 12, "embed_dim": 8
    }
    header["queue"]["inserted"] = 48
    write_container(ckpt, header, [(n, arrays[n]) for n in order])


def test_parent_layout_files_load_and_resume_identically(workspace):
    tmp_path, config, data = workspace
    base = ["pretrain", "--config", str(config), "--out-dir"]
    assert main(base + [str(tmp_path / "a"), "--data", str(data),
                        "--max-steps", "5"]) == 0
    old_data, old_ckpt = tmp_path / "old_data.umc", tmp_path / "old_ckpt.umc"
    shutil.copy(data, old_data)
    shutil.copy(tmp_path / "a" / "checkpoint.umc", old_ckpt)
    _to_parent_layout(old_data, old_ckpt)
    assert "train_labels" in read_container(old_data)[1]
    assert "dims" in read_container(old_ckpt)[0]

    new_ds, old_ds = load_dataset(data), load_dataset(old_data)
    for name in ("means", "train_x", "train_y", "test_x", "test_y"):
        assert np.array_equal(getattr(new_ds, name), getattr(old_ds, name))
    assert main(base + [str(tmp_path / "new_run"), "--data", str(data),
                        "--resume", str(tmp_path / "a" / "checkpoint.umc")]) == 0
    assert main(base + [str(tmp_path / "old_run"), "--data", str(old_data),
                        "--resume", str(old_ckpt)]) == 0
    assert (tmp_path / "new_run" / "checkpoint.umc").read_bytes() == (
        tmp_path / "old_run" / "checkpoint.umc"
    ).read_bytes()
    assert (tmp_path / "new_run" / "metrics.csv").read_text() == (
        tmp_path / "old_run" / "metrics.csv"
    ).read_text()


def test_checkpoint_with_empty_dims_loads(workspace):
    # a header key that is no longer read, whatever its value
    tmp_path, config, data = workspace
    ckpt = _fresh_checkpoint(tmp_path, config)
    _edit_header(ckpt, lambda h: h.update(dims=[]))
    code = main(
        ["probe", "--checkpoint", str(ckpt), "--data", str(data),
         "--out", str(tmp_path / "p.json")]
    )
    assert code == 0


def test_repeated_resume_writes_each_step_once(workspace):
    # a run killed after a resume is resumed again from the same checkpoint
    tmp_path, config, data = workspace
    out = tmp_path / "run"
    base = ["pretrain", "--config", str(config), "--data", str(data),
            "--out-dir", str(out)]
    assert main(base + ["--max-steps", "5"]) == 0
    step5 = tmp_path / "step5.umc"
    shutil.copy(out / "checkpoint.umc", step5)
    for _ in range(2):
        assert main(base + ["--resume", str(step5), "--max-steps", "10"]) == 0
    assert [m.step for m in read_metrics(out / "metrics.csv")] == list(range(10))


def test_finished_run_checkpoint_loads_and_resumes_without_a_step(workspace):
    # step == cfg.total_steps is the last step a checkpoint can hold
    tmp_path, config, data = workspace
    out = tmp_path / "run"
    base = ["pretrain", "--config", str(config), "--data", str(data),
            "--out-dir", str(out)]
    assert main(base) == 0
    ckpt = out / "checkpoint.umc"
    finished, total = ckpt.read_bytes(), (192 // 24) * 2
    assert load_checkpoint(ckpt)[0].step == total
    assert main(base + ["--resume", str(ckpt)]) == 0
    assert ckpt.read_bytes() == finished
    assert [m.step for m in read_metrics(out / "metrics.csv")] == list(range(total))


@pytest.mark.parametrize("value", ["-1", "-100"])
def test_negative_max_steps_exit_2(workspace, capsys, value):
    tmp_path, config, data = workspace
    out = tmp_path / "run"
    code = main(
        ["pretrain", "--config", str(config), "--data", str(data),
         "--out-dir", str(out), "--max-steps", value]
    )
    assert code == 2
    assert "--max-steps: must be >= 0" in capsys.readouterr().err
    assert not out.exists()


def test_resume_from_step_zero_overwrites_unreadable_metrics(workspace, capsys):
    # a step-0 resume keeps no metrics row, so the old file is never read;
    # from a later step the rows before it must be read, and bad ones exit 2
    tmp_path, config, data = workspace
    out = tmp_path / "run"
    out.mkdir()
    metrics = out / "metrics.csv"
    metrics.write_bytes(b"\xff not a metrics file\n")
    base = ["pretrain", "--config", str(config), "--data", str(data),
            "--out-dir", str(out), "--max-steps", "3"]
    ckpt = _fresh_checkpoint(tmp_path, config)
    assert main(base + ["--resume", str(ckpt)]) == 0
    assert [m.step for m in read_metrics(metrics)] == [0, 1, 2]
    metrics.write_bytes(b"\xff not a metrics file\n")
    assert main(base + ["--resume", str(out / "checkpoint.umc")]) == 2
    assert capsys.readouterr().err.startswith("error: ")


# ---------------------------------------------------------------------------
# container fuzzing: a mutated file is rejected with exit 2 or runs


FUZZ_CONFIG = {
    "dataset": {**SMALL_CONFIG["dataset"], "n_train": 48, "n_test": 24},
    "model": SMALL_CONFIG["model"],
    "train": {**SMALL_CONFIG["train"], "epochs": 1},
    "probe": {"epochs": 2, "batch_size": 24, "knn_k": 3},
}

# JSON values of every type, plus NaN and out-of-range numbers
SWAP_VALUES = [None, True, "x", -1, 3, 2**40, 0.5, math.nan, math.inf, [], {}, [1]]
# float64 payload values: NaN and infinities, labels out of range, fractions
POKE_VALUES = [math.nan, math.inf, -math.inf, -1.0, 3.0, 7.0, 2.5, 1e300, -(2.0**60)]


@pytest.fixture(scope="module")
def fuzz_files(tmp_path_factory):
    base = tmp_path_factory.mktemp("fuzz")
    config = base / "run.json"
    config.write_text(json.dumps(FUZZ_CONFIG))
    data = base / "data.umc"
    assert main(["gen-data", "--spec", str(config), "--out", str(data)]) == 0
    ckpt = _fresh_checkpoint(base, config)
    return base, config, {"dataset": data, "checkpoint": ckpt}


def _json_paths(node, path=()):
    """The key/index path of every value inside a JSON document."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, value in items:
        yield path + (key,)
        yield from _json_paths(value, path + (key,))


def _mutate(blob, mutation):
    op, where, value = mutation
    if op == "flip":
        blob = bytearray(blob)
        blob[where % len(blob)] ^= value
        return bytes(blob)
    if op == "truncate":
        return blob[: where % len(blob)]
    header, payload = _split(blob)
    if op == "swap":
        paths = list(_json_paths(header))
        *parents, key = paths[where % len(paths)]
        node = header
        for step in parents:
            node = node[step]
        node[key] = value
        return _join(header, payload)
    # poke: overwrite one float64 of the payload
    offset = 8 * (where % (len(payload) // 8))
    raw = struct.pack("<d", value)
    return _join(header, payload[:offset] + raw + payload[offset + 8 :])


MUTATIONS = st.one_of(
    st.tuples(st.just("flip"), st.integers(0, 2**31), st.integers(1, 255)),
    st.tuples(st.just("truncate"), st.integers(0, 2**31), st.none()),
    st.tuples(st.just("swap"), st.integers(0, 2**31), st.sampled_from(SWAP_VALUES)),
    st.tuples(st.just("poke"), st.integers(0, 2**31), st.sampled_from(POKE_VALUES)),
)


@settings(max_examples=200)
@given(target=st.sampled_from(["dataset", "checkpoint"]), mutation=MUTATIONS)
def test_mutated_container_is_rejected_or_runs(fuzz_files, target, mutation):
    # Exit 0 or 2 and never a traceback. A mutation can also leave a
    # well-formed file with finite but huge values (a flipped exponent bit,
    # a poked 1e300); training from them overflows, which pretrain reports
    # as divergence, exit 3.
    base, config, valid = fuzz_files
    with tempfile.TemporaryDirectory(dir=base) as scratch:
        bad = f"{scratch}/bad.umc"
        with open(bad, "wb") as fh:
            fh.write(_mutate(valid[target].read_bytes(), mutation))
        files = {**{k: str(v) for k, v in valid.items()}, target: bad}
        runs = [
            ["probe", "--checkpoint", files["checkpoint"], "--data", files["dataset"],
             "--out", f"{scratch}/p.json"],
            ["pretrain", "--config", str(config), "--data", files["dataset"],
             "--out-dir", f"{scratch}/run", "--max-steps", "1"]
            + (["--resume", bad] if target == "checkpoint" else []),
        ]
        for argv in runs:
            err = io.StringIO()
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                code = main(argv)
            allowed = (0, 2, 3) if argv[0] == "pretrain" else (0, 2)
            assert code in allowed, (argv[0], code, err.getvalue())
            assert "Traceback" not in err.getvalue()


def test_usage_errors_exit_2(capsys):
    assert main([]) == 2
    assert main(["unknown-command"]) == 2
    assert main(["pretrain"]) == 2
    capsys.readouterr()


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "gen-data" in capsys.readouterr().out


def test_console_script_entry_point(tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(SMALL_CONFIG["dataset"]))
    out = tmp_path / "d.umc"
    proc = subprocess.run(
        [sys.executable, "-m", "conlab.cli", "gen-data", "--spec", str(spec),
         "--out", str(out)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert out.exists()
    assert "wrote" in proc.stdout


def test_config_digest_matches_manifest(workspace):
    tmp_path, config, data = workspace
    out = tmp_path / "run"
    assert main(
        ["pretrain", "--config", str(config), "--data", str(data),
         "--out-dir", str(out)]
    ) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    cfg = load_config(config)
    assert manifest["run_id"].endswith(config_digest(cfg)[:12])
