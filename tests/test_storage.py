"""Container format, checkpoints, metrics CSV, manifest."""

import json
import struct
from dataclasses import asdict, replace
from itertools import combinations

import numpy as np
import pytest
from conftest import params_equal

from conlab.config import ConfigError, RunConfig, config_digest, with_train
from conlab.pipeline import StepMetrics, check_dataset_matches, init_state, pretrain
from conlab.storage import (
    FORMAT_VERSION,
    MAGIC,
    METRICS_HEADER,
    MetricsWriter,
    StorageError,
    format_metrics_row,
    load_checkpoint,
    load_dataset,
    read_container,
    read_metrics,
    save_checkpoint,
    save_dataset,
    write_container,
    write_manifest,
)


# ---------------------------------------------------------------------------
# container framing


def test_container_roundtrip_preserves_dtypes(tmp_path):
    path = tmp_path / "c.umc"
    f = np.random.default_rng(0).normal(size=(3, 4))
    i = np.array([[-5, 0, 2**52]], dtype=np.int64)
    write_container(path, {"kind": "test"}, [("f", f), ("i", i)])
    header, arrays = read_container(path)
    assert header["kind"] == "test"
    assert header["format_version"] == FORMAT_VERSION
    assert arrays["f"].dtype == np.float64
    assert arrays["i"].dtype == np.int64
    assert np.array_equal(arrays["f"], f)
    assert np.array_equal(arrays["i"], i)


@pytest.mark.parametrize("value", [2.5, np.nan, np.inf, 2.0**60])
def test_integer_array_holding_a_non_integer_rejected(tmp_path, value):
    # an i8 entry whose float64 payload is no integer below 2**53
    path = tmp_path / "c.umc"
    write_container(path, {"kind": "test"}, [("i", np.array([1.0, value]))])
    data = path.read_bytes()
    patched = data.replace(b'"dtype":"f8"', b'"dtype":"i8"')
    assert patched != data
    path.write_bytes(patched)
    with pytest.raises(StorageError, match="integer array 'i' holds a non-integer"):
        read_container(path)


def test_container_starts_with_magic(tmp_path):
    path = tmp_path / "c.umc"
    write_container(path, {}, [("a", np.zeros(2))])
    assert path.read_bytes()[:4] == MAGIC


def test_container_save_load_save_byte_identical(tmp_path):
    a, b = tmp_path / "a.umc", tmp_path / "b.umc"
    arr = np.random.default_rng(1).normal(size=(5, 2))
    write_container(a, {"kind": "test", "z": 1, "a": 2}, [("x", arr)])
    header, arrays = read_container(a)
    write_container(
        b, {k: v for k, v in header.items() if k not in ("format_version", "arrays")},
        list(arrays.items()),
    )
    assert a.read_bytes() == b.read_bytes()


def test_container_rejects_bad_magic(tmp_path):
    path = tmp_path / "c.umc"
    write_container(path, {}, [("a", np.zeros(2))])
    data = path.read_bytes()
    path.write_bytes(b"XXXX" + data[4:])
    with pytest.raises(StorageError, match="not a UMC1 container"):
        read_container(path)


def test_container_rejects_truncation(tmp_path):
    path = tmp_path / "c.umc"
    write_container(path, {}, [("a", np.arange(4, dtype=np.float64))])
    data = path.read_bytes()
    path.write_bytes(data[:-8])
    with pytest.raises(StorageError, match="truncated file"):
        read_container(path)
    path.write_bytes(data[:6])
    with pytest.raises(StorageError, match="truncated|not a UMC1"):
        read_container(path)


def test_container_rejects_trailing_data(tmp_path):
    path = tmp_path / "c.umc"
    write_container(path, {}, [("a", np.zeros(3))])
    path.write_bytes(path.read_bytes() + b"\x00" * 8)
    with pytest.raises(StorageError, match="trailing data"):
        read_container(path)


def test_container_rejects_future_version(tmp_path):
    path = tmp_path / "c.umc"
    header = {"format_version": FORMAT_VERSION + 1, "arrays": []}
    hjson = json.dumps(header).encode()
    path.write_bytes(MAGIC + struct.pack("<I", len(hjson)) + hjson)
    with pytest.raises(StorageError, match="unsupported format version"):
        read_container(path)


@pytest.mark.parametrize("version", [True, 1.0], ids=["true", "float"])
def test_container_rejects_a_format_version_that_is_not_an_integer(tmp_path, version):
    # both equal 1 in Python; the header must hold the JSON integer itself
    path = tmp_path / "c.umc"
    hjson = json.dumps({"format_version": version, "arrays": []}).encode()
    path.write_bytes(MAGIC + struct.pack("<I", len(hjson)) + hjson)
    with pytest.raises(StorageError) as exc:
        read_container(path)
    assert str(exc.value) == f"unsupported format version {version!r}"


def test_container_rejects_unsupported_dtype(tmp_path):
    with pytest.raises(StorageError, match="unsupported dtype"):
        write_container(
            tmp_path / "c.umc", {}, [("a", np.zeros(3, dtype=np.float32))]
        )


def test_container_rejects_oversized_ints(tmp_path):
    with pytest.raises(StorageError, match="exceeds exact f8 range"):
        write_container(
            tmp_path / "c.umc", {}, [("a", np.array([2**53], dtype=np.int64))]
        )


def test_container_no_temp_files_left(tmp_path):
    write_container(tmp_path / "c.umc", {}, [("a", np.zeros(2))])
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.umc"]


# ---------------------------------------------------------------------------
# datasets


def test_dataset_roundtrip(tmp_path, small_dataset):
    path = tmp_path / "data.umc"
    save_dataset(path, small_dataset)
    loaded = load_dataset(path)
    assert loaded.spec == small_dataset.spec
    for name in ("means", "train_x", "train_y", "test_x", "test_y"):
        assert np.array_equal(getattr(loaded, name), getattr(small_dataset, name))
    assert loaded.train_y.dtype == np.int64


def test_dataset_save_load_save_byte_identical(tmp_path, small_dataset):
    a, b = tmp_path / "a.umc", tmp_path / "b.umc"
    save_dataset(a, small_dataset)
    save_dataset(b, load_dataset(a))
    assert a.read_bytes() == b.read_bytes()


def test_dataset_kind_enforced(tmp_path):
    path = tmp_path / "x.umc"
    write_container(path, {"kind": "checkpoint"}, [("a", np.zeros(1))])
    with pytest.raises(StorageError, match="not a dataset file"):
        load_dataset(path)


def test_dataset_spec_is_not_bounded_by_the_default_model(tmp_path):
    # a valid spec of 2**20 inputs, which the default model's parameter
    # count could not take, is checked alone: the file fails on its arrays
    path = tmp_path / "d.umc"
    spec = {"input_dim": 2**20, "n_train": 64, "n_test": 64}
    write_container(path, {"kind": "dataset", "spec": spec}, [])
    with pytest.raises(StorageError, match="dataset file lacks 'means'"):
        load_dataset(path)


# ---------------------------------------------------------------------------
# checkpoints


def test_checkpoint_roundtrip(tmp_path, small_cfg, small_dataset):
    state = pretrain(small_dataset, small_cfg, max_steps=12)
    path = tmp_path / "ck.umc"
    save_checkpoint(path, state, small_cfg)
    loaded_state, loaded_cfg = load_checkpoint(path)
    assert loaded_cfg == small_cfg
    assert loaded_state.step == state.step
    assert params_equal(loaded_state.params_q, state.params_q)
    assert params_equal(loaded_state.params_k, state.params_k)
    assert params_equal(loaded_state.velocity, state.velocity)
    trees = (loaded_state.params_q, loaded_state.params_k, loaded_state.velocity)
    saved = (state.params_q, state.params_k, state.velocity)
    for tree, before in zip(trees, saved):
        assert np.array_equal(tree.flat, before.flat)
    for a, b in combinations(trees, 2):
        assert not np.shares_memory(a.flat, b.flat)
    assert np.array_equal(loaded_state.queue.features, state.queue.features)
    assert np.array_equal(loaded_state.queue.labels, state.queue.labels)
    assert loaded_state.queue.cursor == state.queue.cursor
    assert loaded_state.queue.labels.dtype == np.int64


def test_checkpoint_save_load_save_byte_identical(tmp_path, small_cfg, small_dataset):
    state = pretrain(small_dataset, small_cfg, max_steps=5)
    a, b = tmp_path / "a.umc", tmp_path / "b.umc"
    save_checkpoint(a, state, small_cfg)
    loaded_state, loaded_cfg = load_checkpoint(a)
    save_checkpoint(b, loaded_state, loaded_cfg)
    assert a.read_bytes() == b.read_bytes()


LAYER_STEMS = {
    1: ["trunk.0", "proj.0", "proj.1"],
    3: ["trunk.0", "trunk.1", "trunk.2", "proj.0", "proj.1"],
}


@pytest.mark.parametrize("depth", sorted(LAYER_STEMS))
def test_checkpoint_array_names_and_order(tmp_path, small_cfg, depth):
    # the stored names are the file format: a rename must fail here, since
    # save -> load -> save stays byte-identical under any consistent naming
    trunk = (6, 5, 4)[:depth]
    cfg = replace(small_cfg, model=replace(small_cfg.model, trunk=trunk))
    path = tmp_path / "ck.umc"
    save_checkpoint(path, init_state(cfg), cfg)
    header, _ = read_container(path)
    params = [
        f"{tree}.{stem}.{leaf}"
        for tree in ("q", "k", "v")
        for stem in LAYER_STEMS[depth]
        for leaf in ("w", "b")
    ]
    assert [e["name"] for e in header["arrays"]] == params + [
        "queue.features",
        "queue.labels",
    ]


def test_checkpoint_header_records_rng_position(tmp_path, small_cfg, small_dataset):
    state = pretrain(small_dataset, small_cfg, max_steps=7)
    path = tmp_path / "ck.umc"
    save_checkpoint(path, state, small_cfg)
    header, _ = read_container(path)
    assert header["kind"] == "checkpoint"
    # the rng position is (config seed, step): both are recorded once
    assert header["config"]["train"]["seed"] == small_cfg.train.seed
    assert header["step"] == 7
    digest = config_digest(small_cfg)
    from conlab.config import config_from_dict

    assert config_digest(config_from_dict(header["config"])) == digest


def test_checkpoint_kind_enforced(tmp_path, small_dataset):
    path = tmp_path / "x.umc"
    save_dataset(path, small_dataset)
    with pytest.raises(StorageError, match="not a checkpoint file"):
        load_checkpoint(path)


def test_save_checkpoint_refuses_state_that_does_not_fit_cfg(tmp_path):
    cfg = RunConfig()
    state = init_state(cfg)
    narrow = replace(cfg, model=replace(cfg.model, trunk=(64, 31)))
    with pytest.raises(StorageError, match=r"'q\.trunk\.1\.w' has shape"):
        save_checkpoint(tmp_path / "ck.umc", state, narrow)
    assert list(tmp_path.iterdir()) == []


def test_save_dataset_refuses_arrays_that_do_not_fit_spec(tmp_path, small_dataset):
    spec = replace(small_dataset.spec, n_train=small_dataset.spec.n_train + 1)
    with pytest.raises(StorageError, match="'train_x' has shape"):
        save_dataset(tmp_path / "d.umc", replace(small_dataset, spec=spec))
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("name, value", [("train_y", 9), ("test_y", -1)])
def test_save_dataset_refuses_labels_outside_n_classes(
    tmp_path, small_dataset, name, value
):
    # saving runs the loader's checks, so it never writes a file load refuses
    labels = getattr(small_dataset, name).copy()
    labels[0] = value
    with pytest.raises(StorageError, match=rf"'{name}' holds labels outside \[0, 3\)"):
        save_dataset(tmp_path / "d.umc", replace(small_dataset, **{name: labels}))
    assert list(tmp_path.iterdir()) == []


def _refusals(path, cfg, dataset):
    """What ``check_dataset_matches``, ``save_dataset`` and ``load_dataset``
    (of a file holding the same arrays) say of ``dataset``."""
    with pytest.raises(ConfigError) as checked:
        check_dataset_matches(cfg, dataset)
    with pytest.raises(StorageError) as saved:
        save_dataset(path, dataset)
    names = ["means", "train_x", "train_y", "test_x", "test_y"]
    arrays = [(name, np.asarray(getattr(dataset, name))) for name in names]
    write_container(path, {"kind": "dataset", "spec": asdict(dataset.spec)}, arrays)
    with pytest.raises(StorageError) as loaded:
        load_dataset(path)
    return checked.value.problems, str(saved.value), str(loaded.value)


def test_a_broken_dataset_array_gets_one_message_wherever_it_comes_from(
    tmp_path, small_cfg, broken_dataset
):
    dataset, message = broken_dataset
    assert _refusals(tmp_path / "d.umc", small_cfg, dataset) == (
        [message],
        message,
        message,
    )


def test_a_misshapen_dataset_array_gets_one_message_wherever_it_comes_from(
    tmp_path, small_cfg, misshapen_dataset
):
    rows = misshapen_dataset.train_y.size
    path = tmp_path / "d.umc"
    problems, saved, loaded = _refusals(path, small_cfg, misshapen_dataset)
    assert problems == [
        f"dataset array 'train_x' has shape ({rows}, 8) and dtype float64, "
        "expected (240, 8) and float64",
        f"dataset array 'train_y' has shape ({rows},) and dtype int64, "
        "expected (240,) and int64",
    ]
    assert saved == loaded == problems[0]


def test_save_checkpoint_refuses_state_past_the_last_step(
    tmp_path, small_cfg, small_dataset
):
    # 12 steps of small_cfg's run, saved under a 1-epoch (10-step) config
    state = pretrain(small_dataset, small_cfg, max_steps=12)
    one_epoch = with_train(small_cfg, epochs=1)
    with pytest.raises(StorageError, match=r"step must be an integer in \[0, 10\]"):
        save_checkpoint(tmp_path / "ck.umc", state, one_epoch)
    assert list(tmp_path.iterdir()) == []


def test_save_checkpoint_refuses_cursor_the_step_does_not_give(
    tmp_path, small_cfg, small_dataset
):
    # 5 pushes of 24 keys into a 48-row queue leave the cursor at 24
    state = pretrain(small_dataset, small_cfg, max_steps=5)
    assert state.queue.cursor == 24
    shifted = replace(state, queue=replace(state.queue, cursor=0))
    with pytest.raises(StorageError, match="queue cursor must be 24 at step 5"):
        save_checkpoint(tmp_path / "ck.umc", shifted, small_cfg)
    assert list(tmp_path.iterdir()) == []


# ---------------------------------------------------------------------------
# metrics CSV


def rows_fixture():
    return [
        StepMetrics(0, 0, 2.5, 1.0, 0.1234567891234567, 0.06),
        StepMetrics(1, 0, 2.25000001, 3.5, 1e-300, 0.059),
        StepMetrics(2, 1, 0.3333333333333333, 2.0, 123456.789, 1 / 3),
    ]


def test_metrics_roundtrip_exact(tmp_path):
    path = tmp_path / "m.csv"
    rows = rows_fixture()
    with MetricsWriter(path) as w:
        for m in rows:
            w.write(m)
    assert read_metrics(path) == rows
    text = path.read_text().splitlines()
    assert text[0] == METRICS_HEADER
    assert len(text) == 1 + len(rows)


def test_metrics_row_format_is_plain_repr():
    row = format_metrics_row(StepMetrics(3, 1, 0.06, 1.0, 2.0, 0.06))
    assert row == "3,1,0.06,1.0,2.0,0.06"


def test_metrics_resume_keeps_rows_before_start_step(tmp_path):
    path = tmp_path / "m.csv"
    rows = rows_fixture()
    with MetricsWriter(path) as w:
        for m in rows:
            w.write(m)
    before = path.read_text().splitlines(keepends=True)
    with MetricsWriter(path, start_step=2) as w:
        assert path.read_text() == "".join(before[:3])  # header, steps 0 and 1
        w.write(rows[2])
    assert path.read_text() == "".join(before)  # one header, each row once


@pytest.mark.parametrize(
    "torn_line, kept_bytes",
    [(-1, -30), (11, 20), (11, 1)],  # line 11 after the header's 0 is step 10
    ids=["last_row", "row_at_start_step", "step_of_row_at_start_step"],
)
def test_metrics_resume_drops_a_torn_row_past_start_step(
    tmp_path, small_cfg, small_dataset, torn_line, kept_bytes
):
    # a run killed mid-row leaves its last row torn, even the first row a run
    # resumed from step 10 writes; resuming from step 10 again drops that row
    # unparsed and writes it again whole
    path = tmp_path / "m.csv"
    with MetricsWriter(path) as w:
        pretrain(small_dataset, small_cfg, step_callback=w.write)
    whole = path.read_bytes()
    torn = whole.splitlines(keepends=True)[torn_line]
    path.write_bytes(whole[: whole.index(torn)] + torn[:kept_bytes])
    state = pretrain(small_dataset, small_cfg, max_steps=10)
    with MetricsWriter(path, start_step=10) as w:
        pretrain(small_dataset, small_cfg, state=state, step_callback=w.write)
    assert path.read_bytes() == whole


def test_metrics_resume_over_missing_file_writes_header(tmp_path):
    path = tmp_path / "m.csv"
    with MetricsWriter(path, start_step=5):
        pass
    assert path.read_text() == METRICS_HEADER + "\n"


def test_metrics_start_step_zero_ignores_unreadable_file(tmp_path):
    path = tmp_path / "m.csv"
    path.write_bytes(b"\xff\x00not a metrics file\n")
    with MetricsWriter(path, start_step=0):
        pass
    assert path.read_text() == METRICS_HEADER + "\n"


def test_metrics_fresh_mode_truncates(tmp_path):
    path = tmp_path / "m.csv"
    with MetricsWriter(path) as w:
        for m in rows_fixture():
            w.write(m)
    with MetricsWriter(path, start_step=0) as w:
        assert path.read_text() == METRICS_HEADER + "\n"
        w.write(rows_fixture()[0])
    assert len(read_metrics(path)) == 1


def test_metrics_bad_header_rejected(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("step,loss\n0,1.0\n")
    with pytest.raises(StorageError, match="unexpected metrics header"):
        read_metrics(path)


def test_metrics_header_text_is_stable():
    assert METRICS_HEADER == "step,epoch,loss,mean_positives,grad_norm,lr"


def test_metrics_row_with_wrong_column_count_rejected(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text(f"{METRICS_HEADER}\n0,0,2.5,1.0,0.1,0.06\n1,0,2.5,1.0,0.1\n")
    with pytest.raises(StorageError, match="metrics line 3: 5 columns, expected 6"):
        read_metrics(path)


# ---------------------------------------------------------------------------
# manifest


def test_manifest_contents(tmp_path):
    cfg = with_train(RunConfig(), seed=2)
    path = tmp_path / "manifest.json"
    written = write_manifest(path, cfg, {"checkpoint": "ck.umc"})
    on_disk = json.loads(path.read_text())
    assert on_disk == written
    assert on_disk["run_id"].startswith("s2-")
    assert on_disk["files"] == {"checkpoint": "ck.umc"}
    assert on_disk["config"]["train"]["seed"] == 2
