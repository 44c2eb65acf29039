"""On-disk formats: the UMC1 array container, metrics CSV, run manifest.

One container format serves datasets and checkpoints: the magic ``UMC1``,
a 4-byte little-endian header length, a canonical-JSON header that declares
every array (name, shape, logical dtype), then the arrays' raw bytes as
little-endian float64 in declared order. Integer arrays ride along as
float64 — exact for anything representable in 53 bits, which labels and
counters are — and are cast back on load. Headers are canonicalized
(sorted keys), so save → load → save is byte-identical.

All writes go through a temp file + rename; a crash never leaves a
truncated artifact under the final name.
"""

from __future__ import annotations

import json
import math
import os
import struct
from dataclasses import asdict

import numpy as np

from . import __version__
from .config import (
    RunConfig,
    canonical_json,
    config_from_dict,
    config_to_dict,
    run_id,
)
from .model import EncoderParams
from .pipeline import Dataset, StepMetrics, TrainState
from .queues import PairQueue

MAGIC = b"UMC1"
FORMAT_VERSION = 1


class StorageError(ValueError):
    """Malformed, truncated, or mismatched container files."""


def atomic_write_bytes(path, data: bytes) -> None:
    path = os.fspath(path)
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "wb") as fh:
        fh.write(data)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)


def atomic_write_text(path, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


def write_container(path, header: dict, arrays) -> None:
    """arrays: ordered (name, ndarray) pairs; float64 or int64 only."""
    manifest = []
    blobs = []
    for name, arr in arrays:
        arr = np.asarray(arr)
        if arr.dtype == np.float64:
            logical = "f8"
        elif arr.dtype == np.int64:
            logical = "i8"
            if arr.size and np.abs(arr).max() >= 2**53:
                raise StorageError(f"integer array {name} exceeds exact f8 range")
        else:
            raise StorageError(f"unsupported dtype {arr.dtype} for array {name}")
        manifest.append({"name": name, "shape": list(arr.shape), "dtype": logical})
        blobs.append(np.ascontiguousarray(arr, dtype="<f8").tobytes())
    full = dict(header)
    full["format_version"] = FORMAT_VERSION
    full["arrays"] = manifest
    hjson = canonical_json(full).encode("utf-8")
    payload = MAGIC + struct.pack("<I", len(hjson)) + hjson + b"".join(blobs)
    atomic_write_bytes(path, payload)


def read_container(path):
    """Returns (header dict, {name: array}); validates framing strictly."""
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < 8 or data[:4] != MAGIC:
        raise StorageError("bad magic: not a UMC1 container")
    (hlen,) = struct.unpack("<I", data[4:8])
    if len(data) < 8 + hlen:
        raise StorageError("truncated file: header cut short")
    try:
        header = json.loads(data[8 : 8 + hlen].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise StorageError(f"corrupt header: {exc}") from exc
    if not isinstance(header, dict):
        raise StorageError("corrupt header: not a JSON object")
    if header.get("format_version") != FORMAT_VERSION:
        raise StorageError(
            f"unsupported format version {header.get('format_version')!r}"
        )
    entries = header.get("arrays")
    if not isinstance(entries, list):
        raise StorageError("corrupt header: 'arrays' is not a list")
    for i, entry in enumerate(entries):
        if not (
            isinstance(entry, dict)
            and isinstance(entry.get("name"), str)
            and isinstance(entry.get("shape"), list)
            and all(type(n) is int and n >= 0 for n in entry["shape"])
            and entry.get("dtype") in ("f8", "i8")
        ):
            raise StorageError(
                f"corrupt header: array entry {i} needs a string name, a list "
                f"of non-negative integer shape and dtype f8 or i8"
            )
    offset = 8 + hlen
    arrays = {}
    for entry in entries:
        shape = tuple(entry["shape"])
        nbytes = math.prod(shape) * 8
        if offset + nbytes > len(data):
            raise StorageError(f"truncated file: array {entry['name']} cut short")
        arr = np.frombuffer(data[offset : offset + nbytes], dtype="<f8").reshape(
            shape
        )
        arr = arr.astype(np.float64)  # native order, writable copy
        if entry["dtype"] == "i8":
            arr = arr.astype(np.int64)
        arrays[entry["name"]] = arr
        offset += nbytes
    if offset != len(data):
        raise StorageError("trailing data after declared arrays")
    return header, arrays


# ---------------------------------------------------------------------------
# datasets


def save_dataset(path, dataset: Dataset) -> None:
    header = {"kind": "dataset", "spec": asdict(dataset.spec)}
    write_container(
        path,
        header,
        [
            ("means", dataset.means),
            ("train_x", dataset.train_x),
            ("train_y", dataset.train_y),
            ("train_labels", dataset.train_labels),
            ("test_x", dataset.test_x),
            ("test_y", dataset.test_y),
        ],
    )


def load_dataset(path) -> Dataset:
    header, arrays = read_container(path)
    if header.get("kind") != "dataset":
        raise StorageError(f"not a dataset file (kind={header.get('kind')!r})")
    try:
        spec = config_from_dict({"dataset": header["spec"]}).dataset
        return Dataset(
            spec=spec,
            means=arrays["means"],
            train_x=arrays["train_x"],
            train_y=arrays["train_y"],
            train_labels=arrays["train_labels"],
            test_x=arrays["test_x"],
            test_y=arrays["test_y"],
        )
    except KeyError as exc:
        raise StorageError(f"dataset file lacks {exc}") from None


# ---------------------------------------------------------------------------
# checkpoints


def _param_arrays(prefix: str, params: EncoderParams):
    out = []
    for i, (w, b) in enumerate(params.trunk):
        out.append((f"{prefix}.trunk.{i}.w", w))
        out.append((f"{prefix}.trunk.{i}.b", b))
    for i, (w, b) in enumerate(params.proj):
        out.append((f"{prefix}.proj.{i}.w", w))
        out.append((f"{prefix}.proj.{i}.b", b))
    return out


def _params_from_arrays(prefix: str, arrays, n_trunk: int) -> EncoderParams:
    trunk = tuple(
        (arrays[f"{prefix}.trunk.{i}.w"], arrays[f"{prefix}.trunk.{i}.b"])
        for i in range(n_trunk)
    )
    proj = tuple(
        (arrays[f"{prefix}.proj.{i}.w"], arrays[f"{prefix}.proj.{i}.b"])
        for i in range(2)
    )
    return EncoderParams(trunk=trunk, proj=proj)


def save_checkpoint(path, state: TrainState, cfg: RunConfig) -> None:
    """All training state in one container; the rng needs no raw state —
    streams are derived from (config seed, step), both recorded here."""
    header = {
        "kind": "checkpoint",
        "config": config_to_dict(cfg),
        "step": state.step,
        "rng": {"seed": cfg.train.seed, "step": state.step},
        "dims": {
            "input_dim": state.params_q.input_dim,
            "trunk": [w.shape[1] for w, _ in state.params_q.trunk],
            "proj_hidden": state.params_q.proj[0][0].shape[1],
            "embed_dim": state.params_q.embed_dim,
        },
        "queue": {"cursor": state.queue.cursor, "inserted": state.queue.inserted},
    }
    arrays = (
        _param_arrays("q", state.params_q)
        + _param_arrays("k", state.params_k)
        + _param_arrays("v", state.velocity)
        + [
            ("queue.features", state.queue.features),
            ("queue.labels", state.queue.labels),
        ]
    )
    write_container(path, header, arrays)


def load_checkpoint(path) -> tuple[TrainState, RunConfig]:
    header, arrays = read_container(path)
    if header.get("kind") != "checkpoint":
        raise StorageError(f"not a checkpoint file (kind={header.get('kind')!r})")
    try:
        cfg = config_from_dict(header["config"])
        n_trunk = len(header["dims"]["trunk"])
        queue = PairQueue(
            features=arrays["queue.features"],
            labels=arrays["queue.labels"],
            cursor=int(header["queue"]["cursor"]),
            inserted=int(header["queue"]["inserted"]),
        )
        state = TrainState(
            params_q=_params_from_arrays("q", arrays, n_trunk),
            params_k=_params_from_arrays("k", arrays, n_trunk),
            velocity=_params_from_arrays("v", arrays, n_trunk),
            queue=queue,
            step=int(header["step"]),
        )
    except KeyError as exc:
        raise StorageError(f"checkpoint file lacks {exc}") from None
    return state, cfg


# ---------------------------------------------------------------------------
# metrics CSV

METRICS_HEADER = "step,epoch,loss,mean_positives,grad_norm,lr"


def format_metrics_row(m: StepMetrics) -> str:
    # repr() floats round-trip exactly, which the resume-equality contract
    # depends on.
    return (
        f"{m.step},{m.epoch},{m.loss!r},{m.mean_positives!r},"
        f"{m.grad_norm!r},{m.lr!r}"
    )


class MetricsWriter:
    """Append-only CSV sink, flushed per row so a dying run keeps its tail."""

    def __init__(self, path, append: bool = False):
        self.path = os.fspath(path)
        exists = os.path.exists(self.path) and os.path.getsize(self.path) > 0
        self._fh = open(self.path, "a" if append else "w", encoding="utf-8")
        if not (append and exists):
            self._fh.write(METRICS_HEADER + "\n")
            self._fh.flush()

    def write(self, m: StepMetrics) -> None:
        self._fh.write(format_metrics_row(m) + "\n")
        self._fh.flush()

    def close(self) -> None:
        self._fh.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False


def truncate_metrics(path, step: int) -> None:
    """Keep only the rows before `step`, so that a run resumed from a
    checkpoint at `step` appends each later step exactly once."""
    if not os.path.exists(path):
        return
    rows = [format_metrics_row(m) for m in read_metrics(path) if m.step < step]
    atomic_write_text(path, "".join(f"{line}\n" for line in [METRICS_HEADER] + rows))


def read_metrics(path) -> list[StepMetrics]:
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != METRICS_HEADER:
            raise StorageError(f"unexpected metrics header: {header!r}")
        for line in fh:
            line = line.strip()
            if not line:
                continue
            step, epoch, loss, mean_pos, gnorm, lr = line.split(",")
            rows.append(
                StepMetrics(
                    step=int(step),
                    epoch=int(epoch),
                    loss=float(loss),
                    mean_positives=float(mean_pos),
                    grad_norm=float(gnorm),
                    lr=float(lr),
                )
            )
    return rows


# ---------------------------------------------------------------------------
# run manifest


def write_manifest(path, cfg: RunConfig, files: dict) -> dict:
    manifest = {
        "run_id": run_id(cfg),
        "config": config_to_dict(cfg),
        "files": dict(files),
        "tool_version": __version__,
    }
    atomic_write_text(path, json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return manifest


__all__ = [
    "FORMAT_VERSION",
    "MAGIC",
    "METRICS_HEADER",
    "MetricsWriter",
    "StorageError",
    "atomic_write_bytes",
    "atomic_write_text",
    "format_metrics_row",
    "load_checkpoint",
    "load_dataset",
    "read_container",
    "read_metrics",
    "save_checkpoint",
    "save_dataset",
    "truncate_metrics",
    "write_container",
    "write_manifest",
]
