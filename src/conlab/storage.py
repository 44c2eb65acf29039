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

import itertools
import json
import math
import os
import struct
from dataclasses import asdict, fields
from typing import get_type_hints

import numpy as np

from . import __version__
from .config import (
    RunConfig,
    canonical_json,
    config_from_dict,
    config_to_dict,
    run_id,
    spec_from_dict,
)
from .model import EncoderParams, leaves
from .pipeline import Dataset, StepMetrics, TrainState, _array_problems, _dataset_layout
from .queues import UNIT_NORM_TOL, UNLABELED, PairQueue

MAGIC = b"UMC1"
FORMAT_VERSION = 1


class StorageError(ValueError):
    """Malformed, truncated, or mismatched container files."""


def atomic_write_bytes(path, data: bytes) -> None:
    path = os.fspath(path)
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        if os.path.isfile(tmp):
            os.remove(tmp)
        raise


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
    version = header.get("format_version")
    if type(version) is not int or version != FORMAT_VERSION:  # nor True, nor 1.0
        raise StorageError(f"unsupported format version {version!r}")
    entries = header.get("arrays")
    if not isinstance(entries, list):
        raise StorageError("corrupt header: 'arrays' is not a list")
    for i, entry in enumerate(entries):
        if not (
            isinstance(entry, dict)
            and isinstance(entry.get("name"), str)
            and isinstance(entry.get("shape"), list)
            and all(_is_count(n) for n in entry["shape"])
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
            if not np.all((np.abs(arr) < 2**53) & (np.trunc(arr) == arr)):
                raise StorageError(
                    f"integer array {entry['name']!r} holds a non-integer value"
                )
            arr = arr.astype(np.int64)
        arrays[entry["name"]] = arr
        offset += nbytes
    if offset != len(data):
        raise StorageError("trailing data after declared arrays")
    return header, arrays


def _is_count(value) -> bool:
    # a JSON integer, not a bool: array dims, checkpoint steps and cursors
    return type(value) is int and value >= 0


# ---------------------------------------------------------------------------
# datasets


def _decode_dataset(header: dict, arrays: dict) -> Dataset:
    """The Dataset a file's header and arrays describe, if they obey every rule."""
    if header.get("kind") != "dataset":
        raise StorageError(f"not a dataset file (kind={header.get('kind')!r})")
    if "spec" not in header:
        raise StorageError("dataset file lacks 'spec'")
    spec = spec_from_dict(header["spec"])
    layout = _dataset_layout(spec)
    if problems := _array_problems("dataset", arrays, layout):
        raise StorageError(problems[0])
    return Dataset(spec=spec, **{name: arrays[name] for name, _, _ in layout})


def save_dataset(path, dataset: Dataset) -> None:
    """Writes only what ``load_dataset`` would accept."""
    header = {"kind": "dataset", "spec": asdict(dataset.spec)}
    layout = _dataset_layout(dataset.spec)
    arrays = {name: getattr(dataset, name) for name, _, _ in layout}
    _decode_dataset(header, arrays)
    write_container(path, header, list(arrays.items()))


def load_dataset(path) -> Dataset:
    return _decode_dataset(*read_container(path))


# ---------------------------------------------------------------------------
# checkpoints


def _checkpoint_layout(cfg: RunConfig):
    """(name, shape, labels) of every array of a state trained under ``cfg``,
    in stored order: each layer of q, k and v (w, then b), then the queue."""
    m, q, dims = cfg.model, cfg.train.queue_size, cfg.layer_dims
    stems = [f"trunk.{i}" for i in range(len(m.trunk))] + ["proj.0", "proj.1"]
    layout = []
    for tree in "qkv":
        for stem, a, b in zip(stems, dims, dims[1:]):
            layout.append((f"{tree}.{stem}.w", (a, b), None))
            layout.append((f"{tree}.{stem}.b", (b,), None))
    layout.append(("queue.features", (q, m.embed_dim), None))
    layout.append(("queue.labels", (q,), (UNLABELED, cfg.dataset.n_classes)))
    return layout


def _decode_checkpoint(header: dict, arrays: dict) -> tuple[TrainState, RunConfig]:
    """The (state, config) of a file whose arrays keep the rules its config's
    layout declares (queue labels in [UNLABELED, n_classes) among them), whose
    step lies within that config's run, and whose queue has unit-norm rows
    (to ``push_batch``'s tolerance) and the cursor ``step`` full batches
    reach. Header keys other than config, step and queue cursor are ignored."""
    if header.get("kind") != "checkpoint":
        raise StorageError(f"not a checkpoint file (kind={header.get('kind')!r})")
    try:
        cfg = config_from_dict(header["config"])
        step, queue = header["step"], header["queue"]
    except KeyError as exc:
        raise StorageError(f"checkpoint file lacks {exc}") from None
    total = cfg.total_steps
    if not (_is_count(step) and step <= total):
        raise StorageError(
            f"checkpoint step must be an integer in [0, {total}], got {step!r}"
        )
    cursor = step * cfg.train.batch_size % cfg.train.queue_size
    stored = queue.get("cursor") if isinstance(queue, dict) else None
    if not (_is_count(stored) and stored == cursor):
        raise StorageError(
            f"checkpoint queue cursor must be {cursor} at step {step}, "
            f"got {queue!r}"
        )
    layout = _checkpoint_layout(cfg)
    if problems := _array_problems("checkpoint", arrays, layout):
        raise StorageError(problems[0])
    values = iter([arrays[name] for name, _, _ in layout])
    # (w, b) of every layer of q, k and v in turn, then (features, labels)
    pairs = list(zip(values, values))
    features, labels = pairs.pop()
    with np.errstate(over="ignore"):  # a huge row's norm is inf: rejected
        norms = np.linalg.norm(features, axis=1)
    if np.any(np.abs(norms - 1.0) > UNIT_NORM_TOL):
        raise StorageError("checkpoint queue holds a feature row that is not unit-norm")
    n = len(pairs) // 3
    state = TrainState(
        *(EncoderParams(tuple(pairs[i : i + n])) for i in range(0, 3 * n, n)),
        queue=PairQueue(features=features, labels=labels, cursor=cursor),
        step=step,
    )
    return state, cfg


def save_checkpoint(path, state: TrainState, cfg: RunConfig) -> None:
    """All training state in one container; the rng needs no raw state —
    streams are derived from (config seed, step), both recorded here. Writes
    only what ``load_checkpoint`` would accept."""
    layout = _checkpoint_layout(cfg)
    trees = (state.params_q, state.params_k, state.velocity)
    values = [a for t in trees for a in leaves(t)]
    values += [state.queue.features, state.queue.labels]
    # a state with fewer arrays lacks the last names; one with more puts a
    # float leaf where queue.labels (i8) belongs: either way the check fails
    arrays = {name: a for (name, _, _), a in zip(layout, values)}
    header = {
        "kind": "checkpoint",
        "config": config_to_dict(cfg),
        "step": state.step,
        "queue": {"cursor": state.queue.cursor},
    }
    _decode_checkpoint(header, arrays)
    write_container(path, header, list(arrays.items()))


def load_checkpoint(path) -> tuple[TrainState, RunConfig]:
    return _decode_checkpoint(*read_container(path))


# ---------------------------------------------------------------------------
# metrics CSV: one column per StepMetrics field, parsed by its annotated type

_METRIC_COLUMNS = [
    (f.name, get_type_hints(StepMetrics)[f.name]) for f in fields(StepMetrics)
]
METRICS_HEADER = ",".join(name for name, _ in _METRIC_COLUMNS)


def format_metrics_row(m: StepMetrics) -> str:
    # repr() floats round-trip exactly, which the resume-equality contract
    # depends on.
    return ",".join(repr(getattr(m, name)) for name, _ in _METRIC_COLUMNS)


class MetricsWriter:
    """CSV sink for a run's step rows, flushed per row so a dying run keeps
    its tail.

    Opening rewrites the file as the header plus its rows before
    ``start_step``, so that a run resumed from a checkpoint at that step
    appends each later step exactly once. Rows are written in step order, so
    parsing stops at the first row it would drop, and a last row that a
    killed run tore (its newline missing) is never parsed. A fresh run
    (``start_step`` 0) keeps no row and does not read the file.
    """

    def __init__(self, path, start_step: int = 0):
        self.path = os.fspath(path)
        kept = []
        if start_step > 0 and os.path.exists(self.path):
            lines = _metrics_lines(self.path)
            rows = (_parse_metrics_row(*r) for r in lines if r[1].endswith("\n"))
            kept = list(itertools.takewhile(lambda m: m.step < start_step, rows))
        lines = [METRICS_HEADER] + [format_metrics_row(m) for m in kept]
        atomic_write_text(self.path, "".join(f"{line}\n" for line in lines))
        self._fh = open(self.path, "a", encoding="utf-8")

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


def read_metrics(path) -> list[StepMetrics]:
    return [_parse_metrics_row(*row) for row in _metrics_lines(path)]


def _metrics_lines(path) -> list[tuple[int, str]]:
    """(line number, text with its newline) of each non-blank row of a
    metrics file, after its header."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != METRICS_HEADER:
            raise StorageError(f"unexpected metrics header: {header!r}")
        return [(n, line) for n, line in enumerate(fh, start=2) if line.strip()]


def _parse_metrics_row(lineno: int, line: str) -> StepMetrics:
    values = line.strip().split(",")
    if len(values) != len(_METRIC_COLUMNS):
        raise StorageError(
            f"metrics line {lineno}: {len(values)} columns, "
            f"expected {len(_METRIC_COLUMNS)}"
        )
    pairs = zip(_METRIC_COLUMNS, values)
    return StepMetrics(**{name: kind(v) for (name, kind), v in pairs})


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
    "write_container",
    "write_manifest",
]
