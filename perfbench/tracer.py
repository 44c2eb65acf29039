"""Per-layer timing by wrapping conlab's functions from the outside.

A ``Tracer`` replaces chosen module or class attributes with thin wrappers
that time each call on ``time.perf_counter_ns``. Wrapped calls nest on one
stack, so a span's self time is its duration minus the durations of the
wrapped calls made inside it; the self times of a span and everything under
it therefore add up to the span's own duration. Nothing in the program is
edited: ``uninstall`` puts every original attribute back.

Each target is wrapped where the *caller* looks it up. ``pipeline`` imports
``loss_batch`` into its own namespace, so the loss layer is timed by wrapping
``conlab.pipeline.loss_batch``; wrapping ``conlab.losses.loss_batch`` would
see no calls from training.
"""

from __future__ import annotations

import os
import time

import numpy as np


class Target:
    """One attribute to wrap, reported under the layer name ``name``.

    ``name`` may be a callable taking the call's positional arguments and
    returning the name, for spans that split by argument (``cli.main`` by
    subcommand). ``extra(stats, args, result)`` adds per-call counters.
    """

    def __init__(self, owner, attr, name, extra=None, keep_durations=False):
        self.owner = owner
        self.attr = attr
        self.name = name
        self.extra = extra
        self.keep_durations = keep_durations


class SpanStats:
    __slots__ = ("calls", "self_ns", "incl_ns", "durations_ns", "extra")

    def __init__(self):
        self.calls = 0
        self.self_ns = 0
        self.incl_ns = 0
        self.durations_ns = []
        self.extra = {}

    def add(self, key, value):
        self.extra[key] = self.extra.get(key, 0) + value


class Tracer:
    """Installs wrappers around ``targets``; collects per-name span stats."""

    def __init__(self, targets):
        self.targets = list(targets)
        self.stats: dict[str, SpanStats] = {}
        self._stack: list[list[int]] = []
        self._saved: list[tuple[object, str, object]] = []
        self._originals: list[tuple[object, str, object]] = []

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for target in self.targets:
            original = vars(target.owner)[target.attr]
            self._saved.append((target.owner, target.attr, original))
            self._originals.append((target.owner, target.attr, original))
            setattr(target.owner, target.attr, self._wrap(target, original))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def self_ns(self, names) -> int:
        """Self time summed over the spans called ``names`` so far."""
        return sum(self.stats[n].self_ns for n in names if n in self.stats)

    def restored(self) -> bool:
        """True when every target attribute is the original object again."""
        return not self._saved and all(
            vars(owner)[attr] is original for owner, attr, original in self._originals
        )

    def _wrap(self, target, fn):
        stack = self._stack
        clock = time.perf_counter_ns
        name_of = target.name if callable(target.name) else None

        def wrapper(*args, **kwargs):
            name = name_of(args) if name_of else target.name
            frame = [0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                st = self.stats.get(name)
                if st is None:
                    st = self.stats[name] = SpanStats()
                st.calls += 1
                st.self_ns += dt - frame[0]
                st.incl_ns += dt
                if target.keep_durations:
                    st.durations_ns.append(dt)
            if target.extra is not None:
                target.extra(st, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper


# ---------------------------------------------------------------------------
# conlab's layers


def _cli_name(args):
    argv = args[0] if args else None
    sub = argv[0] if argv else "none"
    return "cli.main." + sub.replace("-", "_")


def _loss_extra(st, args, result):
    _, logits, targets = args[:3]
    st.add("pos", int(targets.sum()))
    st.add("rows", targets.shape[0])
    st.add("logit_bytes", logits.nbytes)


def _push_extra(st, args, result):
    """Bytes the push wrote, judged from the queue it returned: an array that
    is new was written whole, one updated in place only in the batch's rows."""
    queue, keys = args[:2]
    n = keys.shape[0]
    batch = copied = 0
    for old, new in ((queue.features, result.features), (queue.labels, result.labels)):
        rows = n * (new.nbytes // new.shape[0])
        batch += rows
        copied += rows if np.may_share_memory(old, new) else new.nbytes
    st.add("copy_bytes", copied)
    st.add("batch_bytes", batch)


def _grid_extra(st, args, result):
    st.add("cells", len(result.cells) * len(result.seeds))


def _bytes_extra(st, args, result):
    st.add("bytes_written", os.path.getsize(args[0]))


def layer_targets(conlab):
    """Every layer boundary the traced run times, as its callers see it.

    ``conlab`` is the imported package with ``cli`` and ``experiments``
    loaded. Functions reached from two callers (``pretrain`` and
    ``run_probes`` from both ``cli`` and ``experiments``) are wrapped at
    both and reported under one name.
    """
    cli, exp, pipe, probes = (
        conlab.cli, conlab.experiments, conlab.pipeline, conlab.probes
    )
    return [
        Target(cli, "main", _cli_name),
        Target(cli, "generate_dataset", "pipeline.generate_dataset"),
        Target(cli, "save_dataset", "storage.save_dataset"),
        Target(cli, "load_dataset", "storage.load_dataset"),
        Target(cli, "save_checkpoint", "storage.save_checkpoint", _bytes_extra),
        Target(cli, "load_checkpoint", "storage.load_checkpoint"),
        Target(cli, "write_manifest", "storage.write_manifest", _bytes_extra),
        Target(conlab.storage.MetricsWriter, "write", "storage.MetricsWriter.write"),
        Target(cli, "compare_grid", "experiments.compare_grid", _grid_extra),
        Target(cli, "pretrain", "pipeline.pretrain"),
        Target(exp, "pretrain", "pipeline.pretrain"),
        Target(cli, "run_probes", "probes.run_probes"),
        Target(exp, "run_probes", "probes.run_probes"),
        Target(probes, "extract_features", "probes.extract_features"),
        Target(probes, "linear_probe", "probes.linear_probe"),
        Target(probes, "knn_probe", "probes.knn_probe"),
        Target(pipe, "train_step", "pipeline.train_step", keep_durations=True),
        Target(pipe, "augment", "pipeline.augment"),
        Target(pipe, "global_norm", "pipeline.global_norm"),
        Target(pipe, "forward", "model.forward"),
        Target(pipe, "backward", "model.backward"),
        Target(pipe, "momentum_update", "model.momentum_update"),
        Target(pipe, "map_leaves", "model.map_leaves"),
        Target(pipe, "loss_batch", "losses.loss_batch", _loss_extra),
        Target(pipe, "build_target", "queues.build_target"),
        Target(pipe, "push_batch", "queues.push_batch", _push_extra),
        Target(conlab.numerics.Rng, "stream", "numerics.Rng.stream"),
    ]


def grid_boundary_targets(conlab):
    """The two calls the untraced grid run times to split train from probe."""
    exp = conlab.experiments
    return [
        Target(exp, "pretrain", "pipeline.pretrain"),
        Target(exp, "run_probes", "probes.run_probes"),
    ]
