"""conlab benchmark: run one workload through the CLI and print its metrics.

Usage, from the root of a conlab checkout:

    python3 perfbench/run.py --workload pretrain_unicon_a1 --seed 1 \
        --seconds 30 --trace 0

The program is driven the way its users drive it: ``conlab.cli.main`` is
called in-process with a generated config and dataset, so every number
includes the storage and CLI layers. ``--seed`` picks the dataset and
training seeds; the program only ever sees the generated files.

A run does ``SETUP_REPEATS`` set-ups (a fresh interpreter importing conlab,
plus ``gen-data``), then repeats the workload's commands until ``--seconds``
is spent, at least ``MIN_ROUNDS`` times. Every command's exit code and
outputs are checked: checkpoints must be byte-identical across repetitions,
probe accuracies must repeat exactly, ``compare.json`` must hold every cell.
A check that fails counts the command as failed instead of aborting.

``--trace 0`` reports the end-to-end metrics (medians over repetitions).
``--trace 1`` alternates untraced and traced repetitions and reports
per-layer metrics from the traced ones (see tracer.py), plus the tracing
overhead. Human-readable lines come first; the last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

sys.path.insert(0, str(HERE))
import tracer as tracing  # noqa: E402

SETUP_REPEATS = 7
MIN_ROUNDS = 2  # two untraced repetitions are needed to check repeatability

# The pretrain workloads run the default config with these train overrides.
PRETRAIN = {
    "pretrain_unicon_a1": {"loss": "unicon", "label_ratio": 1.0},
    "pretrain_infonce_a0": {"loss": "infonce", "label_ratio": 0.0},
}
GRID = "compare_family_grid"
GRID_LOSSES = ("supcon_in", "supcon_out")
GRID_ALPHAS = (0.0, 1.0)  # compare adds alpha=0 itself; listed for checking
GRID_SEEDS = 2  # workload seed and the next one
GRID_EPOCHS = 10  # probes take about a quarter of the job at this length
WORKLOADS = (*PRETRAIN, GRID)

# Probe accuracy (linear and kNN; the mean over cells on the grid) below
# which a run counts the probe as failed: the lowest value seen over 50 seeds
# (34 on the grid), less 0.1, rounded down to 0.05. Accuracy repeats exactly
# per seed but spreads 5-8% (IQR/median, up to 15%) across ten seeds, so its
# bound in BENCHMARK.json cannot be tight; this floor catches a large loss on
# any one seed. Tiny test runs are held only to chance.
ACCURACY_FLOOR = {
    "pretrain_unicon_a1": 0.55,
    "pretrain_infonce_a0": 0.4,
    GRID: 0.5,
}

# Small enough for a unit test: 5 steps per epoch, one epoch.
TINY = {
    "dataset": {"n_train": 320, "n_test": 100},
    "train": {"epochs": 1},
    "probe": {"epochs": 2},
}

END_TO_END = {
    "setup_s": "s",
    "job_s": "s",
    "train_samples_per_s": "1/s",
    "probe_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "linear_top1": "fraction",
    "knn_top1": "fraction",
}

# Layer -> extra stats beyond calls and self_ms, with their units.
LAYERS = {
    "numerics.Rng.stream": {},
    "losses.loss_batch": {"pos_per_row": "count", "logit_bytes": "bytes"},
    "queues.build_target": {},
    "queues.push_batch": {"copy_bytes": "bytes", "useful_copy_frac": "fraction"},
    "model.forward": {},
    "model.backward": {},
    "model.momentum_update": {},
    "model.map_leaves": {},
    "pipeline.generate_dataset": {},
    "pipeline.augment": {},
    "pipeline.global_norm": {},
    "pipeline.train_step": {"p50_us": "us", "p99_us": "us"},
    "pipeline.pretrain": {"wall_ms": "ms"},
    "probes.run_probes": {},
    "probes.extract_features": {},
    "probes.linear_probe": {},
    "probes.knn_probe": {},
    "experiments.compare_grid": {"cells": "count"},
    "storage.save_dataset": {},
    "storage.load_dataset": {},
    "storage.save_checkpoint": {"bytes_written": "bytes"},
    "storage.load_checkpoint": {},
    "storage.MetricsWriter.write": {},
    "storage.write_manifest": {"bytes_written": "bytes"},
    "cli.main.gen_data": {},
    "cli.main.pretrain": {},
    "cli.main.probe": {},
    "cli.main.compare": {},
}


# Ratio stats: numerator and denominator counters summed over a job.
RATIOS = {
    "pos_per_row": ("pos", "rows"),
    "useful_copy_frac": ("batch_bytes", "copy_bytes"),
}
PERCENTILES = {"p50_us": 0.50, "p99_us": 0.99}  # of per-call durations
# In a traced repetition the published self times must cover each command's
# wall time, clocked outside the tracer, to within 1% plus 1 ms for the call
# into the CLI itself.
COVERAGE = 0.99
COVERAGE_SLACK_NS = 1_000_000


def per_layer_units() -> dict:
    units = {}
    for layer, extras in LAYERS.items():
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.self_ms"] = "ms"
        units.update({f"{layer}.{stat}": unit for stat, unit in extras.items()})
    units["trace.overhead_frac"] = "fraction"
    return units


def uncovered(covered_ns: int, wall_ns: int):
    """Problem text unless ``covered_ns`` of self time accounts for the
    ``wall_ns`` a command took."""
    if COVERAGE * wall_ns - COVERAGE_SLACK_NS <= covered_ns <= wall_ns:
        return None
    return (f"published self times cover {covered_ns / 1e6:.3f} ms "
            f"of {wall_ns / 1e6:.3f} ms")


class SetupError(RuntimeError):
    """The checkout holds no usable conlab source tree."""


def import_conlab():
    """Import conlab from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "conlab" / "__init__.py").is_file():
        raise SetupError(f"no conlab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import conlab
    import conlab.cli

    if Path(conlab.__file__).resolve().parent != SRC / "conlab":
        raise SetupError(f"conlab imported from {conlab.__file__}, not {SRC}")
    return conlab


def make_config(workload: str, seed: int, tiny: bool) -> dict:
    cfg = {"dataset": {"seed": seed}, "train": {"seed": seed}, "probe": {}}
    if workload == GRID:
        cfg["train"]["epochs"] = GRID_EPOCHS
    else:
        cfg["train"].update(PRETRAIN[workload])
    if tiny:
        for section, values in TINY.items():
            cfg[section].update(values)
    return cfg


def sha256(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def cpu_seconds() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def median(values):
    return statistics.median(values) if values else 0.0


def percentile(values, q):
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))] if ordered else 0


def blas_info() -> dict:
    """BLAS build and the thread count it runs with, as numpy sees them."""
    import numpy as np

    info = {"numpy": np.__version__}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        info["blas"] = "unknown"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        info[var] = os.environ.get(var, "unset")
    info["blas_threads"] = "unknown"
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        try:
            handle = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["blas_threads"] = fn()
                break
    return info


def environment() -> dict:
    env = {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "loadavg_start": os.getloadavg(),
    }
    env.update(blas_info())
    return env


_IMPORT_PROBE = (
    "import time\n"
    "t = time.perf_counter()\n"
    "import conlab.cli\n"
    "print(time.perf_counter() - t, conlab.__file__)\n"
)


class Bench:
    """One benchmark run of one workload: set-ups, repetitions, checks."""

    def __init__(self, conlab, workload: str, seed: int, tiny: bool, work: Path):
        self.conlab = conlab
        self.workload = workload
        self.seed = seed
        self.work = work
        self.cfg = make_config(workload, seed, tiny)
        self.cfg_path = work / "config.json"
        self.cfg_path.write_text(json.dumps(self.cfg))
        self.data = work / "data.umc"
        spec = conlab.config.config_from_dict(self.cfg)
        self.chance = 1.0 / spec.dataset.n_classes
        self.floor = self.chance if tiny else ACCURACY_FLOOR[workload]
        self.batch = spec.train.batch_size
        self.steps = spec.train.epochs * (spec.dataset.n_train // self.batch)
        self.attempted = 0
        self.failed = 0
        self.reference: dict[str, object] = {}
        self.outputs: list[dict] = []  # per repetition: traced flag + results
        self.restored: list[bool] = []
        self.tracer = None  # the full-layer tracer while one is installed
        self.samples: dict[str, list[float]] = {}  # per-repetition values

    # -- bookkeeping ------------------------------------------------------

    def run_cli(self, argv) -> int | None:
        """Run one conlab command; its printed output is discarded.

        While traced, the self times of the published layers spent in the
        command must add up to its wall time, clocked here."""
        argv = [str(a) for a in argv]
        tracer = self.tracer
        before = tracer.self_ns(LAYERS) if tracer else 0
        t0 = time.perf_counter_ns()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = self.conlab.cli.main(argv)
        except Exception:  # a crash is a failed operation, not a dead run
            traceback.print_exc()
            code = None
        wall = time.perf_counter_ns() - t0
        if tracer:
            covered = tracer.self_ns(LAYERS) - before
            self.verify(f"trace of {argv[0]}", 0, lambda: uncovered(covered, wall))
        return code

    def verify(self, what: str, code, check) -> None:
        """Count one operation; failed if it exited non-zero or ``check``
        (run only after a zero exit) returns a problem."""
        self.attempted += 1
        try:
            problem = f"exit code {code}" if code != 0 else check()
        except (OSError, ValueError, KeyError, TypeError) as exc:
            problem = f"unreadable output: {exc!r}"
        if problem:
            self.failed += 1
            print(f"FAILED {self.workload} {what}: {problem}", file=sys.stderr)

    def same_as_reference(self, key: str, value):
        """First value seen for ``key`` is the reference; later ones must
        equal it exactly."""
        ref = self.reference.setdefault(key, value)
        if ref != value:
            return f"{key} changed between repetitions: {ref!r} != {value!r}"
        return None

    # -- set-up -----------------------------------------------------------

    def import_seconds(self) -> float:
        """Wall time of ``import conlab.cli`` in a fresh interpreter."""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        proc = subprocess.run(
            [sys.executable, "-c", _IMPORT_PROBE],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
        )
        seconds, _, where = proc.stdout.strip().partition(" ")

        def check():
            if Path(where).resolve().parent != SRC / "conlab":
                return f"fresh interpreter imported conlab from {where!r}"
            return None

        self.verify("import", proc.returncode, check)
        return float(seconds) if proc.returncode == 0 else 0.0

    def gen_data(self) -> float:
        t0 = time.perf_counter()
        code = self.run_cli(["gen-data", "--spec", self.cfg_path, "--out", self.data])
        seconds = time.perf_counter() - t0
        self.verify(
            "gen-data", code,
            lambda: self.same_as_reference("dataset sha256", sha256(self.data)),
        )
        return seconds

    def setup(self) -> float:
        return self.import_seconds() + self.gen_data()

    # -- one repetition of the workload -----------------------------------

    def repetition(self, index: int, tracer=None) -> dict:
        """One run of the workload's commands; ``tracer``, if given, is
        already installed and marks the repetition as traced."""
        rep_dir = self.work / f"rep{index}"
        rep_dir.mkdir()
        if self.workload == GRID:
            row = self._grid(rep_dir, tracer)
        else:
            row = self._pretrain(rep_dir, tracer is not None)
        shutil.rmtree(rep_dir)
        return row

    def _pretrain(self, rep_dir: Path, traced: bool) -> dict:
        ckpt = rep_dir / "checkpoint.umc"
        report = rep_dir / "probe.json"
        cpu0 = cpu_seconds()
        t0 = time.perf_counter()
        code_train = self.run_cli(
            ["pretrain", "--config", self.cfg_path, "--data", self.data,
             "--out-dir", rep_dir]
        )
        t1 = time.perf_counter()
        code_probe = self.run_cli(
            ["probe", "--checkpoint", ckpt, "--data", self.data, "--out", report]
        )
        t2 = time.perf_counter()
        cpu1 = cpu_seconds()

        out = {"traced": traced}

        def check_train():
            rows = (rep_dir / "metrics.csv").read_text().count("\n") - 1
            if rows != self.steps:
                return f"metrics.csv has {rows} rows, expected {self.steps}"
            out["checkpoint"] = sha256(ckpt)
            return self.same_as_reference("checkpoint sha256", out["checkpoint"])

        def check_probe():
            entries = json.loads(report.read_text())
            if len(entries) != 1 or entries[0]["step"] != self.steps:
                return f"unexpected probe report {entries!r}"
            acc = (entries[0]["linear_top1"], entries[0]["knn_top1"])
            out["accuracy"] = acc
            return self.check_accuracy(acc, self.floor) or self.same_as_reference(
                "probe accuracy", acc
            )

        self.verify("pretrain", code_train, check_train)
        self.verify("probe", code_probe, check_probe)
        self.outputs.append(out)
        return {
            "job_s": t2 - t0,
            "train_s": t1 - t0,
            "probe_s": t2 - t1,
            "cpu_s": cpu1 - cpu0,
            "samples": self.steps * self.batch,
        }

    def _grid(self, rep_dir: Path, tracer) -> dict:
        # Untraced, only the two calls that split training from probing are
        # timed; traced, the caller's tracer covers them.
        seeds = [self.seed + i for i in range(GRID_SEEDS)]
        timers = None
        if tracer is None:
            timers = tracer = tracing.Tracer(
                tracing.grid_boundary_targets(self.conlab)
            )
            timers.install()
        try:
            cpu0 = cpu_seconds()
            t0 = time.perf_counter()
            code = self.run_cli(
                ["compare", "--config", self.cfg_path, "--data", self.data,
                 "--losses", ",".join(GRID_LOSSES),
                 "--alphas", ",".join(f"{a:g}" for a in GRID_ALPHAS if a),
                 "--seeds", ",".join(map(str, seeds)), "--out-dir", rep_dir]
            )
            t1 = time.perf_counter()
            cpu1 = cpu_seconds()
        finally:
            if timers is not None:
                timers.uninstall()
                self.restored.append(timers.restored())
        timed = {
            name: tracer.stats.get(name, tracing.SpanStats()).incl_ns / 1e9
            for name in ("pipeline.pretrain", "probes.run_probes")
        }
        out = {"traced": timers is None}

        def check():
            doc = json.loads((rep_dir / "compare.json").read_text())
            cells = {(c["loss"], c["alpha"]): c for c in doc["cells"]}
            want = {(k, a) for k in GRID_LOSSES for a in GRID_ALPHAS}
            if set(cells) != want or doc["seeds"] != seeds:
                return f"compare.json cells {sorted(cells)} seeds {doc['seeds']}"
            lin, knn = [], []
            for key in sorted(want):
                cell = cells[key]
                if len(cell["linear_top1"]) != GRID_SEEDS or len(
                    cell["knn_top1"]
                ) != GRID_SEEDS:
                    return f"cell {key} lacks a seed"
                lin += cell["linear_top1"]
                knn += cell["knn_top1"]
            acc = (sum(lin) / len(lin), sum(knn) / len(knn))
            out["accuracy"] = acc
            out["cells"] = [cells[key] for key in sorted(want)]
            return (
                self.check_accuracy((min(lin), min(knn)), self.chance)
                or self.check_accuracy(acc, self.floor)
                or self.same_as_reference("compare cells", out["cells"])
            )

        self.verify("compare", code, check)
        self.outputs.append(out)
        cells = len(GRID_LOSSES) * len(GRID_ALPHAS) * GRID_SEEDS
        return {
            "job_s": t1 - t0,
            "train_s": timed["pipeline.pretrain"],
            "probe_s": timed["probes.run_probes"],
            "cpu_s": cpu1 - cpu0,
            "samples": cells * self.steps * self.batch,
        }

    @staticmethod
    def check_accuracy(values, floor):
        if not all(floor < v <= 1.0 for v in values):
            return f"probe accuracy {values} not above {floor:g}"
        return None

    # -- traced repetition ------------------------------------------------

    def traced_repetition(self, index: int):
        """``gen-data`` plus one repetition, every layer traced."""
        tracer = self.tracer = tracing.Tracer(tracing.layer_targets(self.conlab))
        try:
            with tracer:
                self.gen_data()
                row = self.repetition(index, tracer)
        finally:
            self.tracer = None
            self.restored.append(tracer.restored())
        return row, tracer

    # -- a whole run ------------------------------------------------------

    def run(self, seconds: float, trace: bool) -> dict:
        setups = [self.setup() for _ in range(SETUP_REPEATS)]
        rows, traced = [], []
        start = time.perf_counter()
        while True:
            rows.append(self.repetition(len(rows) + len(traced)))
            if trace:
                traced.append(self.traced_repetition(len(rows) + len(traced)))
            rounds = len(rows)
            elapsed = time.perf_counter() - start
            if rounds >= (1 if trace else MIN_ROUNDS) and (
                elapsed * (rounds + 1) / rounds > seconds
            ):
                break
        self.attempted += len(self.restored)
        self.failed += self.restored.count(False)
        if trace:
            metrics = self.layer_metrics(rows, traced)
        else:
            metrics = self.end_to_end_metrics(setups, rows)
        return {
            "correct": self.failed == 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": metrics,
        }

    def end_to_end_metrics(self, setups, rows) -> dict:
        acc = next((o["accuracy"] for o in self.outputs if "accuracy" in o), (0, 0))
        self.samples = {
            "setup_s": setups,
            "job_s": [r["job_s"] for r in rows],
            "train_samples_per_s": [
                r["samples"] / r["train_s"] if r["train_s"] else 0.0 for r in rows
            ],
            "probe_s": [r["probe_s"] for r in rows],
            "cpu_s": [r["cpu_s"] for r in rows],
        }
        values = {k: median(v) for k, v in self.samples.items()}
        values.update(
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            linear_top1=acc[0],
            knn_top1=acc[1],
        )
        return {k: {"value": values[k], "unit": END_TO_END[k]} for k in END_TO_END}

    def layer_metrics(self, rows, traced) -> dict:
        units = per_layer_units()
        tracers = [t for _, t in traced]
        values = {}
        for layer, extras in LAYERS.items():
            spans = [t.stats.get(layer, tracing.SpanStats()) for t in tracers]
            calls = spans[0].calls
            if any(s.calls != calls for s in spans):
                self.attempted += 1
                self.failed += 1
                print(f"FAILED trace: {layer} call count varies", file=sys.stderr)
            values[f"{layer}.calls"] = calls
            values[f"{layer}.self_ms"] = median([s.self_ns / 1e6 for s in spans])
            first = spans[0].extra
            pooled = [d for s in spans for d in s.durations_ns]
            for stat in extras:
                if stat in RATIOS:
                    num, den = RATIOS[stat]
                    value = first.get(num, 0) / max(first.get(den, 0), 1)
                elif stat in PERCENTILES:
                    value = percentile(pooled, PERCENTILES[stat]) / 1e3
                elif stat == "wall_ms":
                    value = median([s.incl_ns / 1e6 for s in spans])
                else:  # a counter, reported per call
                    value = first.get(stat, 0) / max(calls, 1)
                values[f"{layer}.{stat}"] = value
        # Each traced repetition directly follows an untraced one; pairing
        # them keeps slow drifts in machine speed out of the ratio.
        values["trace.overhead_frac"] = median(
            [t["job_s"] / u["job_s"] - 1 for u, (t, _) in zip(rows, traced)]
        )
        self.print_breakdown(tracers[0])
        return {k: {"value": values[k], "unit": units[k]} for k in units}

    def print_breakdown(self, tracer) -> None:
        """Self time per training step of every layer, largest first."""
        step = tracer.stats.get("pipeline.train_step")
        steps = step.calls if step else 1
        print(f"per-step self time over {steps} steps (first traced repetition):")
        for name, st in sorted(tracer.stats.items(), key=lambda kv: -kv[1].self_ns):
            print(
                f"  {name:32s} {st.calls:8d} calls "
                f"{st.self_ns / 1e6:10.1f} ms {st.self_ns / 1e3 / steps:9.1f} us/step"
            )


def run_benchmark(workload: str, seed: int, seconds: float, trace: bool,
                  tiny: bool = False):
    """Run one workload; returns (result dict, the Bench that produced it)."""
    if workload not in WORKLOADS:
        raise SetupError(f"unknown workload {workload!r}; pick from {WORKLOADS}")
    conlab = import_conlab()
    WORK.mkdir(exist_ok=True)
    work = WORK / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    try:
        bench = Bench(conlab, workload, seed, tiny, work)
        return bench.run(seconds, trace), bench
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    env = environment()
    try:
        result, bench = run_benchmark(
            args.workload, args.seed, args.seconds, bool(args.trace)
        )
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print("env " + json.dumps(env, sort_keys=True))
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    for name, m in result["metrics"].items():
        reps = bench.samples.get(name)
        note = (
            f"  (median of {len(reps)}: {', '.join(f'{v:.4g}' for v in reps)})"
            if reps else ""
        )
        print(f"  {name} = {m['value']:.6g} {m['unit']}{note}")
    failed_frac = result["failed"] / result["attempted"]
    print(f"  failed_frac = {failed_frac:.6g} fraction "
          f"({result['failed']}/{result['attempted']})")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
