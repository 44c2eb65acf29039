"""Check that a change leaves conlab's artifacts byte for byte as they were.

Runs a fixed recipe of conlab commands, each in a fresh interpreter with
``PYTHONPATH=<tree>/src``, and records the sha256 of every file the recipe
writes and of every command's printed output, with the environment that the
bits depend on (Python, numpy, its BLAS, the CPU):

- ``gen-data`` of the base config's dataset;
- ``pretrain`` of unicon at label ratio 1 and of infonce at label ratio 0;
- unicon at label ratio 1 again, stopped at ``--max-steps 1000`` and resumed;
- ``probe`` of each of those three runs;
- ``compare --losses unicon,supcon_out --alphas 1 --seeds 0,1 --verbose`` at
  ``train.epochs`` 2;
- ``losscheck --trials 200``.

Usage::

    python3 tools/identity.py                    # hash the recipe of this tree
    python3 tools/identity.py --parent HEAD~1    # compare with a revision
    python3 tools/identity.py --parent HEAD~1 --out IDENTITY.json

``--parent REV`` exports REV from this tree's git repository with
``git archive`` into a temporary directory, which leaves the repository as it
was, runs the recipe in both trees and prints one line per artifact. The exit
status is 1 if any artifact differs, 2 if a command of the recipe fails.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

# Runs the CLI of the tree named by the first argument, and refuses to run
# one imported from anywhere else (an installed conlab, say).
_LAUNCH = (
    "import os, sys\n"
    "import conlab.cli\n"
    "src = os.path.realpath(sys.argv.pop(1))\n"
    "if not os.path.realpath(conlab.cli.__file__).startswith(src + os.sep):\n"
    "    sys.exit(f'conlab imported from {conlab.cli.__file__}, not {src}')\n"
    "sys.exit(conlab.cli.main(sys.argv[1:]))\n"
)


def _merged(config: dict, train: dict) -> dict:
    doc = json.loads(json.dumps(config))
    doc["train"] = {**doc.get("train", {}), **train}
    return doc


def recipe(config: dict, max_steps: int = 1000, trials: int = 200):
    """The recipe on base ``config`` (a run config document): the config
    files it reads, name -> document, and its commands as (name, argv)."""
    files = {
        "base.json": config,
        "unicon_a1.json": _merged(config, {"loss": "unicon", "label_ratio": 1.0}),
        "infonce_a0.json": _merged(config, {"loss": "infonce", "label_ratio": 0.0}),
        "grid.json": _merged(config, {"epochs": 2}),
    }
    data = ["--data", "data.umc"]
    commands = [("gen-data", ["gen-data", "--spec", "base.json", "--out", "data.umc"])]
    for run in ("unicon_a1", "infonce_a0"):
        commands.append(
            (run, ["pretrain", "--config", f"{run}.json", *data, "--out-dir", run])
        )
    resumed = ["pretrain", "--config", "unicon_a1.json", *data, "--out-dir", "resumed"]
    commands += [
        ("resumed-stop", [*resumed, "--max-steps", str(max_steps)]),
        ("resumed", [*resumed, "--resume", "resumed/checkpoint.umc"]),
    ]
    for run in ("unicon_a1", "infonce_a0", "resumed"):
        commands.append(
            (
                f"{run}-probe",
                ["probe", "--checkpoint", f"{run}/checkpoint.umc", *data,
                 "--out", f"{run}/probe.json"],
            )
        )
    commands += [
        (
            "compare",
            ["compare", "--config", "grid.json", *data, "--losses", "unicon,supcon_out",
             "--alphas", "1", "--seeds", "0,1", "--out-dir", "grid", "--verbose"],
        ),
        ("losscheck", ["losscheck", "--trials", str(trials)]),
    ]
    return files, commands


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def hash_files(workdir) -> dict:
    """sha256 of every file under ``workdir``, keyed by its relative path."""
    root = Path(workdir)
    return {
        path.relative_to(root).as_posix(): _sha256(path.read_bytes())
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


def run_recipe(tree, workdir, config: dict, **sizes) -> dict:
    """Run the recipe on base ``config`` against ``tree`` inside the empty
    directory ``workdir`` and return its artifacts' hashes: each written
    file by its path, and each command's printed output as
    ``stdout/<command>``. ``sizes`` go to ``recipe``. Raises RuntimeError
    if a command exits nonzero."""
    workdir = Path(workdir)
    src = Path(tree).resolve() / "src"
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    files, commands = recipe(config, **sizes)
    for name, doc in files.items():
        (workdir / name).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    printed = {}
    for name, argv in commands:
        proc = subprocess.run(
            [sys.executable, "-c", _LAUNCH, str(src), *argv],
            cwd=workdir, env=env, capture_output=True,
        )
        if proc.returncode != 0:
            raise RuntimeError(
                f"conlab {' '.join(argv)} exited {proc.returncode}: "
                f"{proc.stderr.decode(errors='replace').strip()}"
            )
        printed[f"stdout/{name}"] = _sha256(proc.stdout)
    return {**hash_files(workdir), **printed}


def differences(a: dict, b: dict) -> list:
    """Artifact names whose hashes differ, or that only one side has."""
    return sorted(name for name in a.keys() | b.keys() if a.get(name) != b.get(name))


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas = "unknown"
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            models = [line.split(":", 1)[1].strip() for line in fh
                      if line.startswith("model name")]
        cpu = models[0] if models else cpu
    except OSError:
        pass
    env = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "cpu": cpu,
        "nproc": os.cpu_count(),
    }
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        env[var] = os.environ.get(var, "unset")
    return env


def _git(*args) -> bytes:
    return subprocess.run(
        ["git", "-C", str(REPO), *args], check=True, capture_output=True
    ).stdout


def export_revision(rev: str, dest) -> str:
    """Write the files of ``rev`` into ``dest``; return its commit id."""
    commit = _git("rev-parse", "--verify", f"{rev}^{{commit}}").decode().strip()
    with tarfile.open(fileobj=io.BytesIO(_git("archive", commit))) as tar:
        tar.extractall(dest, filter="data")
    return commit


def _label() -> str:
    """This tree's commit, and whether tracked files differ from it."""
    try:
        commit = _git("rev-parse", "HEAD").decode().strip()
        dirty = _git("status", "--porcelain", "--untracked-files=no").strip()
    except (OSError, subprocess.CalledProcessError):
        return "this tree"
    return commit + (" with uncommitted changes" if dirty else "")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", metavar="REV", help="git revision to compare with")
    p.add_argument("--config", help="JSON base run config (default: the default)")
    p.add_argument("--out", help="also write the report here as JSON")
    args = p.parse_args(argv)

    config = {}
    if args.config is not None:
        config = json.loads(Path(args.config).read_text(encoding="utf-8"))
    hashes = {}
    with tempfile.TemporaryDirectory() as tmp:
        try:
            trees = {}
            if args.parent is not None:
                commit = export_revision(args.parent, Path(tmp, "parent"))
                trees[f"parent {commit}"] = Path(tmp, "parent")
            trees[_label()] = REPO
            for i, (label, tree) in enumerate(trees.items()):
                work = Path(tmp, f"work{i}")
                work.mkdir()
                hashes[label] = run_recipe(tree, work, config)
        except (RuntimeError, subprocess.CalledProcessError) as exc:
            stderr = getattr(exc, "stderr", None)
            print(f"error: {stderr.decode().strip() if stderr else exc}", file=sys.stderr)
            return 2

    report = {
        "config": config,
        "recipe": [" ".join(argv) for _, argv in recipe(config)[1]],
        "environment": environment(),
        "trees": hashes,
    }
    differ = []
    if args.parent is None:
        (only,) = hashes.values()
        for name, digest in sorted(only.items()):
            print(f"{digest}  {name}")
    else:
        old, new = hashes.values()
        differ = report["differences"] = differences(old, new)
        names = sorted(old.keys() | new.keys())
        for name in names:
            mark = "DIFF" if name in differ else "same"
            print(f"{mark}  {name}  {old.get(name, '-')[:16]}  {new.get(name, '-')[:16]}")
        print(f"{len(differ)} of {len(names)} artifacts differ")
    if args.out is not None:
        Path(args.out).write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return 1 if differ else 0

if __name__ == "__main__":
    sys.exit(main())
