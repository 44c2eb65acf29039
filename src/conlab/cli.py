"""Command-line interface.

Subcommands: gen-data, pretrain, probe, losscheck, compare. Exit codes are
part of the contract: 0 success, 1 a failed losscheck, 2 usage,
configuration or storage problems, 3 numeric divergence during training
(with whatever metrics were produced up to that point left on disk).
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import sys
from dataclasses import fields
from pathlib import Path

from .config import (
    ConfigError,
    RunConfig,
    _read_object,
    config_digest,
    config_from_dict,
    load_config,
    run_id,
    spec_from_dict,
)
from .experiments import (
    compare_grid,
    compare_to_csv,
    compare_to_dict,
    compare_to_text,
)
from .losses import LOSS_KINDS
from .losscheck import format_check_table, run_losscheck
from .pipeline import DivergenceError, check_dataset_matches, generate_dataset, pretrain
from .probes import run_probes
from .storage import (
    MetricsWriter,
    StorageError,
    atomic_write_text,
    load_checkpoint,
    load_dataset,
    save_checkpoint,
    save_dataset,
    write_manifest,
)


def _load_dataset_spec(path):
    doc = _read_object(path, "spec")
    if set(doc) <= {f.name for f in fields(RunConfig)}:
        return config_from_dict(doc).dataset
    return spec_from_dict(doc)


def _cmd_gen_data(args) -> int:
    spec = _load_dataset_spec(args.spec)
    dataset = generate_dataset(spec)
    save_dataset(args.out, dataset)
    print(
        f"wrote {args.out}: {spec.n_train}+{spec.n_test} samples, "
        f"{spec.n_classes} classes, dim {spec.input_dim}, seed {spec.seed}"
    )
    return 0


def _non_negative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _cmd_pretrain(args) -> int:
    cfg = load_config(args.config)
    dataset = load_dataset(args.data)
    check_dataset_matches(cfg, dataset)

    state = None
    if args.resume is not None:
        state, ckpt_cfg = load_checkpoint(args.resume)
        if config_digest(ckpt_cfg) != config_digest(cfg):
            raise ConfigError(
                ["resume: checkpoint was produced by a different config"]
            )

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    ckpt_path = out_dir / "checkpoint.umc"
    metrics_path = out_dir / "metrics.csv"
    start_step = 0 if state is None else state.step
    with MetricsWriter(metrics_path, start_step=start_step) as writer:
        state = pretrain(
            dataset,
            cfg,
            state=state,
            max_steps=args.max_steps,
            step_callback=writer.write,
        )

    save_checkpoint(ckpt_path, state, cfg)
    write_manifest(
        out_dir / "manifest.json",
        cfg,
        files={
            "checkpoint": ckpt_path.name,
            "metrics": metrics_path.name,
            "data": str(args.data),
        },
    )
    print(
        f"run {run_id(cfg)}: loss={cfg.train.loss} alpha={cfg.train.label_ratio:g} "
        f"stopped at step {state.step}; wrote {ckpt_path}"
    )
    return 0


def _cmd_probe(args) -> int:
    state, cfg = load_checkpoint(args.checkpoint)
    result = run_probes(state.params_q, load_dataset(args.data), cfg)
    entry = {
        "run_id": run_id(cfg),
        "loss": cfg.train.loss,
        "label_ratio": cfg.train.label_ratio,
        "seed": cfg.train.seed,
        "step": state.step,
        "linear_top1": result.linear_top1,
        "knn_top1": result.knn_top1,
        "knn_k": cfg.probe.knn_k,
    }
    out = Path(args.out)
    report = []
    if out.exists():
        with open(out, "r", encoding="utf-8") as fh:
            try:
                report = json.load(fh)
            except json.JSONDecodeError as exc:
                raise StorageError(f"existing report is not valid JSON: {exc}")
        if not isinstance(report, list):
            raise StorageError("existing report is not a JSON array")
    report.append(entry)
    atomic_write_text(out, json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(
        f"run {entry['run_id']}: linear_top1={result.linear_top1:.4f} "
        f"knn_top1={result.knn_top1:.4f} -> {out}"
    )
    return 0


def _cmd_losscheck(args) -> int:
    results = run_losscheck(trials=args.trials, width=args.width, seed=args.seed)
    print(format_check_table(results))
    return 0 if all(r.passed for r in results) else 1


def _parse_list(text: str, flag: str, kind):
    try:
        return [kind(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError:
        noun = "numbers" if kind is float else "integers"
        raise ConfigError([f"{flag}: expected comma-separated {noun}, got {text!r}"])


def _check_out_dir(path: Path) -> None:
    """Raise the error ``mkdir`` would for a directory that is, or lies
    under, an existing non-directory, before any work. Nothing is created,
    so a later config error leaves no directory behind."""
    for part in (path, *path.parents):
        if part.exists():
            if not part.is_dir():
                code = errno.EEXIST if part == path else errno.ENOTDIR
                raise OSError(code, os.strerror(code), str(path))
            return


def _cmd_compare(args) -> int:
    cfg = load_config(args.config)
    dataset = load_dataset(args.data)
    alphas = _parse_list(args.alphas, "--alphas", float)
    losses = _parse_list(args.losses, "--losses", str.strip)
    seeds = _parse_list(args.seeds, "--seeds", int)
    out_dir = Path(args.out_dir)
    _check_out_dir(out_dir)

    def progress(kind, alpha, seed, res):
        print(
            f"  {kind} alpha={alpha:g} seed={seed}: "
            f"linear={res.linear_top1:.4f} knn={res.knn_top1:.4f}",
            flush=True,
        )

    result = compare_grid(
        dataset, cfg, losses, alphas, seeds,
        progress=progress if args.verbose else None,
    )

    out_dir.mkdir(parents=True, exist_ok=True)
    atomic_write_text(out_dir / "compare.csv", compare_to_csv(result))
    atomic_write_text(out_dir / "compare.txt", compare_to_text(result) + "\n")
    atomic_write_text(
        out_dir / "compare.json",
        json.dumps(compare_to_dict(result), indent=2, sort_keys=True) + "\n",
    )
    print(compare_to_text(result))
    print(f"wrote {out_dir}/compare.{{csv,txt,json}}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="conlab",
        description="momentum-encoder contrastive training at desk scale",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate a dataset file from a spec")
    p.add_argument("--spec", required=True, help="JSON dataset spec (or full config)")
    p.add_argument("--out", required=True, help="output dataset file")
    p.set_defaults(func=_cmd_gen_data)

    p = sub.add_parser("pretrain", help="train an encoder; writes checkpoint+metrics")
    p.add_argument("--config", required=True, help="JSON run config")
    p.add_argument("--data", required=True, help="dataset file from gen-data")
    p.add_argument("--out-dir", required=True, help="artifact directory")
    p.add_argument("--resume", default=None, help="checkpoint to continue from")
    p.add_argument(
        "--max-steps",
        type=_non_negative_int,
        default=None,
        help="stop after this global step (for interrupt/resume workflows)",
    )
    p.set_defaults(func=_cmd_pretrain)

    p = sub.add_parser("probe", help="evaluate a checkpoint with linear/kNN probes")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True, help="JSON report (appended to)")
    p.set_defaults(func=_cmd_probe)

    p = sub.add_parser("losscheck", help="run the loss property/gradient suite")
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--width", type=int, default=33)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_losscheck)

    p = sub.add_parser("compare", help="loss × label-ratio × seed sweep")
    p.add_argument("--config", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--alphas", default="0,0.5,1")
    p.add_argument(
        "--losses", default="unicon,supcon_in,supcon_out",
        help=f"comma-separated subset of: {','.join(LOSS_KINDS)}",
    )
    p.add_argument("--seeds", default="0,1,2,3,4")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--verbose", action="store_true", help="print each cell")
    p.set_defaults(func=_cmd_compare)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on usage errors, 0 on --help
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ConfigError as exc:
        for problem in exc.problems:
            print(f"config error: {problem}", file=sys.stderr)
        return 2
    except (OSError, ValueError) as exc:  # StorageError included
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DivergenceError as exc:
        print(f"error: {exc} (partial metrics retained)", file=sys.stderr)
        return 3
    except MemoryError as exc:  # a backstop: configs are bounded by a budget
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
