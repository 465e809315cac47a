"""Command-line experiment runner.

Subcommands:
    train      fit a model per the config; writes metrics.csv, a model/
               directory, and runmeta.json under --out-dir
    eval       evaluate a saved model under every objective family
    gradcheck  finite-difference checks for all layer and head gradients
    warmstart  train with the hidden stack initialized from a saved model
    ensemble   average several saved models' outputs and report error

Every subcommand takes --config (flat key = value text); --seed and
--out-dir override the corresponding config keys.
"""

import argparse
import dataclasses
import os
import sys

import numpy as np

from . import harness
from .config import ConfigError, parse_config
from .data import IdxFormatError
from .gradcheck import run_gradcheck
from .heads import error_rate_pct
from .serialize import ManifestError, json_text, write_text
from .tensor import DomainError, ShapeError


def _add_common(sub):
    sub.add_argument("--config", required=True, help="path to key = value config")
    sub.add_argument("--seed", type=int, default=None,
                     help="override the config seed")
    sub.add_argument("--out-dir", default=None,
                     help="override the config output directory")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="marginnet",
        description="train and probe networks with softmax or SVM objectives",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("train", "train a model from scratch"),
        ("eval", "cross-objective evaluation of a saved model"),
        ("gradcheck", "finite-difference gradient verification"),
        ("warmstart", "train with a saved model's hidden stack"),
        ("ensemble", "average saved models and report test error"),
    ):
        _add_common(subs.add_parser(name, help=help_text))
    return parser


def _load_config(args):
    cfg = parse_config(args.config)
    if args.seed is not None:
        cfg.override("seed", args.seed)
    if args.out_dir is not None:
        cfg.override("out_dir", args.out_dir)
    return cfg


def _report_run(result):
    """Print a finished run's last metrics row and where it wrote."""
    row = result.metrics[-1]
    print("  ".join(f"{col}={harness.format_cell(col, row[col])}"
                    for col in harness.CSV_COLUMNS))
    print(f"wrote {result.csv_path} and {result.model_dir}")
    return 0


def cmd_train(args):
    return _report_run(harness.train(_load_config(args)))


def _report_lines(tag, rep):
    return (
        f"{tag}: n={rep.n} error_pct={harness.format_float(rep.error_pct)} "
        f"avg_xent={harness.format_float(rep.avg_xent)} "
        f"hinge_sum={harness.format_float(rep.hinge_sum)} "
        f"hinge_sq_sum={harness.format_float(rep.hinge_sq_sum)} "
        f"hinge_sq_mean={harness.format_float(rep.hinge_sq_mean)}"
    )


def cmd_eval(args):
    cfg = _load_config(args)
    if not cfg.model:
        raise ConfigError("eval needs model = <saved model dir> in the config")
    model = harness.load_model(cfg.model)
    split = _raw_split(cfg)
    rep = harness.cross_objective_eval(model, split)
    line = _report_lines(f"{model.network.head_spec.kind} on {cfg.eval_split}", rep)
    print(line)
    os.makedirs(cfg.out_dir, exist_ok=True)
    out_path = os.path.join(cfg.out_dir, "eval.json")
    write_text(out_path, json_text({
        "model": cfg.model,
        "split": cfg.eval_split,
        "head": model.network.head_spec.kind,
        **dataclasses.asdict(rep),
    }))
    print(f"wrote {out_path}")
    return 0


def _raw_split(cfg):
    """The configured eval split with no train-time preprocessing: saved
    models carry their own fitted transforms."""
    data_rng, _, _ = harness.seed_streams(cfg.seed)
    train, test = harness.load_splits(cfg, data_rng)
    return train if cfg.eval_split == "train" else test


def cmd_gradcheck(args):
    cfg = _load_config(args)
    results, ok = run_gradcheck(cfg)
    for r in results:
        print(r.summary())
    print(f"{sum(r.passed for r in results)}/{len(results)} gradient checks passed")
    return 0 if ok else 1


def cmd_warmstart(args):
    cfg = _load_config(args)
    if not cfg.source_model:
        raise ConfigError(
            "warmstart needs source_model = <saved model dir> in the config"
        )
    return _report_run(harness.warm_start(cfg.source_model, cfg))


def cmd_ensemble(args):
    cfg = _load_config(args)
    if not cfg.models:
        raise ConfigError(
            "ensemble needs models = <dir>, <dir>, ... in the config"
        )
    models = [harness.load_model(path) for path in cfg.models]
    split = _raw_split(cfg)
    # One transform and forward per member serves both the member
    # errors and the vote.
    scores = harness.member_scores(models, split.inputs)
    member_errs = [error_rate_pct(s, split.labels) for s in scores]
    pred = harness.ensemble_vote(models, scores)
    err = 100.0 * float(np.mean(pred != split.labels))
    for path, e in zip(cfg.models, member_errs):
        print(f"member {path}: error_pct={harness.format_float(e)}")
    print(
        f"ensemble of {len(models)} on {cfg.eval_split}: "
        f"error_pct={harness.format_float(err)}"
    )
    os.makedirs(cfg.out_dir, exist_ok=True)
    out_path = os.path.join(cfg.out_dir, "ensemble.json")
    write_text(out_path, json_text({
        "models": list(cfg.models),
        "split": cfg.eval_split,
        "member_error_pct": member_errs,
        "ensemble_error_pct": err,
    }))
    print(f"wrote {out_path}")
    return 0


_COMMANDS = {
    "train": cmd_train,
    "eval": cmd_eval,
    "gradcheck": cmd_gradcheck,
    "warmstart": cmd_warmstart,
    "ensemble": cmd_ensemble,
}


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ConfigError, DomainError, ShapeError, IdxFormatError, ManifestError,
            harness.TrainingDivergedError, FileNotFoundError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
