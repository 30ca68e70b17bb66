"""Command-line driver: train, predict, algebra.

Exit codes: 0 success, 1 configuration / model-format / usage errors,
2 data errors, 3 numerical failures (the message names the failing module).
``contilearn train`` writes the model to --out and the per-iteration report
to ``<out>.report``.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

import numpy as np

from .algebra import associativity_residual, fit_structure_constants, reference_algebra
from .data import load_csv, load_inputs
from .engine import run
from .errors import ConfigError, DataError, ModelFormatError, NumericalError
from .model import predict_prob
from .modelio import (
    TrainedModel,
    load_model,
    load_run_config,
    save_algebra_report,
    save_model,
    save_predictions,
    save_reports,
)


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on usage errors; route them through ConfigError
    # so bad flags land on the configuration exit code.
    def error(self, message):
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="contilearn", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    train = sub.add_parser("train", help="run the iteration cycles and save a model")
    train.add_argument("--data", required=True, help="training CSV (label in the last column)")
    train.add_argument("--config", required=True, help="flat key=value run configuration")
    train.add_argument("--out", required=True, help="model path; the report goes to <out>.report")
    train.add_argument("--seed", type=int, default=None, help="override the config seed")

    predict = sub.add_parser("predict", help="write P(y=1) for every input row")
    predict.add_argument("--model", required=True)
    predict.add_argument("--data", required=True, help="CSV of inputs (no header)")
    predict.add_argument("--out", required=True)

    algebra = sub.add_parser(
        "algebra", help="fit structure constants on a model's features, or verify a reference"
    )
    algebra.add_argument("--model")
    algebra.add_argument("--data")
    algebra.add_argument("--out")
    algebra.add_argument("--reference", help="name of a built-in algebra to verify")
    return parser


def cmd_train(args) -> int:
    config = load_run_config(args.config)
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    dataset = load_csv(args.data, has_header=config.has_header)
    result = run(dataset, config)
    model = TrainedModel(
        feature_map=result.feature_map,
        w=result.w,
        r_per_iteration=tuple(rep.r for rep in result.reports),
        status=result.status,
        config=config,
    )
    save_model(args.out, model)
    save_reports(args.out + ".report", result.reports)
    return 0


def _model_features(model: TrainedModel, path, features):
    """``features`` (a method of the model's feature map) of the input rows at ``path``.

    A row whose squared feature norm is not finite (a feature, or a product
    of two, overflows) raises DataError naming it; no warning is printed.
    """
    X = load_inputs(path, d=model.feature_map.d)
    with np.errstate(over="ignore", invalid="ignore"):
        F = features(X)
        bad = ~np.isfinite(np.einsum("ij,ij->i", F, F))
    if bad.any():
        raise DataError(
            f"row {int(np.argmax(bad)) + 1}: input too large in magnitude for the model's features"
        )
    return F


def cmd_predict(args) -> int:
    model = load_model(args.model)
    probs = predict_prob(model.w, _model_features(model, args.data, model.feature_map.transform))
    save_predictions(args.out, probs)
    return 0


def cmd_algebra(args) -> int:
    if args.reference is not None:
        try:
            sc = reference_algebra(args.reference)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        residual = associativity_residual(sc)
        line = (
            f"algebra={args.reference} n={sc.n}"
            f" associativity_residual={residual!r} ok={'true' if residual == 0.0 else 'false'}"
        )
        print(line)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(line + "\n")
        return 0
    if not (args.model and args.data and args.out):
        raise ConfigError("algebra needs either --reference NAME or --model, --data and --out")
    model = load_model(args.model)
    features = _model_features(model, args.data, model.feature_map.super_features)
    save_algebra_report(args.out, fit_structure_constants(features))
    return 0


_COMMANDS = {"train": cmd_train, "predict": cmd_predict, "algebra": cmd_algebra}


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return _COMMANDS[args.command](args)
    except (ConfigError, ModelFormatError, OSError) as exc:
        print(f"contilearn: {exc}", file=sys.stderr)
        return 1
    except DataError as exc:
        print(f"contilearn: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"contilearn: {exc}", file=sys.stderr)
        return 3


def entrypoint() -> None:
    raise SystemExit(main())
