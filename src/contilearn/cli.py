"""Command-line driver: train, predict, algebra.

Exit codes: 0 success, 1 configuration / model-format / usage errors, a run
config or model file that cannot be read, an output that cannot be written and
running out of memory, 2 data errors, a CSV that cannot be read included, 3
numerical failures (the message names the failing module). One line names a
file that cannot be read or written; an output is whole or as it was, and an
empty --out is refused before any work. ``train`` also writes ``<out>.report``.
A warning prints one ``contilearn: warning: ...`` line and leaves the exit
code alone; a UserWarning the warnings filter escalates to an error exits 2.
"""

from __future__ import annotations

import argparse
import sys
import warnings
from contextlib import suppress

import numpy as np

from .algebra import associativity_residual, fit_structure_constants, reference_algebra
from .data import load_csv, load_inputs
from .engine import TrainedModel, run
from .errors import ConfigError, DataError, ModelFormatError, NumericalError
from .model import predict_prob
from .modelio import (
    load_model,
    load_run_config,
    replacing,
    save_algebra_report,
    save_model,
    save_predictions,
    save_reports,
    write_text,
)

# rows per block for scoring and the algebra fit, so no (rows × expanded width) matrix is built
BLOCK_ROWS = 8192


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
    model, stages = run(load_csv(args.data, has_header=config.has_header), config)
    # the report is replaced first, so no new model stands beside an old report
    with replacing((args.out + ".report", "report"), (args.out, "model")) as (report, out):
        save_model(out, model)
        save_reports(report, [stage.report for stage in stages])
    return 0


def _model_features(model: TrainedModel, path, features):
    """``features`` (a method of the model's feature map) of the input rows at ``path``.

    Yields one matrix per block of ``BLOCK_ROWS`` rows, in file order. A row
    whose squared feature norm is not finite (a feature, or a product of
    two, overflows) raises DataError naming its file row; no warning is
    printed.
    """
    X = load_inputs(path, d=model.feature_map.d)
    for lo in range(0, X.shape[0], BLOCK_ROWS):
        with np.errstate(over="ignore", invalid="ignore"):
            F = features(X[lo : lo + BLOCK_ROWS])
            bad = ~np.isfinite(np.einsum("ij,ij->i", F, F))
        if bad.any():
            raise DataError(
                f"row {lo + int(np.argmax(bad)) + 1}:"
                " input too large in magnitude for the model's features"
            )
        yield F


def cmd_predict(args) -> int:
    model = load_model(args.model)
    blocks = _model_features(model, args.data, model.feature_map.transform)
    with replacing((args.out, "predictions")) as (out,):
        save_predictions(out, np.concatenate([predict_prob(model.w, F) for F in blocks]))
    return 0


def cmd_algebra(args) -> int:
    if args.reference is not None:
        if args.model is not None or args.data is not None:
            raise ConfigError("algebra --reference NAME takes no --model or --data")
        try:
            c = reference_algebra(args.reference)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        residual = associativity_residual(c)
        line = (
            f"algebra={args.reference} n={len(c)}"
            f" associativity_residual={residual!r} ok={'true' if residual == 0.0 else 'false'}"
        )
        try:
            print(line, flush=True)  # before the writer runs: a lost line leaves --out as it was
        except OSError as exc:
            # closed, so the exit does not flush the line it still buffers and fail again
            with suppress(OSError):
                sys.stdout.close()
            raise OSError(f"cannot write standard output: {exc.strerror}") from None
        if args.out:
            with replacing((args.out, "algebra")) as (out,):
                write_text(out, line + "\n")
        return 0
    if not (args.model and args.data and args.out):
        raise ConfigError("algebra needs either --reference NAME or --model, --data and --out")
    model = load_model(args.model)
    blocks = _model_features(model, args.data, model.feature_map.super_features)
    with replacing((args.out, "algebra")) as (out,):
        save_algebra_report(out, fit_structure_constants(*blocks))
    return 0


_COMMANDS = {"train": cmd_train, "predict": cmd_predict, "algebra": cmd_algebra}


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if args.out == "":
            raise ConfigError("--out: an empty path names no file")
        return _COMMANDS[args.command](args)
    except (ConfigError, ModelFormatError, OSError) as exc:
        print(f"contilearn: {exc}", file=sys.stderr)
        return 1
    except (DataError, UserWarning) as exc:
        # a UserWarning arrives here only when the caller's filter made it an error
        print(f"contilearn: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"contilearn: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        # the size that did not fit is n_replicates times the rows: a configuration choice
        print(f"contilearn: out of memory: {str(exc) or 'an allocation failed'}", file=sys.stderr)
        return 1


def _format_warning(message, category, filename, lineno, line=None) -> str:
    return f"contilearn: warning: {message}\n"


def entrypoint() -> None:
    """Console and ``python -m`` entry: warnings print as one ``contilearn: warning:`` line."""
    warnings.formatwarning = _format_warning
    raise SystemExit(main())
