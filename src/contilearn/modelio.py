"""Run configuration, model persistence, and report serialization.

Everything on disk is line-oriented ``key = value`` text. ``CONFIG_KEYS`` is
the one table of run-configuration keys: it maps every ``RunConfig`` field,
in declaration order, to the (parse, format) pair of its type. It parses
config files, writes the model file's ``config.*`` echo (every key) and
reads that echo back; the README's configuration table is checked against
it. File paths come from the command line only. Defaults and range checks
live on the config classes themselves. The stage and algebra reports are
written field by field from ``IterationReport`` and ``AlgebraFitReport``
through the same per-type codecs, so each field's name is its key in the
file. The model format is versioned; floats are written with ``repr`` so a
save/load/save round trip is byte-identical.
Unknown keys are rejected outright since a silently ignored typo in a
hyper-parameter is worse than an error.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .algebra import AlgebraFitReport
from .data import Standardization, read_text
from .engine import EngineConfig, IterationReport
from .errors import ConfigError, ModelFormatError
from .featuremap import Layer, RecursiveFeatureMap

MODEL_FORMAT = "contilearn-model-v1"

_STATUSES = ("completed", "degenerate", "algebra-converged")


@dataclass(frozen=True)
class RunConfig(EngineConfig):
    """Engine settings plus the training CSV's header flag."""

    has_header: bool = False


def _fmt_float(v: float) -> str:
    return repr(float(v))


def _fmt_bool(v: bool) -> str:
    return "true" if v else "false"


def _fmt_vector(v) -> str:
    return ",".join(_fmt_float(x) for x in np.asarray(v, dtype=float))


def _parser(convert, expected: str):
    """A text parser whose ValueError reads "expected <expected>, got '<text>'"."""

    def parse(text: str):
        try:
            return convert(text)
        except (KeyError, ValueError):
            raise ValueError(f"expected {expected}, got {text!r}") from None

    return parse


_parse_int = _parser(int, "an integer")
_parse_float = _parser(float, "a number")
_parse_bool = _parser({"true": True, "false": False}.__getitem__, "true or false")


def _parse_vector(text: str) -> np.ndarray:
    if text == "":
        return np.zeros(0)
    return np.array([_parse_float(tok) for tok in text.split(",")])


def _parse_field(parse, text: str, key: str, error):
    try:
        return parse(text)
    except ValueError as exc:
        raise error(f"{key}: {exc}") from None


# (parse, format) for each field annotation of RunConfig, IterationReport and AlgebraFitReport
_CODECS = {
    "int": (_parse_int, str),
    "float": (_parse_float, _fmt_float),
    "bool": (_parse_bool, _fmt_bool),
    "tuple[float, ...]": (lambda text: tuple(_parse_vector(text)), _fmt_vector),
    "float | None": (
        lambda text: None if text == "none" else _parse_float(text),
        lambda v: "none" if v is None else _fmt_float(v),
    ),
    "int | None": (
        lambda text: None if text == "none" else _parse_int(text),
        lambda v: "none" if v is None else str(v),
    ),
}

CONFIG_KEYS = {f.name: _CODECS[f.type] for f in fields(RunConfig)}


def _parse_kv_lines(text: str, error):
    """Ordered (key, value) pairs from ``key = value`` lines; '#' starts a comment."""
    pairs: list[tuple[str, str]] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise error(f"line {lineno}: expected 'key = value', got {stripped!r}")
        key, value = stripped.split("=", 1)
        pairs.append((key.strip(), value.strip()))
    return pairs


def parse_run_config(text: str) -> RunConfig:
    """Config-file text to a validated RunConfig; absent keys keep their defaults."""
    values: dict = {}
    for key, value in _parse_kv_lines(text, ConfigError):
        if key not in CONFIG_KEYS:
            raise ConfigError(f"unknown config key {key!r}")
        if key in values:
            raise ConfigError(f"duplicate config key {key!r}")
        values[key] = _parse_field(CONFIG_KEYS[key][0], value, key, ConfigError)
    return RunConfig(**values)


def load_run_config(path) -> RunConfig:
    return parse_run_config(read_text(path, "config", ConfigError))


@dataclass(frozen=True)
class TrainedModel:
    """Everything needed to reproduce predictions: feature map, parameters, config echo."""

    feature_map: RecursiveFeatureMap
    w: np.ndarray
    r_per_iteration: tuple[float, ...]
    status: str
    config: RunConfig


def format_model(model: TrainedModel) -> str:
    fm = model.feature_map
    lines = [
        f"format = {MODEL_FORMAT}",
        f"status = {model.status}",
        f"d = {fm.d}",
        f"mean = {_fmt_vector(fm.standardization.mean)}",
        f"scale = {_fmt_vector(fm.standardization.scale)}",
        f"r_per_iteration = {_fmt_vector(model.r_per_iteration)}",
        f"n_layers = {len(fm.layers)}",
    ]
    for i, layer in enumerate(fm.layers):
        lines.append(f"layer{i}.m_in = {layer.m_in}")
        lines.append(f"layer{i}.k = {layer.k}")
        lines.append(f"layer{i}.degenerate_v0 = {_fmt_bool(layer.degenerate_v0)}")
        lines.append(f"layer{i}.v0 = {_fmt_vector(layer.v0)}")
        for j in range(layer.k):
            lines.append(f"layer{i}.u{j} = {_fmt_vector(layer.u[j])}")
        lines.append(f"layer{i}.scales = {_fmt_vector(layer.scales)}")
    lines.append(f"w = {_fmt_vector(model.w)}")
    lines.extend(f"config.{k} = {CONFIG_KEYS[k][1](getattr(model.config, k))}" for k in CONFIG_KEYS)
    return "\n".join(lines) + "\n"


def save_model(path, model: TrainedModel) -> None:
    Path(path).write_text(format_model(model), encoding="utf-8")


def _probe_layers(feature_map: RecursiveFeatureMap) -> None:
    """Reject a map that overflows on the standardized zero row and the +-1 unit rows.

    The zero row is the training mean and each unit row lies one standard
    deviation from it along one input; there a calibrated layer's features
    are of order one. A layer whose features on these rows have no finite
    squared norm is a fault of the model file, not of the rows scored later.
    """
    d = feature_map.d
    Z = np.hstack([np.ones((2 * d + 1, 1)), np.vstack([np.zeros(d), np.eye(d), -np.eye(d)])])
    with np.errstate(over="ignore", invalid="ignore"):
        for i, layer in enumerate(feature_map.layers):
            Z = layer.apply(Z)
            if not np.isfinite(np.einsum("ij,ij->i", Z, Z)).all():
                raise ModelFormatError(f"layer{i}: features overflow on the standardized unit rows")


def parse_model(text: str) -> TrainedModel:
    fields: dict[str, str] = {}
    for key, value in _parse_kv_lines(text, ModelFormatError):
        if key in fields:
            raise ModelFormatError(f"duplicate model field {key!r}")
        fields[key] = value

    def take(key: str, parse=str):
        if key not in fields:
            raise ModelFormatError(f"missing model field {key!r}")
        return _parse_field(parse, fields.pop(key), key, ModelFormatError)

    fmt = take("format")
    if fmt != MODEL_FORMAT:
        raise ModelFormatError(f"unsupported model format {fmt!r} (expected {MODEL_FORMAT!r})")
    status = take("status")
    if status not in _STATUSES:
        raise ModelFormatError(f"unknown model status {status!r}")
    d = take("d", _parse_int)
    mean = take("mean", _parse_vector)
    scale = take("scale", _parse_vector)
    r_per_iteration = tuple(take("r_per_iteration", _parse_vector))
    if not all(np.isfinite(r) and r > 0 for r in r_per_iteration):
        raise ModelFormatError("r_per_iteration: entries must be positive finite reals")
    n_layers = take("n_layers", _parse_int)

    try:
        standardization = Standardization(mean, scale)
        if standardization.d != d:
            raise ModelFormatError("standardization width does not match d")
        layers = []
        for i in range(n_layers):
            m_in = take(f"layer{i}.m_in", _parse_int)
            k = take(f"layer{i}.k", _parse_int)
            degenerate = take(f"layer{i}.degenerate_v0", _parse_bool)
            v0 = take(f"layer{i}.v0", _parse_vector)
            u = np.array([take(f"layer{i}.u{j}", _parse_vector) for j in range(k)]).reshape(k, m_in)
            if v0.shape != (m_in,):
                raise ModelFormatError(f"layer{i}.v0 width does not match layer{i}.m_in")
            scales = take(f"layer{i}.scales", _parse_vector)
            try:
                layers.append(Layer(v0, u, scales, degenerate))
            except ValueError as exc:
                raise ModelFormatError(f"layer{i}: {exc}") from None
        feature_map = RecursiveFeatureMap(standardization, tuple(layers))
        _probe_layers(feature_map)
        w = take("w", _parse_vector)
        if not np.all(np.isfinite(w)):
            raise ModelFormatError("w: entries must be finite")
        # |score| <= |w| |F| and every scored row has a finite |F|^2, so a
        # finite 4 |w|^2 keeps every score below half the largest double
        with np.errstate(over="ignore"):
            if not np.isfinite(4.0 * (w @ w)):
                raise ModelFormatError("w: entries too large in magnitude to score with")
        if w.shape != (feature_map.output_dim,):
            raise ModelFormatError(
                f"parameter vector has {w.shape[0]} entries, the feature map emits"
                f" {feature_map.output_dim}"
            )
        echo = {f"config.{k}": k for k in CONFIG_KEYS}
        unknown = [key for key in fields if key not in echo]
        if unknown:
            raise ModelFormatError(f"unknown model field {unknown[0]!r}")
        config = RunConfig(**{k: take(key, CONFIG_KEYS[k][0]) for key, k in echo.items()})
    except ModelFormatError:
        raise
    except ValueError as exc:
        raise ModelFormatError(str(exc)) from None
    return TrainedModel(feature_map, w, r_per_iteration, status, config)


def load_model(path) -> TrainedModel:
    return parse_model(read_text(path, "model", ModelFormatError))


def format_report_line(report: IterationReport) -> str:
    """One ``name=value`` token per IterationReport field, formatted by its type's codec."""
    return " ".join(
        f"{f.name}={_CODECS[f.type][1](getattr(report, f.name))}" for f in fields(IterationReport)
    )


def parse_report_line(line: str) -> dict[str, str]:
    """Field name to raw value text; the writer's field order is fixed."""
    out: dict[str, str] = {}
    for token in line.split():
        key, _, value = token.partition("=")
        out[key] = value
    return out


def save_reports(path, reports) -> None:
    Path(path).write_text(
        "".join(format_report_line(r) + "\n" for r in reports), encoding="utf-8"
    )


def save_algebra_report(path, report: AlgebraFitReport) -> None:
    """``n``, then every diagnostic field in declaration order, then each row c{a}.{b}, a <= b."""
    c = report.constants.c
    lines = [f"n = {len(c)}"]
    lines += [
        f"{f.name} = {_CODECS[f.type][1](getattr(report, f.name))}"
        for f in fields(AlgebraFitReport)[1:]
    ]
    lines += [f"c{a}.{b} = {_fmt_vector(c[a, b])}" for a, b in zip(*np.triu_indices(len(c)))]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def save_predictions(path, probs) -> None:
    """One probability per line, 17 significant digits (exact for doubles)."""
    probs = np.asarray(probs, dtype=float).tolist()
    Path(path).write_text(("%.17g\n" * len(probs)) % tuple(probs), encoding="utf-8")
