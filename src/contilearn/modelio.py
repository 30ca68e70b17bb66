"""Run configuration, model persistence, and report serialization.

Everything on disk is line-oriented ``key = value`` text, read by
``_parse_kv_lines`` (which rejects a repeated key). ``_field_texts`` writes
a dataclass's fields through ``_CODECS``, the (parse, format) pair of each
field type: the model file's ``config.*`` echo of ``EngineConfig`` and the
stage and algebra reports (``IterationReport``, ``AlgebraFitReport``), so a
field's name is its key in the file. ``CONFIG_KEYS`` maps every
``EngineConfig`` field, in declaration order, to its parser; it parses config
files and reads the echo back. File paths come from the command line only.
Defaults and range checks live on the config classes, and the README's
configuration table is checked against them. The model format is versioned;
floats are written with ``repr`` so a save/load/save round trip is
byte-identical. Unknown keys are rejected outright since a silently ignored
typo in a hyper-parameter is worse than an error. Every file a command writes
goes through ``replacing``, so it ends whole or as it was.
"""

from __future__ import annotations

import errno
import os
import shutil
import stat
import sys
from contextlib import contextmanager, suppress
from dataclasses import fields, replace

import numpy as np

from .algebra import AlgebraFitReport
from .data import read_text
from .engine import STATUSES, EngineConfig, IterationReport, TrainedModel
from .errors import ConfigError, ModelFormatError
from .featuremap import Layer, RecursiveFeatureMap

MODEL_FORMAT = "contilearn-model-v1"


def _fmt_float(v: float) -> str:
    return repr(float(v))


def _fmt_bool(v: bool) -> str:
    return "true" if v else "false"


def _fmt_vector(v) -> str:
    return ",".join(_fmt_float(x) for x in v)


def _parser(convert, expected: str):
    """A text parser whose ValueError reads "expected <expected>, got '<text>'"."""

    def parse(text: str):
        try:
            return convert(text)
        except (KeyError, ValueError):
            raise ValueError(f"expected {expected}, got {text!r}") from None

    return parse


def _nonnegative_int(text: str) -> int:
    n = int(text)
    if n < 0:
        raise ValueError(text)
    return n


_parse_int = _parser(int, "an integer")
_parse_count = _parser(_nonnegative_int, "a non-negative integer")
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


# (parse, format) for each field annotation of EngineConfig, IterationReport and AlgebraFitReport
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

CONFIG_KEYS = {f.name: _CODECS[f.type][0] for f in fields(EngineConfig)}


def _field_texts(record, skip: int = 0) -> list[tuple[str, str]]:
    """(name, text) of each dataclass field of ``record`` after the first ``skip``, by type."""
    return [(f.name, _CODECS[f.type][1](getattr(record, f.name))) for f in fields(record)[skip:]]


def _parse_kv_lines(text: str, error, noun: str) -> dict[str, str]:
    """Key to value of ``key = value`` lines, in file order; a repeated key raises ``error``.

    A line ends at a line feed only. One whose first non-blank character is '#' is a comment.
    """
    pairs: dict[str, str] = {}
    for lineno, line in enumerate(text.split("\n"), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise error(f"line {lineno}: expected 'key = value', got {stripped!r}")
        key, value = (part.strip() for part in stripped.split("=", 1))
        if key in pairs:
            raise error(f"duplicate {noun} {key!r}")
        pairs[key] = value
    return pairs


def parse_run_config(text: str) -> EngineConfig:
    """Config-file text to a validated EngineConfig; absent keys keep their defaults."""
    values: dict = {}
    for key, value in _parse_kv_lines(text, ConfigError, "config key").items():
        if key not in CONFIG_KEYS:
            raise ConfigError(f"unknown config key {key!r}")
        values[key] = _parse_field(CONFIG_KEYS[key], value, key, ConfigError)
    return EngineConfig(**values)


def load_run_config(path) -> EngineConfig:
    return parse_run_config(read_text(path, "config", ConfigError))


def format_model(model: TrainedModel) -> str:
    fm = model.feature_map
    lines = [
        f"format = {MODEL_FORMAT}",
        f"status = {model.status}",
        f"d = {fm.d}",
        f"mean = {_fmt_vector(fm.mean)}",
        f"scale = {_fmt_vector(fm.scale)}",
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
    lines.extend(f"config.{key} = {text}" for key, text in _field_texts(model.config))
    return "\n".join(lines) + "\n"


def write_text(path, text: str) -> None:
    """Write ``text`` to ``path`` as UTF-8; an OSError names ``path``, a failed write's too."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        exc.filename = path
        raise


def _file_mode(path) -> int | None:
    """``st_mode`` of the file ``path`` names, links followed; None when there is none."""
    try:
        return os.stat(path).st_mode
    except FileNotFoundError:
        return None


def _stream_fd(path) -> int | None:
    """1 or 2 when ``path`` names the file this process's standard output or error writes to."""
    st = os.stat(path)
    for fd in (1, 2):
        with suppress(OSError):
            if os.path.samestat(st, os.fstat(fd)):
                return fd
    return None


def _copy_to_stream(tmp, fd) -> None:
    """Write the file ``tmp``'s bytes to ``fd`` after flushing ``sys.stdout`` and ``sys.stderr``.

    An OSError names ``tmp``, so ``replacing`` names its target.
    """
    try:
        sys.stdout.flush()
        sys.stderr.flush()
        with open(tmp, "rb") as src, open(fd, "wb", closefd=False) as out:
            shutil.copyfileobj(src, out)
    except OSError as exc:
        exc.filename = tmp
        raise


@contextmanager
def replacing(*targets: tuple[str, str]):
    """Yield one path to write per ``(path, kind)`` target; each target ends whole or unchanged.

    The path yielded is a new temporary file beside the file the target names, links
    followed, made with the mode ``open`` gives a new file. When the block returns and
    no target is a directory, each temporary takes an existing file's permission bits
    and is renamed onto its file, in the order given. A target that exists and is no
    regular file (a pipe, a device) is yielded itself and written in place. A regular
    file that is this process's standard output or error (``--out /dev/stdout >> log``)
    is not replaced: after the renames its temporary's bytes are written to that stream,
    and the temporary is removed. On any failure, an interrupt included, every temporary
    is removed and the targets are left as they were; an OSError that names a target or
    its temporary becomes one ``cannot write <kind> file <path>: <reason>``. Nothing is
    synced to the disk: this guards against a failed or killed process, not against a
    crash of the host.
    """
    names = {}  # each path an OSError can name -> its (path, kind) target
    moves = []  # (temporary, file) of each target that is replaced
    streams = []  # (temporary, fd) of each target that is standard output or error
    paths = []
    try:
        for path, kind in targets:
            if not path:
                # os.path.realpath("") is the working directory
                raise ConfigError(f"an empty path names no {kind} file")
            names[path] = (path, kind)
            mode = _file_mode(path)
            if mode is not None and not (stat.S_ISREG(mode) or stat.S_ISDIR(mode)):
                paths.append(path)
                continue
            real = os.path.realpath(path)
            # a name of fixed length, so the longest target name still has a temporary
            tmp = os.path.join(os.path.dirname(real), f".contilearn-{os.urandom(6).hex()}.tmp")
            names[real] = names[tmp] = (path, kind)
            os.close(os.open(tmp, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o666))
            fd = _stream_fd(path) if mode is not None and stat.S_ISREG(mode) else None
            if fd is None:
                moves.append((tmp, real))
            else:
                streams.append((tmp, fd))
            paths.append(tmp)
        yield paths
        for tmp, real in moves:
            mode = _file_mode(real)
            if mode is None:
                continue
            if stat.S_ISDIR(mode):
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), real)
            os.chmod(tmp, stat.S_IMODE(mode))
        for tmp, real in moves:
            os.replace(tmp, real)
        for tmp, fd in streams:
            _copy_to_stream(tmp, fd)
            os.remove(tmp)
    except BaseException as exc:
        for tmp, _ in moves + streams:
            with suppress(OSError):
                os.remove(tmp)
        target = names.get(exc.filename) if isinstance(exc, OSError) else None
        if target is None:
            raise
        raise OSError(f"cannot write {target[1]} file {target[0]}: {exc.strerror}") from None


def save_model(path, model: TrainedModel) -> None:
    write_text(path, format_model(model))


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
    fields = _parse_kv_lines(text, ModelFormatError, "model field")

    def take(key: str, parse=str):
        if key not in fields:
            raise ModelFormatError(f"missing model field {key!r}")
        return _parse_field(parse, fields.pop(key), key, ModelFormatError)

    fmt = take("format")
    if fmt != MODEL_FORMAT:
        raise ModelFormatError(f"unsupported model format {fmt!r} (expected {MODEL_FORMAT!r})")
    status = take("status")
    if status not in STATUSES:
        raise ModelFormatError(f"unknown model status {status!r}")
    d = take("d", _parse_count)
    mean = take("mean", _parse_vector)
    scale = take("scale", _parse_vector)
    r_per_iteration = tuple(take("r_per_iteration", _parse_vector))
    if not all(np.isfinite(r) and r > 0 for r in r_per_iteration):
        raise ModelFormatError("r_per_iteration: entries must be positive finite reals")
    n_layers = take("n_layers", _parse_count)

    try:
        feature_map = RecursiveFeatureMap(mean, scale)
        if feature_map.d != d:
            raise ModelFormatError("standardization width does not match d")
        layers = []
        for i in range(n_layers):
            m_in = take(f"layer{i}.m_in", _parse_count)
            k = take(f"layer{i}.k", _parse_count)
            degenerate = take(f"layer{i}.degenerate_v0", _parse_bool)
            rows = []  # v0, then u0 .. u{k-1}, each checked as it is taken
            for name in ("v0" if j < 0 else f"u{j}" for j in range(-1, k)):
                rows.append(take(f"layer{i}.{name}", _parse_vector))
                if rows[-1].shape != (m_in,):
                    raise ModelFormatError(f"layer{i}.{name} width does not match layer{i}.m_in")
            v0, u = rows[0], np.array(rows[1:]).reshape(k, m_in)
            scales = take(f"layer{i}.scales", _parse_vector)
            try:
                layers.append(Layer(v0, u, scales))
            except ValueError as exc:
                raise ModelFormatError(f"layer{i}: {exc}") from None
            if layers[-1].degenerate_v0 != degenerate:
                raise ModelFormatError(f"layer{i}.degenerate_v0 contradicts layer{i}.v0's norm")
        feature_map = replace(feature_map, layers=tuple(layers))
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
        config = EngineConfig(**{k: take(key, CONFIG_KEYS[k]) for key, k in echo.items()})
    except ModelFormatError:
        raise
    except ValueError as exc:
        raise ModelFormatError(str(exc)) from None
    return TrainedModel(feature_map, w, r_per_iteration, status, config)


def load_model(path) -> TrainedModel:
    return parse_model(read_text(path, "model", ModelFormatError))


def format_report_line(report: IterationReport) -> str:
    """One ``name=value`` token per IterationReport field, formatted by its type's codec."""
    return " ".join(f"{name}={text}" for name, text in _field_texts(report))


def save_reports(path, reports) -> None:
    write_text(path, "".join(format_report_line(r) + "\n" for r in reports))


def save_algebra_report(path, report: AlgebraFitReport) -> None:
    """``n``, then every diagnostic field in declaration order, then each row c{a}.{b}, a <= b."""
    c = report.constants
    lines = [f"n = {len(c)}"]
    lines += [f"{name} = {text}" for name, text in _field_texts(report, skip=1)]
    lines += [f"c{a}.{b} = {_fmt_vector(c[a, b])}" for a, b in zip(*np.triu_indices(len(c)))]
    write_text(path, "\n".join(lines) + "\n")


def save_predictions(path, probs) -> None:
    """One probability per line, 17 significant digits (exact for doubles)."""
    write_text(path, ("%.17g\n" * len(probs)) % tuple(probs.tolist()))
