import ast
import dataclasses
import errno
import io
import os
import re
import stat
import subprocess
import sys
import warnings
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from contilearn import cli, engine
from contilearn.algebra import AlgebraFitReport, fit_structure_constants
from contilearn.cli import main
from contilearn.data import load_csv, load_inputs
from contilearn.engine import EngineConfig, IterationReport, run
from contilearn.errors import ConfigError, ModelFormatError
from contilearn.model import predict_prob
from contilearn.modelio import (
    CONFIG_KEYS,
    _field_texts,
    format_model,
    format_report_line,
    load_model,
    load_run_config,
    parse_run_config,
    replacing,
    save_algebra_report,
    save_model,
    save_predictions,
    save_reports,
)
from tests.conftest import BLAS_THREAD_VARS

REPO = Path(__file__).resolve().parents[1]
BOM = "\ufeff".encode()


@pytest.fixture(scope="module")
def trained(tmp_path_factory, xor_csv, xor_config):
    """One trained parity model shared by the read-only CLI tests."""
    model_path = tmp_path_factory.mktemp("trained") / "model.txt"
    code = main(
        ["train", "--data", str(xor_csv), "--config", str(xor_config), "--out", str(model_path)]
    )
    assert code == 0
    return model_path


# ---------------------------------------------------------------- run config


def test_parse_run_config_defaults():
    config = parse_run_config("")
    assert config == EngineConfig()


def test_parse_run_config_values():
    config = parse_run_config("n_iters = 2\nr_grid = 0.5,2.0\nalgebra_stop_tol = 0.25\n")
    assert config.n_iters == 2
    assert config.r_grid == (0.5, 2.0)
    assert config.algebra_stop_tol == 0.25


def test_a_config_line_ends_at_a_line_feed_only():
    # str.splitlines() would also break at the form feed, leaving a line with no '='
    assert parse_run_config("n_iters\x0c= 0\n").n_iters == 0
    config = parse_run_config("n_iters = 2\r\n\x85seed = 4\u2028\n")
    assert config == EngineConfig(n_iters=2, seed=4)


def test_unknown_key_rejected():
    with pytest.raises(ConfigError, match="unknown config key"):
        parse_run_config("n_itres = 2\n")


def test_duplicate_key_rejected():
    with pytest.raises(ConfigError, match="duplicate"):
        parse_run_config("n_iters = 1\nn_iters = 2\n")


@pytest.mark.parametrize(
    "text", ["bogus = 1\nn_iters = 1\nn_iters = 2\n", "n_iters = x\nn_iters = 2\n"]
)
def test_a_repeated_key_is_named_before_any_key_is_interpreted(text):
    with pytest.raises(ConfigError) as caught:
        parse_run_config(text)
    assert str(caught.value) == "duplicate config key 'n_iters'"


def test_out_of_range_value_rejected():
    with pytest.raises(ConfigError):
        parse_run_config("rel_threshold = 1.5\n")
    with pytest.raises(ConfigError):
        parse_run_config("r_grid = 0.1,-1.0\n")


def test_config_key_table_covers_every_field_in_echo_order(trained):
    assert list(CONFIG_KEYS) == [f.name for f in dataclasses.fields(EngineConfig)]
    echoed = [
        line.split(" = ")[0][len("config.") :]
        for line in trained.read_text().splitlines()
        if line.startswith("config.")
    ]
    assert echoed == list(CONFIG_KEYS)


def _readme() -> str:
    return (REPO / "README.md").read_text(encoding="utf-8")


@pytest.mark.parametrize(
    "marker, report_class, first",
    [("Stage report keys", IterationReport, 0), ("Algebra report keys", AlgebraFitReport, 1)],
)
def test_readme_report_keys_match_the_report_fields(marker, report_class, first):
    # the sentence after "<marker>, in file order:" lists the keys up to its period
    listed = " ".join(_readme().split()).split(f"{marker}, in file order:", 1)[1].split(".", 1)[0]
    keys = re.findall(r"`(\w+)`", listed)
    # the algebra file leads with n in place of the constants field
    expected = ["n"] * first + [f.name for f in dataclasses.fields(report_class)[first:]]
    assert keys == expected


def test_readme_config_table_matches_the_key_table():
    readme = _readme()
    section = readme.split("## Run configuration", 1)[1]
    rows = [line for line in section.splitlines() if line.startswith("| `")]
    documented = {}
    for row in rows:
        keys, default = [cell.strip() for cell in row.strip("|").split("|")[:2]]
        for key in keys.split(","):
            documented[key.strip().strip("`")] = default.strip("`")
    assert documented == dict(_field_texts(EngineConfig()))


def test_readme_states_the_count_bound():
    bound = engine.MAX_COUNT_ENTRIES
    text = " ".join(_readme().split())
    assert f"2^{bound.bit_length() - 1} = {bound:,} entries".replace(",", " ") in text


# the functions where a value enters the library, by module: every other function
# assumes what these establish and raises no ValueError of its own
BOUNDARY_CHECKS = {
    "algebra": {"reference_algebra"},
    "data": {"Dataset.__post_init__"},
    "featuremap": {
        "Layer.__post_init__",
        "RecursiveFeatureMap.__post_init__",
        "RecursiveFeatureMap.super_features",
    },
    "modelio": {"_parser.parse", "_nonnegative_int"},  # the codecs
}


# the functions that call np.asarray or np.ascontiguousarray, by module: the boundaries
# that convert arrays once, and two layout copies: ``expand`` returns C order because the
# next layer's BLAS product rounds by memory layout, and the algebra fit's blocks give
# ``pair_products`` contiguous feature rows. Every other function takes the float64
# arrays these build
ARRAY_CONVERSIONS = {
    "algebra": {"fit_structure_constants.products"},
    "data": {"Dataset.__post_init__"},
    "featuremap": {
        "Layer.__post_init__",
        "expand",
        "RecursiveFeatureMap.__post_init__",
        "RecursiveFeatureMap.super_features",
    },
}


def _package_sites(matches) -> dict[str, set[str]]:
    """Per module, the dotted name of the enclosing function of every AST node ``matches``."""

    def visit(node, scope, found):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, (*scope, child.name), found)
                continue
            if matches(child):
                found.add(".".join(scope))
            visit(child, scope, found)
        return found

    package = Path(cli.__file__).parent
    sites = {
        path.stem: visit(ast.parse(path.read_text(encoding="utf-8")), (), set())
        for path in sorted(package.glob("*.py"))
    }
    return {module: names for module, names in sites.items() if names}


def _raises_value_error(node) -> bool:
    if not isinstance(node, ast.Raise):
        return False
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return isinstance(exc, ast.Name) and exc.id == "ValueError"


def _converts_array(node) -> bool:
    func = node.func if isinstance(node, ast.Call) else None
    return (
        isinstance(func, ast.Attribute)
        and func.attr in ("asarray", "ascontiguousarray")
        and isinstance(func.value, ast.Name)
        and func.value.id == "np"
    )


def test_only_boundary_functions_raise_value_error():
    assert _package_sites(_raises_value_error) == BOUNDARY_CHECKS


def test_only_boundary_functions_convert_arrays():
    assert _package_sites(_converts_array) == ARRAY_CONVERSIONS


def _builds_trained_model(node) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "TrainedModel"
    )


def test_only_training_and_the_model_reader_build_a_trained_model():
    assert _package_sites(_builds_trained_model) == {
        "engine": {"run"},
        "modelio": {"parse_model"},
    }


def _none_defaults_replaced_by_a_value() -> list[str]:
    """``module.function: p`` for each parameter p defaulting to None that its function replaces.

    The replacing forms are a conditional expression on ``p is None`` (or ``p is not
    None``), as in ``p = … if p is None else p``, and ``p or …``. A None with a meaning
    of its own is tested in an ``if`` statement or passed on, and matches neither.
    """

    def tests_none(node, name):
        return (
            isinstance(node, ast.Compare)
            and isinstance(node.left, ast.Name)
            and node.left.id == name
            and isinstance(node.ops[0], (ast.Is, ast.IsNot))
            and isinstance(node.comparators[0], ast.Constant)
            and node.comparators[0].value is None
        )

    def replaces(node, name):
        if isinstance(node, ast.IfExp):
            return tests_none(node.test, name)
        return (
            isinstance(node, ast.BoolOp)
            and isinstance(node.op, ast.Or)
            and isinstance(node.values[0], ast.Name)
            and node.values[0].id == name
        )

    found = []
    for path in sorted(Path(cli.__file__).parent.glob("*.py")):
        for func in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(func, ast.FunctionDef):
                continue
            params = func.args.posonlyargs + func.args.args
            defaults = [None] * (len(params) - len(func.args.defaults)) + func.args.defaults
            pairs = [*zip(params, defaults), *zip(func.args.kwonlyargs, func.args.kw_defaults)]
            for param, default in pairs:
                if isinstance(default, ast.Constant) and default.value is None:
                    if any(replaces(node, param.arg) for node in ast.walk(func)):
                        found.append(f"{path.stem}.{func.name}: {param.arg}")
    return found


def test_no_parameter_defaults_to_none_only_to_be_replaced():
    # a default is the value it stands for: counts=1.0, w_init=0.0, config=SolverConfig()
    assert _none_defaults_replaced_by_a_value() == []


def _imported_packages(node) -> list[str]:
    """The top-level package of each absolute import in one AST node."""
    if isinstance(node, ast.Import):
        return [alias.name.split(".")[0] for alias in node.names]
    if isinstance(node, ast.ImportFrom) and node.level == 0:
        return [node.module.split(".")[0]]
    return []


def _scripts_importing_numpy_before_contilearn() -> list[str]:
    """Each ``scripts/*.py`` whose first numpy import comes before its first contilearn import."""

    def first_line(tree, package):
        return min(
            (node.lineno for node in ast.walk(tree) if package in _imported_packages(node)),
            default=None,
        )

    found = []
    for path in sorted((REPO / "scripts").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        contilearn, numpy = first_line(tree, "contilearn"), first_line(tree, "numpy")
        if contilearn is not None and numpy is not None and numpy < contilearn:
            found.append(f"scripts/{path.name}")
    return found


def test_scripts_import_contilearn_before_numpy():
    # the package root pins one BLAS thread only if it runs before numpy loads, so a script
    # that imports numpy first trains at the host's thread count, with other bytes
    assert _scripts_importing_numpy_before_contilearn() == []


def test_config_range_is_checked_when_built(tmp_path, xor_csv, xor_config, capsys):
    with pytest.raises(ConfigError, match="n_replicates"):
        EngineConfig(n_replicates=1)
    with pytest.raises(ConfigError, match="grad_tol"):
        parse_run_config("grad_tol = 0\n")
    for line, message in [
        ("seed = -5", "seed must be an unsigned 64-bit integer"),
        ("k_max = 0", "k_max must be at least 1"),
        ("algebra_stop_tol = -1", "algebra_stop_tol must be non-negative"),
    ]:
        config = tmp_path / "range.cfg"
        config.write_text(f"{line}\n")
        argv = ["train", "--data", str(xor_csv), "--config", str(config)]
        assert main(argv + ["--out", str(tmp_path / "m")]) == 1
        assert capsys.readouterr().err.splitlines() == [f"contilearn: {message}"]


def test_missing_config_file(tmp_path):
    with pytest.raises(ConfigError):
        load_run_config(tmp_path / "none.cfg")


# ---------------------------------------------------------------- train


def _report_fields(line: str) -> dict[str, str]:
    return dict(token.split("=", 1) for token in line.split())


def test_train_exit_zero_and_report_accuracy(trained):
    report_lines = (trained.parent / (trained.name + ".report")).read_text().splitlines()
    assert len(report_lines) == 2
    final = _report_fields(report_lines[1])
    assert final["iteration"] == "1"
    assert float(final["accuracy"]) >= 0.95
    first = _report_fields(report_lines[0])
    assert first["closure"] != "none"
    assert float(first["best_L"]) >= float(first["embed_L"]) - 1e-9


def test_report_fields_name_every_report_field_once(trained):
    names = [f.name for f in dataclasses.fields(IterationReport)]
    for line in Path(f"{trained}.report").read_text().splitlines():
        assert list(_report_fields(line)) == names


def test_report_line_formats_each_field_by_its_type():
    report = IterationReport(2, 6, None, None, -2.5, -3.0, 0.1, -0.5, None, 0.75)
    assert format_report_line(report) == (
        "iteration=2 m=6 expanded=none k=none best_L=-2.5 embed_L=-3.0 r=0.1 oob=-0.5"
        " closure=none accuracy=0.75"
    )
    report = dataclasses.replace(report, expanded=27, k=6, closure=1e-17)
    assert " expanded=27 k=6 " in format_report_line(report)
    assert " closure=1e-17 " in format_report_line(report)


def test_train_missing_data_file(tmp_path, xor_config, capsys):
    missing = tmp_path / "missing.csv"
    code = main(
        ["train", "--data", str(missing), "--config", str(xor_config), "--out", str(tmp_path / "m")]
    )
    assert code == 2
    assert "missing.csv" in capsys.readouterr().err


def _train_exit(tmp_path, rows, config_text):
    data = tmp_path / "rows.csv"
    data.write_text(rows)
    config = tmp_path / "run.cfg"
    config.write_text(config_text)
    return main(
        ["train", "--data", str(data), "--config", str(config), "--out", str(tmp_path / "m")]
    )


def test_train_on_overflowing_inputs_is_a_data_error(tmp_path, capsys):
    # the spread of +-1e300 overflows a double, so the column cannot be standardized
    code = _train_exit(tmp_path, "1e300,0\n-1e300,1\n1.0,0\n2.0,1\n", "n_iters = 1\n")
    err = capsys.readouterr().err
    assert code == 2
    assert err.splitlines() == [
        "contilearn: column 1: values too large in magnitude to standardize"
    ]


def test_algebra_check_on_too_few_rows_is_a_data_error(tmp_path, capsys):
    # 4 rows cannot fit the algebra of 1 + 4 derived features of a 3-input problem
    rows = "0.1,0.5,1.2,0\n-0.4,1.1,0.3,1\n0.9,-0.2,-1.0,1\n-1.3,0.7,0.8,0\n"
    config = "n_iters = 1\nalgebra_check = true\nrel_threshold = 1e-6\n"
    code = _train_exit(tmp_path, rows, config)
    err = capsys.readouterr().err
    assert code == 2
    assert err.splitlines() == [
        "contilearn: need at least 5 samples to fit the algebra of 5 features, got 4"
    ]


@pytest.mark.parametrize(
    "data, r_grid, chosen",
    [
        # 2r overflows a double, so the Hessian must not add the prior's diagonal to itself
        ("xor_csv", "1e308", 1e308),
        ("xor_csv", "1.7e308", 1.7e308),
        # the second stage starts at the embedded mean, where |r w|^2 overflows
        ("circle_csv", "1.0,1e300", 1.0),
        ("circle_csv", "1.0,1e308", 1.0),
    ],
)
def test_huge_prior_trains_without_a_warning(tmp_path, request, capsys, data, r_grid, chosen):
    data = request.getfixturevalue(data)
    config = tmp_path / "huge.cfg"
    config.write_text(f"n_iters = 1\nn_replicates = 8\nseed = 3\nr_grid = {r_grid}\n")
    out = tmp_path / "m"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["train", "--data", str(data), "--config", str(config), "--out", str(out)])
    assert code == 0
    assert capsys.readouterr().err == ""
    for line in Path(f"{out}.report").read_text().splitlines():
        assert float(_report_fields(line)["r"]) == chosen


def test_a_prior_whose_replicates_all_fail_is_skipped(tmp_path, circle_csv, capsys):
    # at stage 2 the embedded start makes r |w|^2 / 2 overflow for every r = 1e308 replicate
    config = tmp_path / "skip.cfg"
    config.write_text("n_iters = 2\nn_replicates = 8\nseed = 3\nr_grid = 1.0,1e308\n")
    out = tmp_path / "m"
    argv = ["train", "--data", str(circle_csv), "--config", str(config), "--out", str(out)]
    with pytest.warns(UserWarning) as caught:
        code = main(argv)
    assert (code, capsys.readouterr().err) == (0, "")
    # the skipped prior's failed solves are the train's one warning
    assert [str(w.message) for w in caught] == [
        "not every solve converged: stage 2: 8 of 16 replicate solves failed"
        " (objective is not finite at the starting point)"
    ]
    lines = Path(f"{out}.report").read_text().splitlines()
    assert [float(_report_fields(line)["r"]) for line in lines] == [1.0, 1.0, 1.0]


def test_train_bad_config_exit_code(tmp_path, xor_csv):
    bad = tmp_path / "bad.cfg"
    bad.write_text("definitely_not_a_key = 1\n")
    code = main(
        ["train", "--data", str(xor_csv), "--config", str(bad), "--out", str(tmp_path / "m")]
    )
    assert code == 1


@pytest.mark.parametrize("key", ["data", "out"])
def test_paths_are_not_config_keys(tmp_path, xor_csv, capsys, key):
    config = tmp_path / "paths.cfg"
    config.write_text(f"{key} = {tmp_path / 'elsewhere'}\n")
    code = main(
        ["train", "--data", str(xor_csv), "--config", str(config), "--out", str(tmp_path / "m")]
    )
    assert code == 1
    assert capsys.readouterr().err.splitlines() == [f"contilearn: unknown config key '{key}'"]


@pytest.mark.parametrize("flag", ["--data", "--out"])
def test_train_needs_data_and_out(tmp_path, xor_csv, xor_config, capsys, flag):
    out = tmp_path / "m"
    argv = ["train", "--data", str(xor_csv), "--config", str(xor_config), "--out", str(out)]
    del argv[argv.index(flag) : argv.index(flag) + 2]
    assert main(argv) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"contilearn: the following arguments are required: {flag}"
    ]
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["train", "--data", "no.csv", "--config", "no.cfg", "--out", ""],
        ["predict", "--model", "no.model", "--data", "no.csv", "--out", ""],
        ["algebra", "--model", "no.model", "--data", "no.csv", "--out", ""],
        ["algebra", "--reference", "complex", "--out", ""],
    ],
    ids=["train", "predict", "algebra", "reference"],
)
def test_an_empty_out_is_refused_before_any_work(capsys, argv):
    # the input files do not exist: reading one would be named first
    assert main(argv) == 1
    assert capsys.readouterr() == ("", "contilearn: --out: an empty path names no file\n")


def test_usage_error_maps_to_config_exit_code():
    assert main(["train"]) == 1
    assert main(["frobnicate"]) == 1


def test_same_seed_gives_byte_identical_models(tmp_path, xor_csv, xor_config):
    out_a = tmp_path / "a.model"
    out_b = tmp_path / "b.model"
    for out in (out_a, out_b):
        assert (
            main(["train", "--data", str(xor_csv), "--config", str(xor_config), "--out", str(out)])
            == 0
        )
    assert out_a.read_bytes() == out_b.read_bytes()


def test_seed_flag_is_a_usage_error(tmp_path, xor_csv, xor_config, capsys):
    # the seed has one source, the config's seed key
    out = tmp_path / "m"
    argv = ["train", "--data", str(xor_csv), "--config", str(xor_config), "--out", str(out)]
    assert main(argv + ["--seed", "7"]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "contilearn: unrecognized arguments: --seed 7"
    ]
    assert not out.exists()


# ---------------------------------------------------------------- model file


def test_model_round_trip_is_byte_identical(trained):
    text = trained.read_text()
    model = load_model(trained)
    assert format_model(model) == text


def test_a_model_on_zero_inputs_round_trips_and_predicts(tmp_path):
    # a label-only CSV: no inputs, so the model's mean and scale vectors are empty
    assert _train_exit(tmp_path, "0\n1\n0\n1\n", "") == 0
    model, out = tmp_path / "m", tmp_path / "p"
    assert {"d = 0", "mean = ", "scale = "} <= set(model.read_text().splitlines())
    assert format_model(load_model(model)).encode() == model.read_bytes()
    argv = ["predict", "--model", str(model), "--data", str(tmp_path / "rows.csv")]
    assert main([*argv, "--out", str(out)]) == 0
    probs = [float(line) for line in out.read_text().splitlines()]
    assert len(probs) == 4
    assert all(0.0 < p < 1.0 for p in probs)


@pytest.mark.parametrize("has_header", [False, True])
def test_the_library_and_the_cli_write_the_same_model(
    tmp_path, xor_csv, xor_config, has_header
):
    data, config_path = xor_csv, xor_config
    if has_header:
        data = tmp_path / "xor.csv"
        data.write_text("x1,x2,label\n" + xor_csv.read_text())
        config_path = tmp_path / "xor.cfg"
        config_path.write_text(xor_config.read_text() + "has_header = true\n")
    config = load_run_config(config_path)
    model, stages = run(load_csv(data, has_header=has_header), config)
    out = tmp_path / "xor.model"
    assert main(["train", "--data", str(data), "--config", str(config_path), "--out", str(out)]) == 0
    text = format_model(model)
    assert out.read_bytes() == text.encode()
    loaded = load_model(out)
    assert format_model(loaded) == text
    assert loaded.config == config and config.has_header == has_header
    expected_reports = tmp_path / "expected.report"
    save_reports(expected_reports, [stage.report for stage in stages])
    assert Path(f"{out}.report").read_bytes() == expected_reports.read_bytes()


def test_a_model_trained_on_a_plain_engine_config_saves_and_loads(tmp_path, xor_data):
    model, _ = run(xor_data, EngineConfig(n_iters=0))
    path = tmp_path / "plain.model"
    save_model(path, model)
    loaded = load_model(path)
    assert loaded.config == EngineConfig(n_iters=0)
    assert format_model(loaded) == path.read_text()


def test_bumped_version_fails_cleanly(tmp_path, trained):
    text = trained.read_text().replace("contilearn-model-v1", "contilearn-model-v2")
    bumped = tmp_path / "bumped.model"
    bumped.write_text(text)
    with pytest.raises(ModelFormatError, match="format"):
        load_model(bumped)
    assert main(["predict", "--model", str(bumped), "--data", "x", "--out", "y"]) == 1


def test_truncated_model_fails_cleanly(tmp_path, trained):
    lines = trained.read_text().splitlines()
    broken = tmp_path / "broken.model"
    broken.write_text("\n".join(lines[:5]) + "\n")
    with pytest.raises(ModelFormatError):
        load_model(broken)


# the field each case corrupts, its first entry's new text, and the one line naming it
NON_FINITE_CASES = [
    ("w", "nan", "w: entries must be finite"),
    ("w", "-inf", "w: entries must be finite"),
    ("w", "1e300", "w: entries too large in magnitude to score with"),
    ("layer0.v0", "nan", "layer0: v0 must be finite"),
    ("layer0.v0", "1e200", "layer0: v0 must have a finite norm"),
    ("layer0.u0", "nan", "layer0: u must be finite"),
    ("layer0.u0", "1e200", "layer0: projection rows must be orthonormal"),
    ("layer0.scales", "1e-300", "layer0: features overflow on the standardized unit rows"),
    ("layer0.scales", "0.0", "layer0: scales must be positive and finite"),
    ("r_per_iteration", "nan", "r_per_iteration: entries must be positive finite reals"),
    ("r_per_iteration", "inf", "r_per_iteration: entries must be positive finite reals"),
    ("r_per_iteration", "-1.0", "r_per_iteration: entries must be positive finite reals"),
    ("r_per_iteration", "0.0", "r_per_iteration: entries must be positive finite reals"),
    ("d", "-1", "d: expected a non-negative integer, got '-1'"),
    ("n_layers", "-1", "n_layers: expected a non-negative integer, got '-1'"),
    ("layer0.m_in", "-1", "layer0.m_in: expected a non-negative integer, got '-1'"),
    ("layer0.k", "-1", "layer0.k: expected a non-negative integer, got '-1'"),
    ("mean", "nan", "standardization parameters must be finite"),
    ("scale", "inf", "standardization parameters must be finite"),
    ("status", "bogus", "unknown model status 'bogus'"),
]


def _model_error_lines(tmp_path, xor_csv, capsys, command, text):
    """Stderr lines of ``command`` on the model ``text``, which must exit 1 and write nothing."""
    broken = tmp_path / "broken.model"
    broken.write_text(text)
    out = tmp_path / "out.txt"
    argv = [command, "--model", str(broken), "--data", str(xor_csv), "--out", str(out)]
    assert main(argv) == 1
    assert not out.exists()
    return capsys.readouterr().err.splitlines()


@pytest.mark.parametrize("command", ["predict", "algebra"])
@pytest.mark.parametrize(
    "key, value, message", NON_FINITE_CASES, ids=[f"{k}-{v}" for k, v, _ in NON_FINITE_CASES]
)
def test_non_finite_model_value_is_a_model_error(
    tmp_path, trained, xor_csv, capsys, command, key, value, message
):
    # the first entry of the field's vector is replaced; the rest stay as trained
    first_entry = rf"^{re.escape(key)} = [^,\n]*"
    text, n = re.subn(first_entry, f"{key} = {value}", trained.read_text(), flags=re.M)
    assert n == 1
    assert _model_error_lines(tmp_path, xor_csv, capsys, command, text) == [
        f"contilearn: {message}"
    ]


# the vector field each case makes one entry short (-1) or long (+1), and the line naming it
WIDTH_CASES = [
    ("w", -1, "parameter vector has 13 entries, the feature map emits 14"),
    ("layer0.v0", +1, "layer0.v0 width does not match layer0.m_in"),
    ("mean", +1, "mean and scale must be 1-d arrays of the same length"),
    ("layer0.u0", +1, "layer0.u0 width does not match layer0.m_in"),
    ("layer0.u1", -1, "layer0.u1 width does not match layer0.m_in"),
    ("layer0.scales", -1, "layer0: scale vector length does not match the expanded width"),
]


@pytest.mark.parametrize("command", ["predict", "algebra"])
@pytest.mark.parametrize(
    "key, change, message", WIDTH_CASES, ids=[f"{k}{c:+d}" for k, c, _ in WIDTH_CASES]
)
def test_model_vector_of_the_wrong_width_is_a_model_error(
    tmp_path, trained, xor_csv, capsys, command, key, change, message
):
    line = rf"^{re.escape(key)} = (.*)$"
    entries = re.search(line, trained.read_text(), flags=re.M).group(1).split(",")
    entries = entries[:-1] if change < 0 else entries + ["0.5"]
    text, n = re.subn(line, f"{key} = {','.join(entries)}", trained.read_text(), flags=re.M)
    assert n == 1
    assert _model_error_lines(tmp_path, xor_csv, capsys, command, text) == [
        f"contilearn: {message}"
    ]


@pytest.mark.parametrize("command", ["predict", "algebra"])
def test_a_huge_projection_count_stops_at_the_first_missing_row(
    tmp_path, trained, xor_csv, capsys, command
):
    # the rows are taken one at a time, so a count no file could hold costs nothing
    k = int(re.search(r"^layer0\.k = (\d+)$", trained.read_text(), flags=re.M).group(1))
    text, n = re.subn(r"^layer0\.k = .*$", f"layer0.k = {10**12}", trained.read_text(), flags=re.M)
    assert n == 1
    assert _model_error_lines(tmp_path, xor_csv, capsys, command, text) == [
        f"contilearn: missing model field 'layer0.u{k}'"
    ]


@pytest.mark.parametrize("command", ["predict", "algebra"])
def test_tiny_v0_is_blamed_on_its_magnitude(tmp_path, trained, xor_csv, capsys, command):
    # each square underflows, so the norm reads 0 although v0 is nonzero
    text, n = re.subn(
        r"^layer0\.v0 = .*$", "layer0.v0 = 1e-200,-2e-200,3e-200", trained.read_text(), flags=re.M
    )
    assert n == 1
    assert _model_error_lines(tmp_path, xor_csv, capsys, command, text) == [
        "contilearn: layer0.degenerate_v0 contradicts layer0.v0's norm"
    ]


# layer0's flag and its v0 row (None keeps the trained one), each contradicting the other;
# false on a v0 whose norm underflows is the test above
FLAG_CASES = [("true", None), ("false", "0.0,0.0,0.0")]


@pytest.mark.parametrize("flag, v0", FLAG_CASES, ids=["true-nonzero", "false-zero"])
def test_a_degenerate_flag_that_contradicts_v0_is_a_model_error(
    tmp_path, trained, xor_csv, capsys, flag, v0
):
    text = trained.read_text()
    assert "layer0.degenerate_v0 = false\n" in text
    text = text.replace("layer0.degenerate_v0 = false\n", f"layer0.degenerate_v0 = {flag}\n")
    if v0 is not None:
        text = re.sub(r"^layer0\.v0 = .*$", f"layer0.v0 = {v0}", text, flags=re.M)
    assert _model_error_lines(tmp_path, xor_csv, capsys, "predict", text) == [
        "contilearn: layer0.degenerate_v0 contradicts layer0.v0's norm"
    ]


def test_a_degenerate_layer_round_trips_and_uses_the_constant_feature(tmp_path, trained, xor_csv):
    text = trained.read_text().replace(
        "layer0.degenerate_v0 = false\n", "layer0.degenerate_v0 = true\n"
    )
    text, n = re.subn(r"^layer0\.v0 = .*$", "layer0.v0 = 0.0,0.0,0.0", text, flags=re.M)
    assert n == 1
    path = tmp_path / "degenerate.model"
    path.write_text(text)
    model = load_model(path)
    assert format_model(model) == text
    (layer,) = model.feature_map.layers
    assert layer.degenerate_v0
    X = load_inputs(xor_csv, d=model.feature_map.d)
    assert np.array_equal(model.feature_map.super_features(X)[:, 0], np.ones(len(X)))


@pytest.mark.parametrize("command", ["predict", "algebra"])
def test_a_repeated_model_field_is_a_model_error(tmp_path, trained, xor_csv, capsys, command):
    text = trained.read_text()
    w_line = re.search(r"^w = .*\n", text, flags=re.M).group(0)
    assert _model_error_lines(tmp_path, xor_csv, capsys, command, text + w_line) == [
        "contilearn: duplicate model field 'w'"
    ]


# a standardization fault, with layer0.v0 also one entry long: the standardization is
# checked first, so its message is the one reported
FAULT_ORDER_CASES = [
    ("mean", "nan", "standardization parameters must be finite"),
    ("d", "3", "standardization width does not match d"),
]


@pytest.mark.parametrize(
    "key, value, message", FAULT_ORDER_CASES, ids=[f"{k}-{v}" for k, v, _ in FAULT_ORDER_CASES]
)
def test_a_standardization_fault_is_reported_before_a_layer_fault(
    tmp_path, trained, xor_csv, capsys, key, value, message
):
    text = re.sub(r"^(layer0\.v0 = .*)$", r"\1,0.5", trained.read_text(), flags=re.M)
    text, n = re.subn(rf"^{re.escape(key)} = [^,\n]*", f"{key} = {value}", text, flags=re.M)
    assert n == 1
    assert _model_error_lines(tmp_path, xor_csv, capsys, "predict", text) == [
        f"contilearn: {message}"
    ]


# ---------------------------------------------------------------- predict


def test_predict_round_trip_is_bit_exact(tmp_path, trained, xor_csv):
    out = tmp_path / "probs.txt"
    code = main(["predict", "--model", str(trained), "--data", str(xor_csv), "--out", str(out)])
    assert code == 0
    written = np.array([float(line) for line in out.read_text().splitlines()])

    model = load_model(trained)
    X = load_inputs(xor_csv, d=model.feature_map.d)
    expected = predict_prob(model.w, model.feature_map.transform(X))
    assert np.array_equal(written, expected)


def test_predict_separates_the_parity_cells(tmp_path, trained):
    data = tmp_path / "cells.csv"
    data.write_text("0,0\n0,1\n1,0\n1,1\n")
    out = tmp_path / "cells.out"
    assert main(["predict", "--model", str(trained), "--data", str(data), "--out", str(out)]) == 0
    p = [float(line) for line in out.read_text().splitlines()]
    assert p[0] < 0.5 and p[3] < 0.5
    assert p[1] > 0.5 and p[2] > 0.5


def test_predict_dimension_mismatch_exit_code(tmp_path, trained, capsys):
    data = tmp_path / "wide.csv"
    data.write_text("1,2,3,4\n")
    assert main(["predict", "--model", str(trained), "--data", str(data), "--out", "x"]) == 2


def _bad_input_exit(tmp_path, trained, command, rows, capsys):
    data = tmp_path / "bad.csv"
    data.write_text(rows)
    out = tmp_path / "out.txt"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main([command, "--model", str(trained), "--data", str(data), "--out", str(out)])
    return code, capsys.readouterr().err.splitlines(), out.exists()


@pytest.mark.parametrize(
    "rows, message",
    [
        ("0,1\n1e300,1e300\n", "row 2: input too large in magnitude for the model's features"),
        # numpy's reader warns on a file with no rows; the warning is an error here
        ("\n\n", "row 1: cannot parse '' as a number"),
    ],
    ids=["huge", "all-blank"],
)
def test_predict_on_a_bad_row_is_a_data_error(tmp_path, trained, capsys, rows, message):
    code, err, wrote = _bad_input_exit(tmp_path, trained, "predict", rows, capsys)
    assert code == 2
    assert err == [f"contilearn: {message}"]
    assert not wrote


def test_algebra_on_a_huge_input_is_a_data_error(tmp_path, trained, capsys):
    rows = "0,0\n1,0\n0,1\n1,1\n0.5,0.5\n0.2,0.9\n1e300,1e300\n"
    code, err, wrote = _bad_input_exit(tmp_path, trained, "algebra", rows, capsys)
    assert code == 2
    assert err == ["contilearn: row 7: input too large in magnitude for the model's features"]
    assert not wrote


def _command_argv(command, files, out):
    """``command``'s argv, reading the ``data``, ``config`` or ``model`` path of ``files``."""
    if command == "train":
        argv = ["--data", files["data"], "--config", files["config"], "--out", out]
    else:
        argv = ["--model", files["model"], "--data", files["data"], "--out", out]
    return [command, *map(str, argv)]


@pytest.mark.parametrize(
    "command, bad, code",
    [
        ("train", "data", 2),
        ("train", "config", 1),
        ("predict", "data", 2),
        ("predict", "model", 1),
        ("algebra", "data", 2),
        ("algebra", "model", 1),
    ],
)
def test_file_that_is_not_utf8_ends_in_its_exit_code(
    tmp_path, trained, xor_csv, xor_config, capsys, command, bad, code
):
    files = {"data": xor_csv, "config": xor_config, "model": trained}
    broken = tmp_path / f"broken.{bad}"
    good = files[bad].read_bytes()
    files[bad] = broken
    out = tmp_path / "out"
    # the offset counts from the file's first byte, a byte-order mark included
    for head in (b"", BOM):
        broken.write_bytes(head + good + b"\xff\n")
        assert main(_command_argv(command, files, out)) == code
        assert capsys.readouterr().err.splitlines() == [
            f"contilearn: {bad} file {broken} is not UTF-8 text"
            f" (byte offset {broken.stat().st_size - 2})"
        ]
        assert not out.exists()


def test_a_byte_order_mark_opens_every_input_file(tmp_path, trained, xor_csv, xor_config):
    data, config, model = tmp_path / "xor.csv", tmp_path / "xor.cfg", tmp_path / "bom.model"
    data.write_bytes(BOM + xor_csv.read_bytes())
    config.write_bytes(BOM + xor_config.read_bytes())
    out = tmp_path / "out"
    assert main(["train", "--data", str(data), "--config", str(config), "--out", str(out)]) == 0
    assert out.read_bytes() == trained.read_bytes()
    assert Path(f"{out}.report").read_bytes() == Path(f"{trained}.report").read_bytes()
    model.write_bytes(BOM + trained.read_bytes())
    assert format_model(load_model(model)).encode() == trained.read_bytes()


@pytest.mark.parametrize(
    "command, bad, code", [("train", "data", 2), ("train", "config", 1), ("predict", "model", 1)]
)
def test_a_directory_is_named_as_a_directory(
    tmp_path, trained, xor_csv, xor_config, capsys, command, bad, code
):
    files = {"data": xor_csv, "config": xor_config, "model": trained, bad: tmp_path}
    out = tmp_path / "out"
    assert main(_command_argv(command, files, out)) == code
    assert capsys.readouterr().err.splitlines() == [
        f"contilearn: {bad} file {tmp_path} is a directory"
    ]
    assert not out.exists()


def _snapshot(directory):
    """Every entry under ``directory``, hidden ones included: its bytes, or None for a directory."""
    return {p: None if p.is_dir() else p.read_bytes() for p in directory.rglob("*")}


def _previous_train(tmp_path):
    """``tmp_path / "out"`` and its report, as a previous train left them.

    Their texts differ from any train's, so a replaced file shows.
    """
    out = tmp_path / "out"
    out.write_text("the previous model\n")
    Path(f"{out}.report").write_text("the previous report\n")
    return out


@pytest.mark.parametrize("blocked", ["report", "model"])
def test_an_output_that_cannot_be_written_is_named_and_keeps_the_previous_files(
    tmp_path, xor_csv, xor_config, capsys, blocked
):
    out = _previous_train(tmp_path)
    bad = Path(f"{out}.report") if blocked == "report" else out
    bad.unlink()
    bad.mkdir()
    (bad / "kept").write_text("kept\n")
    before = _snapshot(tmp_path)
    files = {"data": xor_csv, "config": xor_config}
    assert main(_command_argv("train", files, out)) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"contilearn: cannot write {blocked} file {bad}: Is a directory"
    ]
    # the other file is the previous train's, and no temporary is left
    assert _snapshot(tmp_path) == before


@pytest.mark.parametrize(
    "fault, line",
    [
        (
            OSError(errno.ENOSPC, os.strerror(errno.ENOSPC)),
            "contilearn: cannot write report file {out}.report: " + os.strerror(errno.ENOSPC),
        ),
        (MemoryError(), "contilearn: out of memory: an allocation failed"),
        (KeyboardInterrupt(), None),
    ],
    ids=["os-error", "memory", "interrupt"],
)
def test_a_write_that_fails_partway_keeps_the_previous_files(
    tmp_path, xor_csv, xor_config, capsys, monkeypatch, fault, line
):
    # the model is written first, then the report, which stores half its text and fails
    out = _previous_train(tmp_path)
    before = _snapshot(tmp_path)
    real_open, opened = open, []

    class HalfWritten:
        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            self.fh.close()

        def write(self, text):
            self.fh.write(text[: len(text) // 2])
            raise fault

    def failing_open(path, *args, **kwargs):
        opened.append(path)
        fh = real_open(path, *args, **kwargs)
        return fh if len(opened) == 1 else HalfWritten(fh)

    monkeypatch.setattr("contilearn.modelio.open", failing_open, raising=False)
    argv = _command_argv("train", {"data": xor_csv, "config": xor_config}, out)
    if line is None:
        with pytest.raises(KeyboardInterrupt):
            main(argv)
    else:
        assert main(argv) == 1
        assert capsys.readouterr().err.splitlines() == [line.format(out=out)]
    assert len(opened) == 2 and all(Path(path).parent == tmp_path for path in opened)
    assert _snapshot(tmp_path) == before


@pytest.mark.parametrize(
    "out, reason",
    [("missing/probs", errno.ENOENT), ("rows.csv/probs", errno.ENOTDIR)],
    ids=["no-directory", "below-a-file"],
)
def test_an_output_in_no_directory_is_named(tmp_path, trained, xor_csv, capsys, out, reason):
    (tmp_path / "rows.csv").write_text("1,0\n")
    out = tmp_path / out
    argv = ["predict", "--model", str(trained), "--data", str(xor_csv), "--out", str(out)]
    assert main(argv) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"contilearn: cannot write predictions file {out}: {os.strerror(reason)}"
    ]
    assert sorted(tmp_path.iterdir()) == [tmp_path / "rows.csv"]


def test_an_output_name_of_the_longest_length_is_written(tmp_path, capsys):
    out = tmp_path / ("a" * os.pathconf(tmp_path, "PC_NAME_MAX"))
    assert main(["algebra", "--reference", "complex", "--out", str(out)]) == 0
    assert out.read_text() == capsys.readouterr().out
    assert list(tmp_path.iterdir()) == [out]


def test_a_pipe_given_as_out_is_written_in_place(tmp_path, trained, xor_csv):
    expected, fifo = tmp_path / "file.probs", tmp_path / "pipe.probs"
    argv = ["predict", "--model", str(trained), "--data", str(xor_csv), "--out"]
    assert main([*argv, str(expected)]) == 0
    os.mkfifo(fifo)
    # an open read end lets the write go ahead; 100 predictions fit in the pipe's buffer
    with os.fdopen(os.open(fifo, os.O_RDONLY | os.O_NONBLOCK), "rb") as fh:
        assert main([*argv, str(fifo)]) == 0
        os.set_blocking(fh.fileno(), True)
        assert fh.read() == expected.read_bytes()
    assert stat.S_ISFIFO(os.stat(fifo).st_mode)
    assert sorted(tmp_path.iterdir()) == [expected, fifo]


@contextmanager
def _fd_onto(fd, path, flags):
    """While the block runs, descriptor ``fd`` is ``path`` opened with ``flags``."""
    saved, opened = os.dup(fd), os.open(path, flags)
    try:
        os.dup2(opened, fd)
        yield
    finally:
        os.dup2(saved, fd)
        os.close(saved)
        os.close(opened)


@pytest.mark.parametrize("fd", [1, 2])
def test_a_standard_stream_given_as_out_is_written_to_not_replaced(tmp_path, trained, xor_csv, fd):
    expected, log = tmp_path / "file.probs", tmp_path / "log"
    argv = ["predict", "--model", str(trained), "--data", str(xor_csv), "--out"]
    assert main([*argv, str(expected)]) == 0
    log.write_text("earlier\n")
    inode = log.stat().st_ino
    with _fd_onto(fd, log, os.O_WRONLY | os.O_APPEND):
        assert main([*argv, {1: "/dev/stdout", 2: "/dev/stderr"}[fd]]) == 0
    assert log.stat().st_ino == inode
    assert log.read_bytes() == b"earlier\n" + expected.read_bytes()
    assert sorted(tmp_path.iterdir()) == [expected, log]


def test_a_standard_stream_that_cannot_be_written_is_named(tmp_path, trained, xor_csv, capsys):
    log = tmp_path / "log"
    log.write_text("earlier\n")
    argv = ["predict", "--model", str(trained), "--data", str(xor_csv), "--out", "/dev/stdout"]
    with _fd_onto(1, log, os.O_RDONLY):
        assert main(argv) == 1
    message = f"cannot write predictions file /dev/stdout: {os.strerror(errno.EBADF)}"
    assert capsys.readouterr().err == f"contilearn: {message}\n"
    assert log.read_text() == "earlier\n"
    assert list(tmp_path.iterdir()) == [log]


@pytest.mark.parametrize("mode", ["a", "w"])
def test_standard_output_redirected_to_a_file_keeps_the_printed_line(tmp_path, mode):
    # the shell's `--out /dev/stdout >> log` and `> log`: the file is the one the shell opened,
    # and it ends with what was there (for >>), the printed line and the written line
    log = tmp_path / "log"
    log.write_text("earlier\n")
    argv = ["algebra", "--reference", "complex", "--out", "/dev/stdout"]
    with open(log, mode) as fh:
        proc = subprocess.run(
            [sys.executable, "-m", "contilearn", *argv], stdout=fh, stderr=subprocess.PIPE
        )
    assert (proc.returncode, proc.stderr) == (0, b"")
    line = "algebra=complex n=2 associativity_residual=0.0 ok=true\n"
    assert log.read_text() == ("earlier\n" if mode == "a" else "") + line + line
    assert list(tmp_path.iterdir()) == [log]


FULL_STDOUT = f"contilearn: cannot write standard output: {os.strerror(errno.ENOSPC)}"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("out", [False, True], ids=["no-out", "out"])
def test_a_full_standard_output_is_named_in_one_line(tmp_path, out):
    # buffered, as when PYTHONUNBUFFERED is unset: the printed line fails at its flush, and
    # must not fail again at the interpreter's flush at exit, which would make the exit 120
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    target = tmp_path / "algebra"
    argv = ["algebra", "--reference", "quaternion", *(["--out", str(target)] if out else [])]
    with open("/dev/full", "w") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "contilearn", *argv],
            stdout=full,
            stderr=subprocess.PIPE,
            env=env,
            text=True,
        )
    assert (proc.returncode, proc.stderr.splitlines()) == (1, [FULL_STDOUT])
    assert list(tmp_path.iterdir()) == []


class _FullStream(io.StringIO):
    def write(self, text):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


def test_a_standard_output_that_refuses_the_line_leaves_out_as_it_was(
    tmp_path, capsys, monkeypatch
):
    out = tmp_path / "algebra"
    out.write_text("earlier\n")
    stdout = _FullStream()
    monkeypatch.setattr(sys, "stdout", stdout)
    assert main(["algebra", "--reference", "complex", "--out", str(out)]) == 1
    assert capsys.readouterr().err == FULL_STDOUT + "\n"
    assert stdout.closed
    assert out.read_text() == "earlier\n"
    assert list(tmp_path.iterdir()) == [out]


def test_a_link_given_as_out_stays_a_link_to_the_replaced_file(tmp_path, trained, xor_csv):
    store, link = tmp_path / "store", tmp_path / "probs"
    store.mkdir()
    (store / "probs").write_text("old\n")
    link.symlink_to(store / "probs")
    argv = ["predict", "--model", str(trained), "--data", str(xor_csv), "--out", str(link)]
    assert main(argv) == 0
    assert os.readlink(link) == str(store / "probs")
    assert len((store / "probs").read_text().splitlines()) == 100
    assert sorted(tmp_path.rglob("*")) == [link, store, store / "probs"]


def test_a_replaced_file_keeps_its_mode_and_a_new_one_takes_the_umask(tmp_path, trained, xor_csv):
    kept, new = tmp_path / "kept.probs", tmp_path / "new.probs"
    kept.write_text("old\n")
    kept.chmod(0o604)
    argv = ["predict", "--model", str(trained), "--data", str(xor_csv), "--out"]
    umask = os.umask(0o027)
    try:
        assert main([*argv, str(kept)]) == 0
        assert main([*argv, str(new)]) == 0
    finally:
        os.umask(umask)
    assert stat.S_IMODE(kept.stat().st_mode) == 0o604
    assert stat.S_IMODE(new.stat().st_mode) == 0o640
    assert kept.read_bytes() == new.read_bytes()


def test_the_writer_refuses_an_empty_path():
    # os.path.realpath("") is the working directory, not a file
    with pytest.raises(ConfigError, match="^an empty path names no model file$"):
        with replacing(("", "model")):
            pass


def _writer_calls(node):
    return [
        call
        for call in ast.walk(node)
        if isinstance(call, ast.Call)
        and isinstance(call.func, ast.Name)
        and (call.func.id.startswith("save_") or call.func.id == "write_text")
    ]


def test_the_cli_writes_every_output_inside_the_writer():
    tree = ast.parse((REPO / "src" / "contilearn" / "cli.py").read_text(encoding="utf-8"))
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert not names & {"open", "os", "Path"}
    inside = [
        call
        for with_node in ast.walk(tree)
        if isinstance(with_node, ast.With)
        and ast.unparse(with_node.items[0].context_expr.func) == "replacing"
        for call in _writer_calls(with_node)
    ]
    assert sorted(call.lineno for call in inside) == sorted(
        call.lineno for call in _writer_calls(tree)
    )
    assert {call.func.id for call in inside} == {
        "save_model",
        "save_reports",
        "save_predictions",
        "save_algebra_report",
        "write_text",
    }
    assert not any(_writer_calls(node) for node in ast.walk(tree) if isinstance(node, ast.Try))


@pytest.mark.parametrize("fault", ["permission", "io"])
@pytest.mark.parametrize(
    "command, bad, code", [("train", "data", 2), ("train", "config", 1), ("predict", "model", 1)]
)
def test_a_file_that_cannot_be_read_is_named_with_its_exit_code(
    tmp_path, trained, xor_csv, xor_config, capsys, monkeypatch, command, bad, code, fault
):
    files = {"data": xor_csv, "config": xor_config, "model": trained}
    if fault == "io":
        # reading this process's memory from address 0 fails with EIO
        if not Path("/proc/self/mem").exists():
            pytest.skip("no /proc/self/mem")
        files[bad], reason = Path("/proc/self/mem"), "Input/output error"
    else:
        # a process running as root still reads a mode-000 file, so open refuses it here
        files[bad], reason = tmp_path / f"locked.{bad}", os.strerror(errno.EACCES)
        refused, real_open = str(files[bad]), open

        def refusing_open(path, *args, **kwargs):
            if path == refused:
                raise PermissionError(errno.EACCES, reason, path)
            return real_open(path, *args, **kwargs)

        monkeypatch.setattr("contilearn.data.open", refusing_open, raising=False)
    out = tmp_path / "out"
    assert main(_command_argv(command, files, out)) == code
    assert capsys.readouterr().err.splitlines() == [
        f"contilearn: cannot read {bad} file {files[bad]}: {reason}"
    ]
    assert not out.exists()


@pytest.mark.parametrize("below_a_file", [True, False], ids=["below-a-file", "empty"])
def test_a_path_that_names_no_file_is_missing(tmp_path, xor_config, capsys, below_a_file):
    # an empty path is not the current directory
    path = ""
    if below_a_file:
        (tmp_path / "rows.csv").write_text("1,0\n2,1\n")
        path = str(tmp_path / "rows.csv" / "x")
    argv = ["train", "--data", path, "--config", str(xor_config), "--out", str(tmp_path / "m")]
    assert main(argv) == 2
    assert capsys.readouterr().err.splitlines() == [f"contilearn: no such data file: {path}"]


def test_a_form_feed_in_a_field_predicts_like_the_plain_number(tmp_path, trained):
    outputs = []
    for i, rows in enumerate(["1\x0c,2\n3,4\n", "1,2\n3,4\n"]):
        data, out = tmp_path / f"rows{i}.csv", tmp_path / f"probs{i}"
        data.write_text(rows, newline="")
        argv = ["predict", "--model", str(trained), "--data", str(data), "--out", str(out)]
        assert main(argv) == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


def test_predict_reads_rows_from_a_pipe(tmp_path, trained, xor_csv):
    expected, piped = tmp_path / "file.probs", tmp_path / "pipe.probs"
    argv = ["predict", "--model", str(trained), "--data", str(xor_csv), "--out", str(expected)]
    assert main(argv) == 0
    argv = ["predict", "--model", str(trained), "--data", "/dev/stdin", "--out", str(piped)]
    proc = subprocess.run(
        [sys.executable, "-m", "contilearn", *argv],
        input=xor_csv.read_bytes(),
        capture_output=True,
    )
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert piped.read_bytes() == expected.read_bytes()


def test_zero_layer_zero_vector_model_predicts_half(tmp_path):
    # two duplicated inputs with opposite labels force w = 0 at any r
    train = tmp_path / "sym.csv"
    train.write_text("0.5,1.0,0\n0.5,1.0,1\n0.5,-1.0,0\n0.5,-1.0,1\n")
    config = tmp_path / "sym.cfg"
    config.write_text("n_iters = 0\nn_replicates = 16\nseed = 3\n")
    model_path = tmp_path / "sym.model"
    assert (
        main(["train", "--data", str(train), "--config", str(config), "--out", str(model_path)])
        == 0
    )
    model = load_model(model_path)
    assert np.array_equal(model.w, np.zeros(3))
    out = tmp_path / "sym.out"
    assert main(["predict", "--model", str(model_path), "--data", str(train), "--out", str(out)]) == 0
    assert [float(v) for v in out.read_text().split()] == [0.5, 0.5, 0.5, 0.5]


def test_numerical_failure_exit_code_names_module(tmp_path, capsys):
    # two rows, two replicates, and a seed whose multisets cover every row:
    # no out-of-bag samples anywhere, which is a numerical failure in the engine
    data = tmp_path / "tiny.csv"
    data.write_text("0.0,0\n1.0,1\n")
    config = tmp_path / "tiny.cfg"
    config.write_text("n_iters = 0\nn_replicates = 2\nseed = 1\n")
    code = main(
        ["train", "--data", str(data), "--config", str(config), "--out", str(tmp_path / "m")]
    )
    assert code == 3
    assert "engine:" in capsys.readouterr().err


def _collinear_rows() -> str:
    """12 rows ``x0,x1,2*x0,label``: the third column standardizes onto the first."""
    rows = []
    for t in range(12):
        x0, x1 = (5 * t) % 12 - 5.5, (5 * t) % 7 - 3.0
        rows.append(f"{x0!r},{x1!r},{2 * x0!r},{int(x0 + x1 > 0)}\n")
    return "".join(rows)


def _mixed_scale_rows() -> str:
    """50 rows of one column at the scales 1e150, 1e-150 and 1, with alternating labels."""
    rows = []
    for t in range(50):
        z = (11 * t) % 50 - 24.5
        rows.append(f"{z * 1e150!r},{z * 1e-150!r},{z!r},{t % 2}\n")
    return "".join(rows)


SMALL_PRIOR = "n_iters = 2\nn_replicates = 8\nr_grid = {}\n"
NO_OOB = "every surviving replicate resampled the full training set; no out-of-bag rows"


@pytest.mark.parametrize(
    "rows, config, message",
    [
        (
            "0,0\n1,1\n",
            "n_iters = 0\nr_grid = 1e-300\n",
            f"engine: 29 of 64 replicate solves failed and {NO_OOB}",
        ),
        (
            "0,0\n1,1\n",
            SMALL_PRIOR.format("1e-20"),
            f"engine: 2 of 8 replicate solves failed and {NO_OOB}",
        ),
        (
            "0,0\n1,1\n",
            SMALL_PRIOR.format("5e-324"),
            f"engine: 2 of 8 replicate solves failed and {NO_OOB}",
        ),
        (
            _collinear_rows(),
            SMALL_PRIOR.format("1e-16"),
            "ensemble: only 0 of 8 replicate solves succeeded",
        ),
        (
            _mixed_scale_rows(),
            SMALL_PRIOR.format("1e-200"),
            "ensemble: only 1 of 8 replicate solves succeeded",
        ),
    ],
    ids=["two-rows-1e-300", "two-rows-1e-20", "two-rows-5e-324", "collinear", "mixed-scale"],
)
def test_a_singular_newton_system_is_a_numerical_failure(tmp_path, rows, config, message):
    # a prior this weak leaves Newton systems that LU finds exactly singular; the
    # message counts the failed replicate solves
    (tmp_path / "rows.csv").write_text(rows)
    (tmp_path / "run.cfg").write_text(config)
    data, cfg, out = (str(tmp_path / name) for name in ("rows.csv", "run.cfg", "m"))
    argv = ["train", "--data", data, "--config", cfg, "--out", out]
    proc = subprocess.run([sys.executable, "-m", "contilearn", *argv], capture_output=True, text=True)
    assert proc.returncode == 3, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.splitlines() == [f"contilearn: {message}"]
    assert not (tmp_path / "m").exists()


def test_a_count_matrix_above_the_bound_is_a_config_error(tmp_path, capsys, monkeypatch):
    sampled = []
    monkeypatch.setattr(engine, "sample_plans", lambda *args: sampled.append(args))
    rows = "".join(f"{t},{t % 2}\n" for t in range(64))
    code = _train_exit(tmp_path, rows, f"n_replicates = {10**8}\n")
    assert code == 1
    assert capsys.readouterr().err.splitlines() == [
        f"contilearn: n_replicates * rows = {10**8} * 64 exceeds the bound of"
        f" {engine.MAX_COUNT_ENTRIES} bootstrap count entries"
    ]
    assert sampled == []
    assert not (tmp_path / "m").exists()


def test_a_failed_eigendecomposition_is_a_numerical_failure(
    tmp_path, capsys, monkeypatch, xor_csv
):
    # LAPACK reports no convergence failure for any matrix found so far, NaN and inf
    # included, so the failure is injected where spectral calls it
    def eigh(A):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", eigh)
    config = "n_iters = 1\nn_replicates = 8\n"
    assert _train_exit(tmp_path, xor_csv.read_text(), config) == 3
    assert capsys.readouterr().err.splitlines() == [
        "contilearn: spectral: eigendecomposition failed: Eigenvalues did not converge"
    ]
    assert not (tmp_path / "m").exists()


def test_structure_constants_beyond_the_double_range_are_a_numerical_failure(tmp_path, capsys):
    # on a zero-layer model with an identity standardization the features are (1, x, y);
    # with y = x^2 * 1e-309 the closure constant of x * x on y is 1e309, which overflows,
    # while every product and the Gram matrix stay finite
    model = tmp_path / "m.model"
    rows = "0.5,1.0,0\n0.5,1.0,1\n0.5,-1.0,0\n0.5,-1.0,1\n"
    assert _train_exit(tmp_path, rows, "n_iters = 0\nn_replicates = 16\nseed = 3\n") == 0
    text = (tmp_path / "m").read_text()
    text = re.sub("(?m)^mean = .*$", "mean = 0.0,0.0", text)
    model.write_text(re.sub("(?m)^scale = .*$", "scale = 1.0,1.0", text))
    data = tmp_path / "big.csv"
    data.write_text("".join(f"{a * 1e76!r},{a * a * 1e-157!r}\n" for a in (1, 2, 3, -1)))
    out = tmp_path / "big.algebra"
    argv = ["algebra", "--model", str(model), "--data", str(data), "--out", str(out)]
    assert main(argv) == 3
    assert capsys.readouterr().err.splitlines() == [
        "contilearn: algebra: structure-constant fit overflowed"
    ]
    assert not out.exists()


@pytest.mark.parametrize(
    "message, line",
    [
        ("Unable to allocate 128. MiB", "contilearn: out of memory: Unable to allocate 128. MiB"),
        ("", "contilearn: out of memory: an allocation failed"),
    ],
)
def test_running_out_of_memory_is_one_line_and_exit_1(
    tmp_path, capsys, monkeypatch, message, line
):
    def sample_plans(*args):
        raise MemoryError(message)

    monkeypatch.setattr(engine, "sample_plans", sample_plans)
    rows = "".join(f"{t},{t % 2}\n" for t in range(64))
    assert _train_exit(tmp_path, rows, "n_iters = 0\n") == 1
    assert capsys.readouterr().err.splitlines() == [line]
    assert not (tmp_path / "m").exists()


# ---------------------------------------------------------------- algebra


def test_algebra_reference_quaternion(capsys):
    assert main(["algebra", "--reference", "quaternion"]) == 0
    out = capsys.readouterr().out
    assert "associativity_residual=0.0" in out
    assert "ok=true" in out


@pytest.mark.parametrize("flag", ["--model", "--data"])
def test_algebra_reference_takes_no_model_or_data(tmp_path, trained, xor_csv, capsys, flag):
    out = tmp_path / "out.txt"
    files = {"--model": trained, "--data": xor_csv}
    argv = ["algebra", "--reference", "quaternion", flag, str(files[flag]), "--out", str(out)]
    assert main(argv) == 1
    assert capsys.readouterr().err.splitlines() == [
        "contilearn: algebra --reference NAME takes no --model or --data"
    ]
    assert not out.exists()


def test_algebra_reference_writes_its_line_to_out(tmp_path, capsys):
    out = tmp_path / "out.txt"
    assert main(["algebra", "--reference", "complex", "--out", str(out)]) == 0
    assert out.read_text() == capsys.readouterr().out


def test_algebra_unknown_reference(capsys):
    assert main(["algebra", "--reference", "octonion"]) == 1
    assert "unknown algebra" in capsys.readouterr().err


def test_algebra_fit_on_trained_model(tmp_path, trained, xor_csv):
    out = tmp_path / "algebra.txt"
    code = main(
        ["algebra", "--model", str(trained), "--data", str(xor_csv), "--out", str(out)]
    )
    assert code == 0
    fields = dict(
        line.split(" = ", 1) for line in out.read_text().splitlines() if " = " in line
    )
    assert float(fields["closure_residual"]) >= 0.0
    assert np.isfinite(float(fields["associativity_residual"]))
    n = int(fields["n"])
    pair_keys = [key for key in fields if key[0] == "c" and key[1].isdigit()]
    assert len(pair_keys) == n * (n + 1) // 2


@pytest.mark.parametrize("ill", [True, False])
def test_algebra_report_bytes(tmp_path, ill):
    c = np.arange(8, dtype=float).reshape(2, 2, 2) - 3.5
    c[1, 1, 0] = 1e-17
    report = AlgebraFitReport(c, 0.25, 1e-17, 0.0, 3.0, ill)
    out = tmp_path / "algebra.txt"
    save_algebra_report(out, report)
    assert out.read_bytes() == (
        "n = 2\n"
        "closure_residual = 0.25\n"
        "normalized_residual = 1e-17\n"
        "associativity_residual = 0.0\n"
        "product_rms = 3.0\n"
        f"ill_conditioned = {'true' if ill else 'false'}\n"
        "c0.0 = -3.5,-2.5\n"
        "c0.1 = -1.5,-0.5\n"
        "c1.1 = 1e-17,3.5\n"
    ).encode()


def test_algebra_requires_a_mode():
    assert main(["algebra"]) == 1


# ---------------------------------------------------------------- blocked scoring

B = cli.BLOCK_ROWS


@pytest.fixture(scope="module")
def deep_model(tmp_path_factory, multi_iter_run):
    """The three-layer model of the deep acceptance run, as a model file."""
    model, _ = multi_iter_run
    path = tmp_path_factory.mktemp("deep") / "deep.model"
    save_model(path, model)
    return path


def _score_rows(tmp_path, model_path, n, seed):
    """Predict and fit the algebra on n random rows; returns the CSV path and both outputs."""
    rows = tmp_path / "rows.csv"
    np.savetxt(rows, np.random.default_rng(seed).normal(size=(n, 2)), fmt="%.17g", delimiter=",")
    outputs = []
    for command in ("predict", "algebra"):
        out = tmp_path / f"rows.{command}"
        argv = [command, "--model", str(model_path), "--data", str(rows), "--out", str(out)]
        assert main(argv) == 0
        outputs.append(out)
    return rows, *outputs


def test_a_file_within_one_block_is_scored_whole(tmp_path, deep_model):
    rows, probs, algebra = _score_rows(tmp_path, deep_model, B - 1, seed=41)
    model = load_model(deep_model)
    X = load_inputs(rows, d=model.feature_map.d)
    expected = tmp_path / "expected"
    save_predictions(expected, predict_prob(model.w, model.feature_map.transform(X)))
    assert probs.read_bytes() == expected.read_bytes()
    save_algebra_report(expected, fit_structure_constants(model.feature_map.super_features(X)))
    assert algebra.read_bytes() == expected.read_bytes()


@pytest.mark.parametrize("n", [B + 1, 2 * B + 1])
def test_blocks_score_within_rounding_of_the_whole_file(tmp_path, deep_model, n):
    rows, probs, _ = _score_rows(tmp_path, deep_model, n, seed=n)
    model = load_model(deep_model)
    fmap = model.feature_map
    X = load_inputs(rows, d=fmap.d)
    written = np.array([float(line) for line in probs.read_text().splitlines()])
    whole = predict_prob(model.w, fmap.transform(X))
    assert np.max(np.abs(written - whole)) <= 2 * np.finfo(float).eps
    Z = fmap.super_features(X)
    blocks = list(cli._model_features(model, rows, fmap.super_features))
    assert [len(F) for F in blocks] == [B] * (n // B) + [n % B]
    blocked = np.concatenate(blocks)
    assert np.all(np.abs(blocked - Z) <= 1e-13 * np.maximum(1.0, np.abs(Z)))


def test_the_algebra_fit_receives_the_scoring_blocks(tmp_path, trained, monkeypatch):
    received = []

    def fit(*blocks):
        received.append([len(F) for F in blocks])
        return fit_structure_constants(*blocks)

    monkeypatch.setattr(cli, "fit_structure_constants", fit)
    rows = tmp_path / "rows.csv"
    rows.write_text("".join(f"{t % 7 - 3},{t % 5 - 2}\n" for t in range(2 * B + 5)))
    out = tmp_path / "rows.algebra"
    assert main(["algebra", "--model", str(trained), "--data", str(rows), "--out", str(out)]) == 0
    assert received == [[B, B, 5]]


@pytest.mark.parametrize("command", ["predict", "algebra"])
def test_a_huge_row_past_the_first_block_is_named_by_its_file_row(
    tmp_path, trained, capsys, command
):
    rows = ["0.5,0.5\n"] * (B + 5)
    rows[B + 2] = "1e300,1e300\n"
    code, err, wrote = _bad_input_exit(tmp_path, trained, command, "".join(rows), capsys)
    assert code == 2
    assert err == [
        f"contilearn: row {B + 3}: input too large in magnitude for the model's features"
    ]
    assert not wrote


# ---------------------------------------------------------------- module entry


def test_package_root_loads_no_submodule_and_no_numpy():
    # the CLI is the interface; the root carries only __version__ and the BLAS thread pin,
    # which overrides the caller's thread variables
    code = (
        "import os, sys, contilearn\n"
        "loaded = sorted(m for m in sys.modules if m == 'numpy' or m.startswith('contilearn.'))\n"
        f"print(contilearn.__version__, loaded, *map(os.environ.get, {BLAS_THREAD_VARS}))"
    )
    env = dict(os.environ, **dict.fromkeys(BLAS_THREAD_VARS, "2"))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "0.1.0 [] 1 1 1\n"


SINGLE_CLASS_ROWS = "0,1\n1,1\n2,1\n"
SINGLE_CLASS_MESSAGE = "training data contains a single label class (1)"


def _module_train(tmp_path, xor_config, *python_flags):
    """Exit code, stderr and written files of ``python -m contilearn train`` on one class."""
    data = tmp_path / "one.csv"
    data.write_text(SINGLE_CLASS_ROWS)
    out = tmp_path / "m"
    argv = ["train", "--data", str(data), "--config", str(xor_config), "--out", str(out)]
    # the run's own -W flags alone decide how the warning is handled
    env = {key: value for key, value in os.environ.items() if key != "PYTHONWARNINGS"}
    proc = subprocess.run(
        [sys.executable, *python_flags, "-m", "contilearn", *argv],
        capture_output=True,
        text=True,
        env=env,
    )
    return proc.returncode, proc.stderr, sorted(p.name for p in tmp_path.glob("m*"))


def test_a_warning_prints_one_line_and_keeps_the_exit_code(tmp_path, xor_config):
    assert _module_train(tmp_path, xor_config) == (
        0,
        f"contilearn: warning: {SINGLE_CLASS_MESSAGE}\n",
        ["m", "m.report"],
    )


def test_an_escalated_warning_is_a_data_error(tmp_path, xor_config):
    assert _module_train(tmp_path, xor_config, "-W", "error::UserWarning") == (
        2,
        f"contilearn: {SINGLE_CLASS_MESSAGE}\n",
        [],
    )


def test_a_train_that_did_not_converge_warns_once(tmp_path, xor_csv, xor_config):
    # max_iters = 1 stops every solve after one Newton step; the warning changes no byte
    config = tmp_path / "short.cfg"
    config.write_text(xor_config.read_text().replace("max_iters = 100", "max_iters = 1"))
    env = {key: value for key, value in os.environ.items() if key != "PYTHONWARNINGS"}
    outputs = []
    for flags in ([], ["-W", "ignore"]):
        out = tmp_path / f"m{len(outputs)}"
        argv = ["train", "--data", str(xor_csv), "--config", str(config), "--out", str(out)]
        proc = subprocess.run(
            [sys.executable, *flags, "-m", "contilearn", *argv],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 0
        outputs.append((proc.stderr, out.read_bytes(), Path(f"{out}.report").read_bytes()))
    (warned, *model), (silent, *silent_model) = outputs
    capped = "256 of 256 replicate solves reached max_iters"
    capped += ", the full-data solve reached max_iters"
    message = f"not every solve converged: stage 0: {capped}; stage 1: {capped}"
    assert warned == f"contilearn: warning: {message}\n"
    assert silent == ""
    assert model == silent_model


def test_main_returns_2_when_the_caller_escalates_a_warning(tmp_path, xor_config, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error", UserWarning)
        code = _train_exit(tmp_path, SINGLE_CLASS_ROWS, xor_config.read_text())
    assert code == 2
    assert capsys.readouterr().err == f"contilearn: {SINGLE_CLASS_MESSAGE}\n"
    assert not (tmp_path / "m").exists()


def test_module_entrypoint_smoke():
    proc = subprocess.run(
        [sys.executable, "-m", "contilearn", "algebra", "--reference", "complex"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "ok=true" in proc.stdout
