import dataclasses
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from contilearn.algebra import AlgebraFitReport, StructureConstants
from contilearn.cli import main
from contilearn.data import load_csv, load_inputs
from contilearn.engine import IterationReport
from contilearn.errors import ConfigError, ModelFormatError
from contilearn.model import predict_prob
from contilearn.modelio import (
    CONFIG_KEYS,
    RunConfig,
    format_model,
    format_report_line,
    load_model,
    load_run_config,
    parse_report_line,
    parse_run_config,
    save_algebra_report,
)

XOR_CONFIG = """\
# one expansion round on the parity fixture
n_iters = 1
n_replicates = 64
seed = 2024
rel_threshold = 0.05
k_max = 8
r_grid = 0.01,0.1,1.0,10.0
grad_tol = 1e-08
max_iters = 100
algebra_check = true
"""


@pytest.fixture()
def xor_config(tmp_path):
    path = tmp_path / "xor.cfg"
    path.write_text(XOR_CONFIG)
    return path


@pytest.fixture(scope="module")
def trained(tmp_path_factory, xor_csv):
    """One trained parity model shared by the read-only CLI tests."""
    tmp = tmp_path_factory.mktemp("trained")
    config = tmp / "xor.cfg"
    config.write_text(XOR_CONFIG)
    model_path = tmp / "model.txt"
    code = main(
        ["train", "--data", str(xor_csv), "--config", str(config), "--out", str(model_path)]
    )
    assert code == 0
    return model_path


# ---------------------------------------------------------------- run config


def test_parse_run_config_defaults():
    config = parse_run_config("")
    assert config == RunConfig()


def test_parse_run_config_values():
    config = parse_run_config("n_iters = 2\nr_grid = 0.5,2.0\nalgebra_stop_tol = 0.25\n")
    assert config.n_iters == 2
    assert config.r_grid == (0.5, 2.0)
    assert config.algebra_stop_tol == 0.25


def test_unknown_key_rejected():
    with pytest.raises(ConfigError, match="unknown config key"):
        parse_run_config("n_itres = 2\n")


def test_duplicate_key_rejected():
    with pytest.raises(ConfigError, match="duplicate"):
        parse_run_config("n_iters = 1\nn_iters = 2\n")


def test_out_of_range_value_rejected():
    with pytest.raises(ConfigError):
        parse_run_config("rel_threshold = 1.5\n")
    with pytest.raises(ConfigError):
        parse_run_config("r_grid = 0.1,-1.0\n")


def test_config_key_table_covers_every_field_in_echo_order(trained):
    assert list(CONFIG_KEYS) == [f.name for f in dataclasses.fields(RunConfig)]
    echoed = [
        line.split(" = ")[0][len("config.") :]
        for line in trained.read_text().splitlines()
        if line.startswith("config.")
    ]
    assert echoed == list(CONFIG_KEYS)


def _readme() -> str:
    return (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


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
    defaults = RunConfig()
    expected = {key: fmt(getattr(defaults, key)) for key, (_, fmt) in CONFIG_KEYS.items()}
    assert documented == expected


def test_config_range_is_checked_when_built(tmp_path, xor_csv, xor_config, capsys):
    with pytest.raises(ConfigError, match="n_replicates"):
        RunConfig(n_replicates=1)
    with pytest.raises(ConfigError, match="grad_tol"):
        parse_run_config("grad_tol = 0\n")
    argv = ["train", "--data", str(xor_csv), "--config", str(xor_config), "--seed", "-5"]
    code = main(argv + ["--out", str(tmp_path / "m")])
    assert code == 1
    assert capsys.readouterr().err.splitlines() == [
        "contilearn: seed must be an unsigned 64-bit integer"
    ]


def test_missing_config_file(tmp_path):
    with pytest.raises(ConfigError):
        load_run_config(tmp_path / "none.cfg")


# ---------------------------------------------------------------- train


def test_train_exit_zero_and_report_accuracy(trained):
    report_lines = (trained.parent / (trained.name + ".report")).read_text().splitlines()
    assert len(report_lines) == 2
    final = parse_report_line(report_lines[1])
    assert final["iteration"] == "1"
    assert float(final["accuracy"]) >= 0.95
    first = parse_report_line(report_lines[0])
    assert first["closure"] != "none"
    assert float(first["best_L"]) >= float(first["embed_L"]) - 1e-9


def test_report_fields_name_every_report_field_once(trained):
    names = [f.name for f in dataclasses.fields(IterationReport)]
    for line in Path(f"{trained}.report").read_text().splitlines():
        assert list(parse_report_line(line)) == names


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
        assert float(parse_report_line(line)["r"]) == chosen


def test_a_prior_whose_replicates_all_fail_is_skipped(tmp_path, circle_csv, capsys):
    # at stage 2 the embedded start makes r |w|^2 / 2 overflow for every r = 1e308 replicate
    config = tmp_path / "skip.cfg"
    config.write_text("n_iters = 2\nn_replicates = 8\nseed = 3\nr_grid = 1.0,1e308\n")
    out = tmp_path / "m"
    code = main(["train", "--data", str(circle_csv), "--config", str(config), "--out", str(out)])
    assert (code, capsys.readouterr().err) == (0, "")
    lines = Path(f"{out}.report").read_text().splitlines()
    assert [float(parse_report_line(line)["r"]) for line in lines] == [1.0, 1.0, 1.0]


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


def test_seed_flag_overrides_config(tmp_path, xor_csv, xor_config):
    out_a = tmp_path / "a.model"
    out_b = tmp_path / "b.model"
    main(["train", "--data", str(xor_csv), "--config", str(xor_config), "--out", str(out_a)])
    main(
        [
            "train",
            "--data",
            str(xor_csv),
            "--config",
            str(xor_config),
            "--out",
            str(out_b),
            "--seed",
            "777",
        ]
    )
    assert load_model(out_a).config.seed == 2024
    assert load_model(out_b).config.seed == 777


# ---------------------------------------------------------------- model file


def test_model_round_trip_is_byte_identical(trained):
    text = trained.read_text()
    model = load_model(trained)
    assert format_model(model) == text


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
    ("r_per_iteration", "nan", "r_per_iteration: entries must be positive finite reals"),
    ("r_per_iteration", "inf", "r_per_iteration: entries must be positive finite reals"),
    ("r_per_iteration", "-1.0", "r_per_iteration: entries must be positive finite reals"),
    ("r_per_iteration", "0.0", "r_per_iteration: entries must be positive finite reals"),
]


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
    broken = tmp_path / "broken.model"
    broken.write_text(text)
    out = tmp_path / "out.txt"
    argv = [command, "--model", str(broken), "--data", str(xor_csv), "--out", str(out)]
    assert main(argv) == 1
    assert capsys.readouterr().err.splitlines() == [f"contilearn: {message}"]
    assert not out.exists()


@pytest.mark.parametrize("command", ["predict", "algebra"])
def test_tiny_v0_is_blamed_on_its_magnitude(tmp_path, trained, xor_csv, capsys, command):
    # each square underflows, so the norm reads 0 although v0 is nonzero
    text, n = re.subn(
        r"^layer0\.v0 = .*$", "layer0.v0 = 1e-200,-2e-200,3e-200", trained.read_text(), flags=re.M
    )
    assert n == 1
    broken = tmp_path / "broken.model"
    broken.write_text(text)
    out = tmp_path / "out.txt"
    argv = [command, "--model", str(broken), "--data", str(xor_csv), "--out", str(out)]
    assert main(argv) == 1
    assert capsys.readouterr().err.splitlines() == [
        "contilearn: layer0: v0 too small in magnitude to normalize"
    ]
    assert not out.exists()


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


def _huge_input_exit(tmp_path, trained, command, rows, capsys):
    data = tmp_path / "huge.csv"
    data.write_text(rows)
    out = tmp_path / "out.txt"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main([command, "--model", str(trained), "--data", str(data), "--out", str(out)])
    return code, capsys.readouterr().err.splitlines(), out.exists()


def test_predict_on_a_huge_input_is_a_data_error(tmp_path, trained, capsys):
    code, err, wrote = _huge_input_exit(tmp_path, trained, "predict", "0,1\n1e300,1e300\n", capsys)
    assert code == 2
    assert err == ["contilearn: row 2: input too large in magnitude for the model's features"]
    assert not wrote


def test_algebra_on_a_huge_input_is_a_data_error(tmp_path, trained, capsys):
    rows = "0,0\n1,0\n0,1\n1,1\n0.5,0.5\n0.2,0.9\n1e300,1e300\n"
    code, err, wrote = _huge_input_exit(tmp_path, trained, "algebra", rows, capsys)
    assert code == 2
    assert err == ["contilearn: row 7: input too large in magnitude for the model's features"]
    assert not wrote


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
    broken.write_bytes(files[bad].read_bytes() + b"\xff\n")
    files[bad] = broken
    out = tmp_path / "out"
    if command == "train":
        argv = ["--data", files["data"], "--config", files["config"], "--out", out]
    else:
        argv = ["--model", files["model"], "--data", files["data"], "--out", out]
    assert main([command, *map(str, argv)]) == code
    assert capsys.readouterr().err.splitlines() == [
        f"contilearn: {bad} file {broken} is not UTF-8 text"
        f" (byte offset {broken.stat().st_size - 2})"
    ]
    assert not out.exists()


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


# ---------------------------------------------------------------- algebra


def test_algebra_reference_quaternion(capsys):
    assert main(["algebra", "--reference", "quaternion"]) == 0
    out = capsys.readouterr().out
    assert "associativity_residual=0.0" in out
    assert "ok=true" in out


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
    report = AlgebraFitReport(StructureConstants(c), 0.25, 1e-17, 0.0, 3.0, ill)
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


# ---------------------------------------------------------------- module entry


def test_module_entrypoint_smoke():
    proc = subprocess.run(
        [sys.executable, "-m", "contilearn", "algebra", "--reference", "complex"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "ok=true" in proc.stdout
