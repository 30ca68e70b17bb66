"""Exit-code fuzzing of the command line.

Whatever the model file, run config or CSV, even one that is not UTF-8
text, ``contilearn.cli.main`` must return one of the documented exit codes
0-3, print nothing to stderr on success and exactly one ``contilearn: ...``
line on failure, and raise no exception (which would print a traceback).
The only warnings allowed are
the library's own UserWarnings; a numpy RuntimeWarning means an overflow
went unchecked. Generated counts stay small (``n_replicates <= 8``,
``n_iters <= 2``, ``max_iters <= 20``) so every example runs in
milliseconds.
"""

import contextlib
import io
import re
import warnings

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from contilearn import cli
from contilearn.cli import main

FUZZ = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)

TOKENS = st.one_of(
    st.sampled_from(
        ["", "0", "1", "-1", "2", "3", "1e300", "-1e300", "1e-320", "nan", "inf", "-inf"]
        + ["none", "true", "false", "x", "1,2", "0.0,0.0", "1,,2", "100000"]
    ),
    st.text(alphabet="0123456789.,-e", max_size=8),
)

# malformed values that parse as no count, so no generated config asks for a huge one
JUNK = st.sampled_from(["", "x", "none", "true", "1,2", "nan", "inf", "1.5", "-1", "1e300"])

PREDICT_ROWS = "0,0\n1,0\n0,1\n1,1\n0.5,0.5\n0.2,0.9\n-0.3,0.7\n0.8,-0.1\n"
# prediction inputs: plain, then with one row of moderate and of huge magnitude
INPUTS = st.sampled_from(["", "1e15,1e15\n", "1e300,-1e300\n"]).map(PREDICT_ROWS.__add__)


@st.composite
def encoded(draw, texts):
    """UTF-8 bytes of a drawn text; one draw in four splices in a byte that is not UTF-8."""
    raw = draw(texts).encode()
    if draw(st.integers(0, 3)):
        return raw
    i = draw(st.integers(0, len(raw)))
    return raw[:i] + draw(st.sampled_from([b"\xff", b"\x80", b"\xc3"])) + raw[i:]


def run_cli(argv):
    """Check the exit-code contract for one in-process CLI run and return its code."""
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = main(argv)
    lines = err.getvalue().splitlines()
    assert code in (0, 1, 2, 3)
    if code == 0:
        assert lines == []
    else:
        assert len(lines) == 1 and lines[0].startswith("contilearn: "), lines
    assert [w.category for w in caught if not issubclass(w.category, UserWarning)] == []
    return code


@pytest.fixture(scope="module")
def workdir(tmp_path_factory, xor_csv):
    """A directory with a small trained parity model."""
    tmp = tmp_path_factory.mktemp("fuzz")
    config = tmp / "base.cfg"
    config.write_text("n_iters = 1\nn_replicates = 8\nseed = 3\nalgebra_check = true\n")
    model = tmp / "base.model"
    argv = ["train", "--data", str(xor_csv), "--config", str(config), "--out", str(model)]
    assert run_cli(argv) == 0
    return tmp


@st.composite
def mutated_models(draw, text):
    lines = text.splitlines()
    kind = draw(st.sampled_from(["truncate", "delete", "duplicate", "value", "key", "char"]))
    if kind == "truncate":
        return text[: draw(st.integers(0, len(text)))]
    i = draw(st.integers(0, len(lines) - 1))
    key, _, value = lines[i].partition(" = ")
    if kind == "delete":
        del lines[i]
    elif kind == "duplicate":
        lines.insert(i, lines[i])
    elif kind == "value":
        lines[i] = f"{key} = {draw(TOKENS)}"
    elif kind == "key":
        prefix = draw(st.sampled_from(["", "config.", "layer0.", "layer9.", "x"]))
        lines[i] = f"{prefix}{draw(TOKENS)} = {value}"
    else:
        j = draw(st.integers(0, max(len(lines[i]) - 1, 0)))
        char = draw(st.sampled_from(list("0123456789.,-e= #xn")))
        lines[i] = lines[i][:j] + char + lines[i][j + 1 :]
    return "\n".join(lines) + "\n"


def check_mutated_model(workdir, data):
    text = (workdir / "base.model").read_text()
    model = workdir / "mutated.model"
    model.write_bytes(data.draw(encoded(mutated_models(text))))
    rows = workdir / "rows.csv"
    rows.write_bytes(data.draw(encoded(INPUTS)))
    for command in ("predict", "algebra"):
        out = workdir / f"{command}.out"
        code = run_cli([command, "--model", str(model), "--data", str(rows), "--out", str(out)])
        if command == "predict" and code == 0:
            probs = [float(line) for line in out.read_text().splitlines()]
            assert all(0.0 < p < 1.0 for p in probs), probs


@FUZZ
@given(data=st.data())
def test_mutated_models_keep_the_exit_code_contract(workdir, data):
    check_mutated_model(workdir, data)


@pytest.fixture
def two_row_blocks(monkeypatch):
    """Two-row blocks, so every fuzz file spans several; yields the rows of each block read.

    Blocks are counted where prediction reduces them (``cli.predict_prob``)
    and where the algebra fit receives them (``cli.fit_structure_constants``).
    """
    seen = []
    predict_prob, fit_structure_constants = cli.predict_prob, cli.fit_structure_constants

    def counted_predict_prob(w, F):
        seen.append(len(F))
        return predict_prob(w, F)

    def counted_fit_structure_constants(*blocks):
        seen.extend(len(F) for F in blocks)
        return fit_structure_constants(*blocks)

    monkeypatch.setattr(cli, "BLOCK_ROWS", 2)
    monkeypatch.setattr(cli, "predict_prob", counted_predict_prob)
    monkeypatch.setattr(cli, "fit_structure_constants", counted_fit_structure_constants)
    yield seen
    assert all(rows <= 2 for rows in seen), seen


def test_two_row_blocks_split_scoring_and_the_algebra_fit(workdir, two_row_blocks):
    rows = workdir / "blocks.csv"
    rows.write_text(PREDICT_ROWS)
    for command in ("predict", "algebra"):
        out = workdir / f"blocks.{command}"
        argv = [command, "--model", str(workdir / "base.model"), "--data", str(rows)]
        assert run_cli(argv + ["--out", str(out)]) == 0
    # four blocks of the eight rows: once to predict, once handed to the algebra fit
    assert two_row_blocks == [2] * 8


@FUZZ
@given(data=st.data())
def test_mutated_models_keep_the_exit_code_contract_across_blocks(workdir, two_row_blocks, data):
    check_mutated_model(workdir, data)


# key patterns of the model file's whole arrays; a layer's u rows form one array
ARRAYS = ["w", "mean", "scale", r"layer0\.v0", r"layer0\.u\d+", r"layer0\.scales"]
STANDARDIZATION = ["mean", "scale"]


def scale_array(text, pattern, k):
    """Model text with every entry of the lines whose key matches ``pattern`` times 10**k."""
    lines = []
    for line in text.splitlines():
        key, _, value = line.partition(" = ")
        if re.fullmatch(pattern, key):
            value = ",".join(repr(float(v) * 10.0**k) for v in value.split(","))
            line = f"{key} = {value}"
        lines.append(line)
    return "\n".join(lines) + "\n"


def check_scaled_model(workdir, array, k, rows):
    """A map scaled out of range is a model error (exit 1) on the plain fixture rows.

    Scaling ``mean`` or ``scale`` instead yields a valid standardization of
    data far from the fixture, or of nearly constant data; the model alone
    cannot tell it from one trained on such data, so there the fixture rows
    may end in a data (2) or numerical (3) error.
    """
    model = workdir / "scaled.model"
    model.write_text(scale_array((workdir / "base.model").read_text(), array, k))
    (workdir / "scaled.csv").write_text(rows)
    for command in ("predict", "algebra"):
        out = workdir / f"scaled.{command}"
        argv = [command, "--model", str(model), "--data", str(workdir / "scaled.csv")]
        code = run_cli(argv + ["--out", str(out)])
        if rows == PREDICT_ROWS and array not in STANDARDIZATION:
            assert code in (0, 1)
        if command == "predict" and code == 0:
            probs = [float(line) for line in out.read_text().splitlines()]
            assert all(0.0 < p < 1.0 for p in probs), probs


@FUZZ
@given(array=st.sampled_from(ARRAYS), k=st.integers(-300, 300), rows=INPUTS)
def test_scaled_model_arrays_blame_the_model(workdir, array, k, rows):
    check_scaled_model(workdir, array, k, rows)


@FUZZ
@given(array=st.sampled_from(ARRAYS), k=st.integers(-300, 300), rows=INPUTS)
def test_scaled_model_arrays_blame_the_model_across_blocks(
    workdir, two_row_blocks, array, k, rows
):
    check_scaled_model(workdir, array, k, rows)


@pytest.mark.parametrize("array", STANDARDIZATION)
def test_rows_standardized_to_nearly_one_point_fit_their_algebra(workdir, array):
    # mean x 10^k or scale x 10^-k puts every fixture row far from the mean in
    # standard units; an absolute ridge was lost in the Gram matrix's rounding
    sign = 1 if array == "mean" else -1
    rows = workdir / "scaled.csv"
    rows.write_text(PREDICT_ROWS)
    failed = []
    for k in range(4, 74):
        model = workdir / "scaled.model"
        model.write_text(scale_array((workdir / "base.model").read_text(), array, sign * k))
        argv = ["algebra", "--model", str(model), "--data", str(rows)]
        if run_cli(argv + ["--out", str(workdir / "scaled.algebra")]) != 0:
            failed.append(k)
    assert failed == []


CONFIG_VALUES = {
    "n_iters": st.integers(-1, 2).map(str),
    "n_replicates": st.integers(-1, 8).map(str),
    "seed": st.sampled_from(["0", "1", "7", "-1", str(2**64 - 1), str(2**64)]),
    "rel_threshold": st.sampled_from(["0.05", "1", "1e-6", "0", "1.5", "nan"]),
    "k_max": st.integers(-1, 9).map(str),
    "r_grid": st.lists(
        st.sampled_from(
            ["0.01", "1.0", "10", "0", "-1", "nan", "1e300", "1e308", "1e-300", "5e-324"]
        ),
        max_size=3,
    ).map(",".join),
    "grad_tol": st.sampled_from(["1e-08", "1e-300", "1", "0", "-1", "nan"]),
    "max_iters": st.integers(-1, 20).map(str),
    "algebra_check": st.sampled_from(["true", "false", "yes"]),
    "algebra_stop_tol": st.sampled_from(["none", "0", "0.5", "1e6", "-1", "nan"]),
    "has_header": st.sampled_from(["true", "false"]),
}


@st.composite
def run_configs(draw):
    keys = draw(st.lists(st.sampled_from(sorted(CONFIG_VALUES)), unique=True, max_size=6))
    lines = [f"{key} = {draw(st.one_of(CONFIG_VALUES[key], JUNK))}" for key in keys]
    extra = st.sampled_from(["n_itres = 1", "garbage", "# comment", "=", "seed ="])
    lines += draw(st.lists(extra, max_size=1))
    return "\n".join(draw(st.permutations(lines))) + "\n"


@st.composite
def training_csvs(draw):
    kind = draw(st.sampled_from(["tiny", "constant", "huge", "one-class"]))
    n = draw(st.integers(1, 8))
    d = draw(st.integers(1, 3))
    if kind == "tiny":
        value = st.floats(-3, 3, allow_nan=False).map(repr)
    elif kind == "constant":
        value = st.just("1.5")
    else:
        value = st.sampled_from(["1e300", "-1e300", "1e200", "1e154", "1e-300", "0", "1"])
    label = st.just("1") if kind == "one-class" else st.sampled_from(["0", "1"])
    rows = [draw(st.lists(value, min_size=d, max_size=d)) + [draw(label)] for _ in range(n)]
    if draw(st.booleans()):
        # a duplicated column standardizes onto its original: a singular data Hessian
        j = draw(st.integers(0, d - 1))
        rows = [row[:-1] + [row[j], row[-1]] for row in rows]
    return "".join(",".join(row) + "\n" for row in rows)


@FUZZ
@given(config=encoded(run_configs()), rows=encoded(training_csvs()))
def test_mutated_configs_and_small_csvs_keep_the_exit_code_contract(workdir, config, rows):
    (workdir / "run.cfg").write_bytes(config)
    (workdir / "train.csv").write_bytes(rows)
    data, cfg, out = (str(workdir / name) for name in ("train.csv", "run.cfg", "trained.model"))
    run_cli(["train", "--data", data, "--config", cfg, "--out", out])
