import re
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from contilearn.data import (
    Dataset,
    _read_numeric_rows,
    fit_standardization,
    load_csv,
    load_inputs,
    read_text,
)
from contilearn.errors import DataError
from contilearn.model import _ALMOST_ONE, _TINY
from contilearn.modelio import save_predictions

XOR_ROWS = "0,0,0\n0,1,1\n1,0,1\n1,1,0\n"


def test_load_xor_table(tmp_path):
    path = tmp_path / "xor.csv"
    path.write_text(XOR_ROWS)
    ds = load_csv(path)
    assert ds.feature_map.d == 2
    assert len(ds.y) == 4
    assert np.array_equal(ds.y, [0.0, 1.0, 1.0, 0.0])


def test_xor_standardization_gives_unit_cells(tmp_path):
    # columns {0,0,1,1}: mean 0.5, population spread 0.5, so cells map to +-1
    path = tmp_path / "xor.csv"
    path.write_text(XOR_ROWS)
    ds = load_csv(path)
    f = ds.feature_map.super_features(np.array([[1.0, 1.0]]))
    assert np.array_equal(f, [[1.0, 1.0, 1.0]])
    assert f[0, 0] == 1.0


def test_malformed_row_names_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1.0,abc,0\n0.0,1.0,1\n")
    with pytest.raises(DataError, match="row 1"):
        load_csv(path)


def test_malformed_row_after_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,label\n1.0,2.0,0\n1.0,oops,1\n")
    with pytest.raises(DataError, match="row 3"):
        load_csv(path, has_header=True)


@pytest.mark.parametrize(
    "text, has_header, message",
    [
        # the header is line 1, so the short row is row 3
        ("x,y\n1,2\n3\n", True, "row 3: expected 2 fields, found 1"),
        # row 2's label is checked only once every row parses
        ("1,0\n2,5\n3\n", False, "row 3: expected 2 fields, found 1"),
    ],
    ids=["short-row-after-header", "parse-before-label"],
)
def test_a_training_file_names_its_first_faulty_row(tmp_path, text, has_header, message):
    path = tmp_path / "rows.csv"
    path.write_text(text)
    with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
        load_csv(path, has_header)


@pytest.mark.parametrize(
    "text, has_header, row",
    [("1.0,0\n2.0,2\n", False, 2), ("x,label\n1.0,0\n2.0,2\n", True, 3)],
    ids=["plain", "header"],
)
def test_non_binary_label(tmp_path, text, has_header, row):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(DataError, match=f"^row {row}: label must be 0 or 1, got 2.0$"):
        load_csv(path, has_header)


def test_empty_file(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.raises(DataError, match="empty"):
        load_csv(path)


def test_missing_file(tmp_path):
    with pytest.raises(DataError, match="nowhere.csv"):
        load_csv(tmp_path / "nowhere.csv")


def test_ragged_row_reported(tmp_path):
    path = tmp_path / "ragged.csv"
    path.write_text("1.0,2.0,0\n1.0,1\n")
    with pytest.raises(DataError, match="row 2"):
        load_csv(path)


def test_non_finite_value_rejected(tmp_path):
    path = tmp_path / "inf.csv"
    path.write_text("1.0,0\ninf,1\n")
    with pytest.raises(DataError, match="row 2"):
        load_csv(path)


def test_single_class_warns(tmp_path):
    path = tmp_path / "one.csv"
    path.write_text("0.0,1\n1.0,1\n")
    with pytest.warns(UserWarning, match="single label class"):
        load_csv(path)


def test_constant_column_standardizes_to_zero(tmp_path):
    # hand-applied rule: mean 5.0 subtracted, zero spread keeps scale 1
    path = tmp_path / "const.csv"
    path.write_text("5.0,1.0,0\n5.0,2.0,1\n5.0,3.0,0\n")
    ds = load_csv(path)
    assert np.array_equal(ds.F[:, 1], [0.0, 0.0, 0.0])
    assert ds.feature_map.scale[0] == 1.0


@settings(max_examples=50)
@given(st.integers(0, 2**32 - 1))
def test_standardized_data_has_zero_mean_unit_spread(seed):
    rng = np.random.default_rng(seed)
    X = rng.normal(loc=3.0, scale=5.0, size=(20, 3))
    std = fit_standardization(X)
    Z = std.super_features(X)[:, 1:]
    assert np.allclose(Z.mean(axis=0), 0.0, atol=1e-12)
    assert np.allclose(Z.std(axis=0), 1.0, atol=1e-12)


def test_refit_on_standardized_data_is_identity():
    rng = np.random.default_rng(0)
    X = np.hstack([rng.normal(size=(30, 2)), np.full((30, 1), 7.5)])
    Z = fit_standardization(X).super_features(X)[:, 1:]
    again = fit_standardization(Z).super_features(Z)[:, 1:]
    assert np.allclose(again, Z, atol=1e-12)


def test_recorded_transform_is_reproducible():
    rng = np.random.default_rng(1)
    X = rng.normal(size=(10, 4))
    std = fit_standardization(X)
    first = std.super_features(X)[:, 1:]
    second = std.super_features(X)[:, 1:]
    assert np.array_equal(first, second)


def test_load_then_predict_transform_bitwise_equal(tmp_path):
    # the engine trains on ds.F; a model without layers scores the same rows as exactly that
    rng = np.random.default_rng(2)
    X = rng.normal(size=(12, 3))
    y = rng.integers(0, 2, size=12).astype(float)
    path = tmp_path / "train.csv"
    lines = [
        ",".join(repr(float(v)) for v in row) + f",{float(y[i])!r}" for i, row in enumerate(X)
    ]
    path.write_text("\n".join(lines) + "\n")
    ds = load_csv(path)
    raw = load_inputs(path, d=3)
    assert np.array_equal(ds.F, ds.feature_map.transform(raw))


def test_load_inputs_drops_trailing_label(tmp_path):
    path = tmp_path / "p.csv"
    path.write_text("1.0,2.0,0\n3.0,4.0,1\n")
    X = load_inputs(path, d=2)
    assert X.shape == (2, 2)
    assert np.array_equal(X[1], [3.0, 4.0])


def test_load_inputs_width_mismatch(tmp_path):
    path = tmp_path / "p.csv"
    path.write_text("1.0,2.0,3.0,4.0\n")
    with pytest.raises(DataError, match="expects 2"):
        load_inputs(path, d=2)


def test_dataset_rejects_bad_labels():
    with pytest.raises(ValueError, match="labels must be exactly 0 or 1"):
        Dataset(np.array([0.0, 0.5]), np.zeros((2, 1)))


@pytest.mark.parametrize(
    "X, message",
    [
        (np.zeros((3, 1)), "labels and inputs must agree on the sample count"),
        (np.array([[0.0], [np.nan]]), "inputs must be finite"),
        (np.array([[np.inf], [0.0]]), "inputs must be finite"),
    ],
)
def test_dataset_rejects_mismatched_or_non_finite_inputs(X, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        Dataset(np.array([0.0, 1.0]), X)


def test_dataset_fits_its_standardization_on_the_raw_rows():
    rng = np.random.default_rng(4)
    X = rng.normal(loc=3.0, scale=5.0, size=(15, 3))
    y = (X[:, 0] > 3.0).astype(float)
    ds = Dataset(y, X)
    expected = fit_standardization(X)
    assert np.array_equal(ds.feature_map.mean, expected.mean)
    assert np.array_equal(ds.feature_map.scale, expected.scale)
    assert np.array_equal(ds.F, expected.super_features(X))


def test_dataset_of_one_row_is_a_data_error():
    with pytest.raises(DataError, match="^training data needs at least 2 samples$"):
        Dataset(np.array([1.0]), np.zeros((1, 2)))


def test_one_class_dataset_warns_at_its_constructor():
    with pytest.warns(UserWarning, match=r"single label class \(0\)") as caught:
        Dataset(np.zeros(3), np.arange(6.0).reshape(3, 2))
    assert [w.filename for w in caught] == [__file__]


# ---------------------------------------------------------------- parse equivalence


def scan_rows(path, has_header):
    """Reference parser: the token-by-token scan ``_read_numeric_rows`` must agree with.

    A line ends at a line feed only; a final line feed ends the last line, not a blank one.
    The first faulty line is named; within it, a bad token comes before its field count.
    """
    first = 1 + int(has_header)
    text = read_text(path, "data", DataError)
    lines = text.removesuffix("\n").split("\n")[first - 1 :] if text else []
    if not lines:
        raise DataError(f"empty data file: {path}")
    rows = []
    for lineno, line in enumerate(lines, start=first):
        values = []
        for tok in line.split(","):
            try:
                v = float(tok)
            except ValueError:
                raise DataError(
                    f"row {lineno}: cannot parse {tok.strip()!r} as a number"
                ) from None
            if not np.isfinite(v):
                raise DataError(f"row {lineno}: non-finite value {tok.strip()!r}")
            values.append(v)
        if rows and len(values) != len(rows[0]):
            raise DataError(f"row {lineno}: expected {len(rows[0])} fields, found {len(values)}")
        rows.append(values)
    return np.array(rows, dtype=float)


def parse_outcome(parse, path, has_header):
    """The parsed matrix's shape and bytes, or the DataError message."""
    try:
        M = parse(path, has_header)
    except DataError as exc:
        return str(exc)
    return M.dtype, M.shape, M.tobytes()


# finite numbers; special numbers float() accepts, padded with text it ignores; and
# text from the pieces of such fields, which it mostly rejects
FINITE = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-(10**6), 10**6).map(str),
)
SPECIAL = st.sampled_from(["1_000", "\u0661\u0662", "+.5e-3", "1E400", "nan", "-inf"])
# \x0b, \x0c, \x85 and \u2028 are also line breaks to str.splitlines(), never to the parser
PADDING = st.sampled_from(["", " ", "\xa0", "\t", "\x00", "\x0b", "\x0c", "\x85", "\u2028"])
FIELD_PIECES = list("0123456789.eE+-_ ,") + ["\xa0", "\x00", "\u0661", "nan", "inf"]
PADDED = st.tuples(PADDING, st.one_of(FINITE, SPECIAL), PADDING).map("".join)
JUNK = st.lists(st.sampled_from(FIELD_PIECES), max_size=5).map("".join)


@st.composite
def csv_files(draw):
    """CSV text with mostly equal-width rows, blank and ragged lines, LF or CRLF, maybe a header."""
    width = draw(st.integers(1, 4))
    lines = []
    for _ in range(draw(st.integers(0, 6))):
        n = draw(st.sampled_from([width] * 8 + [0, 1, 5]))
        fields = draw(st.sampled_from([FINITE] * 5 + [PADDED, JUNK]))
        lines.append(",".join(draw(st.lists(fields, min_size=n, max_size=n))))
    has_header = draw(st.booleans())
    if has_header:
        lines.insert(0, draw(st.sampled_from(["a,b", "", "1,2", "x"])))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    return newline.join(lines) + draw(st.sampled_from(["", newline])), has_header


@settings(
    max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(case=csv_files())
def test_parse_matches_the_token_scanner(tmp_path, case):
    text, has_header = case
    path = tmp_path / "rows.csv"
    path.write_text(text, encoding="utf-8", newline="")
    expected = parse_outcome(scan_rows, path, has_header)
    assert parse_outcome(_read_numeric_rows, path, has_header) == expected


@pytest.mark.parametrize(
    "text, outcome",
    [
        ("1_000,2\n", [[1000.0, 2.0]]),
        (" 1.5 ,\xa02\n", [[1.5, 2.0]]),
        ("1,2\r\n3,4\r\n", [[1.0, 2.0], [3.0, 4.0]]),
        ("nan,1\n", "row 1: non-finite value 'nan'"),
        ("1,2\n1e400,2\n", "row 2: non-finite value '1e400'"),
        ("1,2\n\n3,4\n", "row 2: cannot parse '' as a number"),
        ("1,2\n3\nx,2\n", "row 2: expected 2 fields, found 1"),
        ("1,2\nx,2\n3\n", "row 2: cannot parse 'x' as a number"),
        ("1,2\n3,x,4\n", "row 2: cannot parse 'x' as a number"),
        ("1,2\n3\n", "row 2: expected 2 fields, found 1"),
        # digits float() reads and numpy's reader rejects: a fullwidth and an Arabic-Indic one
        ("\uff11,2\n", [[1.0, 2.0]]),
        ("\u0661,2\n", [[1.0, 2.0]]),
        # numpy's reader skips blank lines, and warns when it finds nothing else
        ("\n", "row 1: cannot parse '' as a number"),
        ("\n\n", "row 1: cannot parse '' as a number"),
        # a form feed is whitespace inside a field, not a line end
        ("1\x0c,2\n", [[1.0, 2.0]]),
        ("1\x0c,2\nx,2\n", "row 2: cannot parse 'x' as a number"),
    ],
    ids=[
        "underscore",
        "spaces",
        "crlf",
        "nan",
        "overflow",
        "blank",
        "width-before-later-token",
        "token-before-later-width",
        "token-before-width",
        "width",
        "fullwidth-digit",
        "arabic-indic-digit",
        "one-blank-line",
        "two-blank-lines",
        "form-feed",
        "form-feed-then-bad-row",
    ],
)
def test_parse_hand_cases(tmp_path, text, outcome):
    path = tmp_path / "rows.csv"
    path.write_text(text, encoding="utf-8", newline="")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if isinstance(outcome, str):
            with pytest.raises(DataError, match=f"^{re.escape(outcome)}$"):
                _read_numeric_rows(path, False)
        else:
            M = _read_numeric_rows(path, False)
            assert M.dtype == np.float64 and np.array_equal(M, outcome)


def test_parse_without_the_numpy_conversion_gives_the_same_matrix(tmp_path, monkeypatch):
    # a numpy whose reader rejected what float() accepts costs speed, not a result
    def no_reader(*args, **kwargs):
        raise ValueError("reader unavailable")

    path = tmp_path / "rows.csv"
    path.write_text("1000, 2.5\n-3,4e-3\n")
    monkeypatch.setattr(np, "loadtxt", no_reader)
    M = _read_numeric_rows(path, False)
    monkeypatch.undo()
    assert M.dtype == np.float64 and np.array_equal(M, [[1000.0, 2.5], [-3.0, 0.004]])


def read_by_numpy(monkeypatch, path):
    """``_read_numeric_rows`` of ``path``, and the arrays np.loadtxt returned meanwhile."""
    loadtxt, returned = np.loadtxt, []

    def spy(*args, **kwargs):
        returned.append(loadtxt(*args, **kwargs))
        return returned[-1]

    with monkeypatch.context() as patch:
        patch.setattr(np, "loadtxt", spy)
        return _read_numeric_rows(path, False), returned


def test_an_ordinary_file_is_parsed_by_numpy(tmp_path, monkeypatch):
    # a silent fall back to the token scan gives the same matrix, only slower
    path = tmp_path / "rows.csv"
    path.write_text("".join(f"{i},{-i / 3!r},{i % 2}\n" for i in range(50)))
    M, returned = read_by_numpy(monkeypatch, path)
    assert len(returned) == 1 and M is returned[0]
    assert M.shape == (50, 3)


def number_texts(rng, size):
    """Lists of finite numbers' texts, one per format: ``repr``, ``%.17g``, ``%.6f``, ``%.25e``,
    ``%.3g``, 60-digit mantissas, subnormals, and values up to the largest double."""
    x = rng.normal(size=size) * 10.0 ** rng.integers(-30, 30, size=size)
    edges = [5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308, 1.7976931348623157e308]
    sub = rng.integers(1, 2**52, size=size).view(np.float64)  # subnormal bit patterns
    huge = np.nextafter(1.7976931348623157e308, 0.0) * rng.uniform(0.5, 1.0, size=size)
    digits = ["".join(map(str, rng.integers(0, 10, size=60))) for _ in range(size)]
    signs, exponents = rng.choice(["", "-", "+"], size=size), rng.integers(-320, 300, size=size)
    return [
        [repr(float(v)) for v in x],
        [f"{v:.17g}" for v in x],
        [f"{v:.6f}" for v in x],
        [f"{v:.25e}" for v in x],
        [f"{v:.3g}" for v in x],
        [f"{sign}{m[0]}.{m[1:]}e{e}" for sign, m, e in zip(signs, digits, exponents)],
        [repr(float(v)) for v in sub] + [f"{v:.17g}" for v in -sub],
        [repr(float(v)) for v in huge] + [repr(v) for v in edges] + [repr(-v) for v in edges],
    ]


def test_numpy_parses_each_number_format_to_the_bits_float_gives(tmp_path, monkeypatch):
    rng = np.random.default_rng(20)
    for texts in number_texts(rng, 3000):
        texts = texts[: len(texts) // 3 * 3]
        path = tmp_path / "rows.csv"
        path.write_text("".join(",".join(texts[i : i + 3]) + "\n" for i in range(0, len(texts), 3)))
        M, returned = read_by_numpy(monkeypatch, path)
        assert M is returned[0]
        expected = np.array([float(t) for t in texts]).reshape(-1, 3)
        assert np.array_equal(M.view(np.int64), expected.view(np.int64)), texts[:3]


@pytest.mark.parametrize("text, has_header", [("", False), ("x,y\n", True)])
def test_parse_empty_file(tmp_path, text, has_header):
    path = tmp_path / "rows.csv"
    path.write_text(text)
    with pytest.raises(DataError, match=f"^{re.escape(f'empty data file: {path}')}$"):
        _read_numeric_rows(path, has_header)


@pytest.mark.parametrize(
    "probs",
    [
        [],
        [_TINY],
        [_TINY, _ALMOST_ONE, 0.5, 1.0 - 2.0**-30, 2.0**-1000],
        list(np.random.default_rng(3).random(200)),
    ],
    ids=["empty", "tiny", "edges", "random"],
)
def test_save_predictions_writes_17_significant_digits(tmp_path, probs):
    path = tmp_path / "probs.txt"
    save_predictions(path, np.array(probs, dtype=float))
    assert path.read_bytes() == "".join(f"{p:.17g}\n" for p in probs).encode()
