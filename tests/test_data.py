import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contilearn.data import (
    Dataset,
    Standardization,
    fit_standardization,
    load_csv,
    load_inputs,
)
from contilearn.errors import DataError

XOR_ROWS = "0,0,0\n0,1,1\n1,0,1\n1,1,0\n"


def test_load_xor_table(tmp_path):
    path = tmp_path / "xor.csv"
    path.write_text(XOR_ROWS)
    ds = load_csv(path)
    assert ds.d == 2
    assert ds.t_max == 4
    assert np.array_equal(ds.y, [0.0, 1.0, 1.0, 0.0])


def test_xor_standardization_gives_unit_cells(tmp_path):
    # columns {0,0,1,1}: mean 0.5, population spread 0.5, so cells map to +-1
    path = tmp_path / "xor.csv"
    path.write_text(XOR_ROWS)
    ds = load_csv(path)
    f = ds.standardization.design_matrix(np.array([[1.0, 1.0]]))
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


def test_non_binary_label(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1.0,0\n2.0,2\n")
    with pytest.raises(DataError, match="label"):
        load_csv(path)


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
    assert np.array_equal(ds.inputs[:, 0], [0.0, 0.0, 0.0])
    assert ds.standardization.scale[0] == 1.0


def test_basic_features_prepends_bias():
    std = Standardization(np.array([1.0, 2.0]), np.array([2.0, 4.0]))
    f = std.design_matrix(np.array([[3.0, 10.0]]))
    assert f[0, 0] == 1.0
    assert np.array_equal(f[0, 1:], [(3.0 - 1.0) / 2.0, (10.0 - 2.0) / 4.0])


def test_basic_features_zero_dimensional():
    std = Standardization(np.zeros(0), np.ones(0))
    assert np.array_equal(std.design_matrix(np.zeros((1, 0))), [[1.0]])


def test_basic_features_dimension_mismatch():
    std = Standardization(np.zeros(2), np.ones(2))
    with pytest.raises(ValueError):
        std.design_matrix(np.array([[1.0, 2.0, 3.0]]))


def test_scales_must_be_positive():
    with pytest.raises(ValueError):
        Standardization(np.zeros(1), np.zeros(1))


@settings(max_examples=50)
@given(st.integers(0, 2**32 - 1))
def test_standardized_data_has_zero_mean_unit_spread(seed):
    rng = np.random.default_rng(seed)
    X = rng.normal(loc=3.0, scale=5.0, size=(20, 3))
    std = fit_standardization(X)
    Z = std.transform(X)
    assert np.allclose(Z.mean(axis=0), 0.0, atol=1e-12)
    assert np.allclose(Z.std(axis=0), 1.0, atol=1e-12)


def test_refit_on_standardized_data_is_identity():
    rng = np.random.default_rng(0)
    X = np.hstack([rng.normal(size=(30, 2)), np.full((30, 1), 7.5)])
    Z = fit_standardization(X).transform(X)
    again = fit_standardization(Z).transform(Z)
    assert np.allclose(again, Z, atol=1e-12)


def test_recorded_transform_is_reproducible():
    rng = np.random.default_rng(1)
    X = rng.normal(size=(10, 4))
    std = fit_standardization(X)
    first = std.transform(X)
    second = std.transform(X)
    assert np.array_equal(first, second)


def test_load_then_predict_transform_bitwise_equal(tmp_path):
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
    assert np.array_equal(ds.standardization.transform(raw), ds.inputs)


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
    std = Standardization(np.zeros(1), np.ones(1))
    with pytest.raises(ValueError):
        Dataset(np.array([0.0, 0.5]), np.zeros((2, 1)), std)
