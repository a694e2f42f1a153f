import numpy as np
import pytest

from ssbc import DataError, ParameterError
from ssbc.data import (Dataset, SplitSpec, load_csv, save_csv, split,
                       synth_uniform, zscore)


def test_dataset_validation():
    with pytest.raises(ParameterError):
        Dataset(np.zeros(3), "x", "csv")
    with pytest.raises(ParameterError):
        Dataset(np.zeros((3, 0)), "x", "csv")
    with pytest.raises(DataError):
        Dataset([[1.0, np.nan]], "x", "csv")
    with pytest.raises(DataError):
        Dataset([[np.inf, 0.0]], "x", "csv")
    with pytest.raises(ParameterError):
        Dataset([[1.0]], "x", "parquet")
    empty = Dataset(np.zeros((0, 4)), "none", "synthetic")
    assert (empty.n, empty.d) == (0, 4)


def test_synth_uniform_column_ranges():
    ds = synth_uniform(200, 6, 0)
    assert ds.provenance == "synthetic"
    assert (ds.n, ds.d) == (200, 6)
    for t in range(1, 7):
        col = ds.points[:, t - 1]
        hi = (1.0 / t) ** 2
        assert np.all(col >= 0.0)
        assert np.all(col < hi)
        # the column actually uses its range
        assert col.max() > 0.8 * hi
        assert abs(col.mean() - hi / 2) < 0.1 * hi


def test_synth_uniform_determinism_and_validation():
    a = synth_uniform(50, 5, 9)
    b = synth_uniform(50, 5, 9)
    assert np.array_equal(a.points, b.points)
    c = synth_uniform(50, 5, 10)
    assert not np.array_equal(a.points, c.points)
    with pytest.raises(ParameterError):
        synth_uniform(0, 5, 0)
    with pytest.raises(ParameterError):
        synth_uniform(5, 0, 0)


def test_csv_roundtrip_bit_exact(tmp_path):
    pts = synth_uniform(20, 4, 3).points
    path = tmp_path / "pts.csv"
    save_csv(pts, path)
    back = load_csv(path)
    assert np.array_equal(back.points, pts)
    assert back.name == "pts"
    assert back.provenance == "csv"


def test_load_csv_header_and_drop_columns(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("id,x,y\n7,1.5,2.5\n8,3.5,4.5\n")
    ds = load_csv(path, has_header=True, drop_columns=[0], name="pair")
    assert np.array_equal(ds.points, [[1.5, 2.5], [3.5, 4.5]])
    assert ds.name == "pair"


def test_load_csv_missing_cells(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("1.0,2.0\n3.0,\nnope,4.0\n5.0,6.0\n7.0\n")
    ds = load_csv(path, drop_rows_with_missing=True)
    assert np.array_equal(ds.points, [[1.0, 2.0], [5.0, 6.0]])
    with pytest.raises(DataError):
        load_csv(path)


def test_load_csv_rejects_non_finite(tmp_path):
    path = tmp_path / "inf.csv"
    path.write_text("1.0,inf\n")
    with pytest.raises(DataError):
        load_csv(path)


def test_load_csv_first_row_bad_sets_width_from_next(tmp_path):
    path = tmp_path / "w.csv"
    path.write_text("a,b\n1.0,2.0\n3.0,4.0\n")
    ds = load_csv(path, drop_rows_with_missing=True)
    assert np.array_equal(ds.points, [[1.0, 2.0], [3.0, 4.0]])


def test_load_csv_empty_and_missing(tmp_path):
    empty = tmp_path / "e.csv"
    empty.write_text("")
    with pytest.raises(DataError):
        load_csv(empty)
    with pytest.raises(DataError):
        load_csv(tmp_path / "absent.csv")


def test_load_csv_custom_delimiter(tmp_path):
    path = tmp_path / "semi.csv"
    path.write_text("1.0;2.0\n3.0;4.0\n")
    ds = load_csv(path, delimiter=";")
    assert np.array_equal(ds.points, [[1.0, 2.0], [3.0, 4.0]])


def test_load_csv_rejects_bad_delimiter_and_drop_columns(tmp_path):
    path = tmp_path / "a.csv"
    path.write_text("1.0,2.0\n3.0,4.0\n")
    for delimiter in ("", ";;", None):
        with pytest.raises(ParameterError, match="delimiter"):
            load_csv(path, delimiter=delimiter)
    for drop in ([-1], ["1"], [1.0]):
        with pytest.raises(ParameterError, match="drop column"):
            load_csv(path, drop_columns=drop)
    assert np.array_equal(load_csv(path, drop_columns=[5]).points,
                          [[1.0, 2.0], [3.0, 4.0]])


def test_save_csv_validation(tmp_path):
    with pytest.raises(ParameterError):
        save_csv(np.zeros(3), tmp_path / "x.csv")
    with pytest.raises(DataError):
        save_csv(np.zeros((2, 2)), tmp_path / "nodir" / "x.csv")


def test_split_spec_validation():
    with pytest.raises(ParameterError):
        SplitSpec(-1, 5, 0)
    with pytest.raises(ParameterError):
        SplitSpec(5, -1, 0)
    with pytest.raises(ParameterError):
        SplitSpec(5, 5, 0, strategy="sorted")


def test_split_matches_permutation_oracle():
    ds = synth_uniform(30, 4, 1)
    spec = SplitSpec(10, 15, 42)
    train, test = split(ds, spec)
    assert (train.n, test.n) == (10, 15)
    perm = np.random.default_rng(42).permutation(30)
    assert np.array_equal(train.points, ds.points[perm[:10]])
    assert np.array_equal(test.points, ds.points[perm[10:25]])
    assert train.name.endswith("-train") and test.name.endswith("-test")


def test_split_disjoint_and_empty_test():
    ds = synth_uniform(30, 4, 2)
    train, test = split(ds, SplitSpec(12, 18, 0))
    joined = np.vstack([train.points, test.points])
    assert len(np.unique(joined, axis=0)) == 30
    train, test = split(ds, SplitSpec(30, 0, 0))
    assert (train.n, test.n) == (30, 0)
    with pytest.raises(DataError):
        split(ds, SplitSpec(20, 11, 0))


def test_zscore():
    ds = synth_uniform(100, 3, 4)
    pts = ds.points.copy()
    pts[:, 2] = 7.0
    z = zscore(Dataset(pts, "c", "synthetic"))
    assert np.allclose(z.points[:, :2].mean(axis=0), 0.0, atol=1e-12)
    assert np.allclose(z.points[:, :2].std(axis=0), 1.0, atol=1e-12)
    assert np.all(z.points[:, 2] == 0.0)
    assert z.name == "c-zscore"
