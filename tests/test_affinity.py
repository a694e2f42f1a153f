import math
import tracemalloc

import numpy as np
import pytest
from scipy.spatial.distance import cdist

from ssbc import (DataError, ParameterError, TrainSet, affinity_matrix,
                  affinity_vector, estimate_sigma_all, estimate_sigma_nn)
from ssbc.affinity import _PAIR_BLOCK, _ROW_BLOCK, _row_blocks, _self_affinity
from ssbc.data import synth_uniform


def naive_dist(a, b):
    sq = 0.0
    for x, y in zip(a, b):
        sq += (x - y) ** 2
    return math.sqrt(sq)


def brute_affinity(q, points, sigma):
    out = []
    for p in points:
        sq = 0.0
        for a, b in zip(q, p):
            sq += (a - b) ** 2
        out.append(math.exp(-sq / sigma))
    return np.array(out)


def test_trainset_validation():
    with pytest.raises(ParameterError):
        TrainSet(np.ones((3, 2)), 0.0)
    with pytest.raises(ParameterError):
        TrainSet(np.ones((3, 2)), float("nan"))
    with pytest.raises(DataError):
        TrainSet(np.array([[1.0, np.inf]]), 1.0)
    with pytest.raises(ParameterError):
        TrainSet(np.ones(3), 1.0)


def test_self_affinity_is_one():
    pts = np.array([[0.5, 1.5], [2.0, -1.0]])
    train = TrainSet(pts, 0.7)
    w = affinity_vector(pts[0], train)
    assert w[0] == 1.0
    assert np.all(w > 0) and np.all(w <= 1)


def test_distance_sigma_gives_inverse_e():
    sigma = 0.3
    train = TrainSet(np.zeros((1, 3)), sigma)
    q = np.array([math.sqrt(sigma), 0.0, 0.0])
    w = affinity_vector(q, train)
    assert abs(w[0] - math.exp(-1)) < 1e-12


def test_affinity_matches_brute_force():
    rng = np.random.default_rng(7)
    pts = rng.standard_normal((10, 3))
    q = rng.standard_normal(3)
    train = TrainSet(pts, 0.9)
    w = affinity_vector(q, train)
    assert np.max(np.abs(w - brute_affinity(q, pts, 0.9))) <= 1e-12


def test_affinity_matrix_rows_match_vectors():
    rng = np.random.default_rng(8)
    pts = rng.standard_normal((6, 4))
    qs = rng.standard_normal((3, 4))
    train = TrainSet(pts, 1.1)
    mat = affinity_matrix(qs, train)
    for i in range(3):
        assert np.array_equal(mat[i], affinity_vector(qs[i], train))


def test_affinity_input_validation():
    train = TrainSet(np.ones((2, 3)), 1.0)
    with pytest.raises(ParameterError):
        affinity_vector(np.ones(4), train)
    with pytest.raises(DataError):
        affinity_vector(np.array([1.0, np.nan, 0.0]), train)


def test_symmetry():
    rng = np.random.default_rng(9)
    p = rng.standard_normal(5)
    q = rng.standard_normal(5)
    sigma = 0.8
    wp = affinity_vector(p, TrainSet(np.array([q, p]), sigma))
    wq = affinity_vector(q, TrainSet(np.array([p, q]), sigma))
    assert wp[0] == wq[0]


def test_monotone_in_distance():
    sigma = 2.0
    train = TrainSet(np.zeros((1, 2)), sigma)
    vals = [affinity_vector(np.array([x, 0.0]), train)[0]
            for x in (0.5, 1.0, 1.5, 2.0)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_scale_coupling_is_exact():
    rng = np.random.default_rng(10)
    pts = rng.standard_normal((8, 3))
    qs = rng.standard_normal((4, 3))
    sigma = 0.6
    base = affinity_matrix(qs, TrainSet(pts, sigma))
    for c in (2.0, 0.5):
        scaled = affinity_matrix(c * qs, TrainSet(c * pts, c * c * sigma))
        assert np.array_equal(base, scaled)


def test_sigma_nn_collinear():
    pts = np.array([[0.0], [1.0], [2.0]])
    assert estimate_sigma_nn(pts, 1) == 1.0


def test_sigma_nn_identical_points_is_zero():
    pts = np.zeros((4, 2))
    assert estimate_sigma_nn(pts, 1) == 0.0
    with pytest.raises(ParameterError):
        TrainSet(pts, estimate_sigma_nn(pts, 1))


def test_sigma_nn_needs_enough_points():
    with pytest.raises(ParameterError):
        estimate_sigma_nn(np.zeros((5, 2)), 5)


def test_sigma_nn_matches_brute_force():
    rng = np.random.default_rng(12)
    pts = rng.standard_normal((100, 4))
    t = 30
    vals = []
    for i in range(100):
        dists = sorted(naive_dist(pts[i], pts[j]) for j in range(100) if j != i)
        vals.append(dists[t - 1])
    assert estimate_sigma_nn(pts, t) == math.fsum(vals) / 100


def test_sigma_all_small_cases():
    assert estimate_sigma_all(np.array([[0.0], [3.0]])) == 3.0
    pts = np.array([[0.0], [1.0], [3.0]])
    assert estimate_sigma_all(pts) == 2.0
    with pytest.raises(ParameterError):
        estimate_sigma_all(np.array([[1.0]]))


def test_sigma_all_matches_brute_force():
    rng = np.random.default_rng(13)
    pts = rng.standard_normal((50, 3))
    vals = [naive_dist(pts[i], pts[j])
            for i in range(50) for j in range(i + 1, 50)]
    assert estimate_sigma_all(pts) == math.fsum(vals) / len(vals)


def test_affinity_rows_equal_the_dense_expression_bit_for_bit():
    # the rows are built in place on the cdist output; the bits must be
    # those of exp(-cdist / sigma) computed in fresh arrays
    rng = np.random.default_rng(14)
    pts = rng.standard_normal((70, 5))
    qs = rng.standard_normal((9, 5))
    train = TrainSet(pts, 0.7)
    dense = np.exp(-cdist(qs, pts, "sqeuclidean") / 0.7)
    assert np.array_equal(affinity_matrix(qs, train), dense)
    for q, row in zip(qs, dense):
        assert np.array_equal(affinity_vector(q, train), row)


def _dense_sigma_nn(pts, t):
    dist = cdist(pts, pts, "euclidean")
    np.fill_diagonal(dist, np.inf)
    dist.sort(axis=1)
    return math.fsum(dist[:, t - 1]) / len(pts)


def _dense_sigma_all(pts):
    n = len(pts)
    upper = cdist(pts, pts, "euclidean")[np.triu_indices(n, k=1)]
    return math.fsum(upper) / (n * (n - 1) // 2)


def test_blocked_sigma_estimators_equal_the_dense_formulas():
    # several row blocks, points far from the origin (rounding in every
    # difference) and duplicates on both sides of a block boundary (zero
    # distances and ties at the t-th place)
    rng = np.random.default_rng(15)
    pts = rng.random((600, 7)) + 1e3
    pts[250:270] = pts[0]
    pts[500:530] = pts[255]
    for t in (1, 30, 45):
        assert estimate_sigma_nn(pts, t) == _dense_sigma_nn(pts, t)
    assert estimate_sigma_all(pts) == _dense_sigma_all(pts)
    assert estimate_sigma_all(pts[:257]) == _dense_sigma_all(pts[:257])
    assert estimate_sigma_nn(pts[:257], 30) == _dense_sigma_nn(pts[:257], 30)


def test_sigma_estimators_hold_o_block_memory():
    # one m x m float64 distance array would take m^2 * 8 bytes (72 MB);
    # a block holds at most _PAIR_BLOCK distances (2 MB), whatever m is
    m = 3000
    pts = np.random.default_rng(16).random((m, 10))
    for estimate in (lambda p: estimate_sigma_nn(p, 30), estimate_sigma_all):
        tracemalloc.start()
        try:
            sigma = estimate(pts)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sigma > 0
        assert peak < 6e6, peak


@pytest.mark.parametrize("width", [1, 2048, 2049, 3000, _PAIR_BLOCK + 1])
@pytest.mark.parametrize("n", [0, 1, 128, 129, 5000])
def test_row_blocks_cover_the_rows_once_within_both_budgets(n, width):
    blocks = _row_blocks(n, width)
    assert [i for rows in blocks for i in range(n)[rows]] == list(range(n))
    sizes = [rows.stop - rows.start for rows in blocks]
    assert all(0 < size <= _ROW_BLOCK for size in sizes)
    if width <= _PAIR_BLOCK:
        assert all(size * width <= _PAIR_BLOCK for size in sizes)
    else:
        assert sizes == [1] * n


def test_self_affinity_is_exactly_symmetric_with_a_unit_diagonal():
    # exact_codes hands this matrix to eigh unchecked: cdist computes (i, j)
    # and (j, i) from the same squared differences, and exp(-0) is 1
    pts = synth_uniform(300, 50, 0).points
    w = _self_affinity(pts, estimate_sigma_nn(pts, 30), 5000)
    assert np.array_equal(w, w.T)
    assert np.all(np.diag(w) == 1.0)
