import warnings

import numpy as np
import pytest
import scipy.linalg

from ssbc import (DataError, GuardError, NumericalError, ParameterError,
                  estimate_sigma_nn, exact_codes, haar_rotation, lsh_encode_batch,
                  lsh_train)
from ssbc.data import synth_uniform


def test_lsh_train_shape_and_determinism():
    model = lsh_train(10, 4, 7)
    assert model.projections.shape == (10, 4)
    again = lsh_train(10, 4, 7)
    assert np.array_equal(model.projections, again.projections)
    other = lsh_train(10, 4, 8)
    assert not np.array_equal(model.projections, other.projections)


def test_lsh_train_validation():
    with pytest.raises(ParameterError):
        lsh_train(0, 4, 0)
    with pytest.raises(ParameterError):
        lsh_train(10, 0, 0)


def test_lsh_encode_matches_brute_force():
    model = lsh_train(6, 5, 3)
    pts = np.random.default_rng(12).standard_normal((8, 6))
    codes = lsh_encode_batch(model, pts)
    assert codes.shape == (8, 5)
    assert codes.dtype == np.int8
    for p, code in zip(pts, codes):
        for j in range(5):
            dot = sum(p[i] * model.projections[i, j] for i in range(6))
            assert code[j] == (1 if dot >= 0 else -1)


def test_lsh_encode_validates_dimension():
    model = lsh_train(6, 5, 3)
    with pytest.raises(ParameterError):
        lsh_encode_batch(model, np.zeros((1, 7)))
    with pytest.raises(ParameterError):
        lsh_encode_batch(model, np.zeros((3, 7)))


def test_lsh_encode_refuses_non_finite_points():
    model = lsh_train(4, 3, 0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DataError, match="non-finite"):
            lsh_encode_batch(model, [[np.nan, 1, 2, 3], [np.inf, 0, 0, 0]])
        with pytest.raises(DataError, match="non-finite"):
            lsh_encode_batch(model, [[1, 1, 2, 3], [0, 0, -np.inf, 0]])
    assert lsh_encode_batch(model, np.zeros((0, 4))).shape == (0, 3)


def test_lsh_zero_point_is_all_plus():
    model = lsh_train(4, 3, 0)
    assert np.array_equal(lsh_encode_batch(model, np.zeros((1, 4))), [[1, 1, 1]])


def test_lsh_scale_invariance():
    model = lsh_train(6, 5, 9)
    pts = np.random.default_rng(13).standard_normal((10, 6))
    assert np.array_equal(lsh_encode_batch(model, pts),
                          lsh_encode_batch(model, 2.0 * pts))


def test_haar_rotation_orthogonal():
    for seed in range(5):
        q = haar_rotation(6, seed)
        assert np.allclose(q @ q.T, np.eye(6), atol=1e-12)
        assert np.allclose(q.T @ q, np.eye(6), atol=1e-12)
        assert abs(abs(np.linalg.det(q)) - 1.0) < 1e-12
    assert np.array_equal(haar_rotation(6, 1), haar_rotation(6, 1))
    with pytest.raises(ParameterError):
        haar_rotation(0, 0)


def test_exact_codes_basic():
    pts = synth_uniform(20, 5, 0).points
    out = exact_codes(pts, 4, 0.7)
    assert out.codes.shape == (20, 4)
    assert out.codes.dtype == np.int8
    assert out.eigenvalues.shape == (4,)
    assert np.all(np.diff(out.eigenvalues) <= 1e-12)  # sorted descending


def test_exact_codes_report_an_eigensolver_failure(monkeypatch):
    def unconverged(*args, **kwargs):
        raise np.linalg.LinAlgError("eigenvalues did not converge")

    monkeypatch.setattr(scipy.linalg, "eigh", unconverged)
    with pytest.raises(NumericalError, match="eigendecomposition failed"):
        exact_codes(synth_uniform(20, 5, 0).points, 4, 0.7)


def anchor_columns(u):
    # flip each column so its largest-magnitude entry is positive
    u = u.copy()
    for j in range(u.shape[1]):
        if u[np.argmax(np.abs(u[:, j])), j] < 0:
            u[:, j] = -u[:, j]
    return u


def test_exact_codes_match_dense_oracle():
    # at n = 300 np.linalg.eigh and a top-k solver disagree in the raw sign
    # of 9 of the 20 columns, so the codes must not depend on the solver
    pts300 = synth_uniform(300, 50, 0).points
    for pts, sigma, k in ((synth_uniform(15, 4, 3).points, 0.4, 3),
                          (pts300, estimate_sigma_nn(pts300, 30), 20)):
        n = pts.shape[0]
        w = np.empty((n, n))
        for i in range(n):
            for j in range(n):
                w[i, j] = np.exp(-np.dot(pts[i] - pts[j], pts[i] - pts[j]) / sigma)
        vals, vecs = np.linalg.eigh(w)
        u_k = anchor_columns(vecs[:, ::-1][:, :k])
        out = exact_codes(pts, k, sigma)
        assert np.array_equal(out.codes, np.where(u_k >= 0, 1, -1).astype(np.int8))
        assert np.allclose(out.eigenvalues, vals[::-1][:k], atol=1e-12)


def test_exact_codes_top_eigenvector_sign_structure():
    # W is entrywise positive, so by Perron-Frobenius the top eigenvector
    # has one sign; its code column is constant
    pts = synth_uniform(25, 5, 4).points
    out = exact_codes(pts, 3, 1.0)
    first = out.codes[:, 0]
    assert np.all(first == first[0])


def test_exact_randomized_is_seed_deterministic():
    pts = synth_uniform(18, 5, 6).points
    a = exact_codes(pts, 4, 0.9, mode="randomized", seed=5)
    b = exact_codes(pts, 4, 0.9, mode="randomized", seed=5)
    assert np.array_equal(a.codes, b.codes)


def test_exact_randomized_matches_manual_rotation():
    pts = synth_uniform(18, 5, 7).points
    sigma = 0.8
    out = exact_codes(pts, 4, sigma, mode="randomized", seed=2)
    w = np.exp(-np.square(
        np.linalg.norm(pts[:, None] - pts[None], axis=2)) / sigma)
    vals, vecs = np.linalg.eigh(w)
    u_k = anchor_columns(vecs[:, ::-1][:, :4])
    rot = haar_rotation(4, 2)
    assert np.array_equal(out.codes,
                          np.where(u_k @ rot >= 0, 1, -1).astype(np.int8))


def test_exact_codes_validation():
    pts = synth_uniform(10, 4, 0).points
    with pytest.raises(ParameterError):
        exact_codes(pts, 0, 1.0)
    with pytest.raises(ParameterError):
        exact_codes(pts, 11, 1.0)  # k > n
    with pytest.raises(ParameterError):
        exact_codes(pts, 2, -1.0)
    with pytest.raises(ParameterError):
        exact_codes(pts, 2, 1.0, mode="other")
    with pytest.raises(GuardError):
        exact_codes(pts, 2, 1.0, guard=9)
