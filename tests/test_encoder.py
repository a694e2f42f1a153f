import argparse
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.spatial.distance import cdist

from ssbc import (DataError, FdSketch, ParameterError, SsbcModel, SsbcParams,
                  TrainSet, affinity_matrix, cli, estimate_sigma_nn, exact_codes,
                  hamming_matrix, sign_project, signs, ssbc_encode_batch,
                  ssbc_process_online, ssbc_train)
from ssbc.data import synth_uniform
from ssbc.sketch import _anchored
from test_sketch import FullSvdSketch


def small_train(n=30, d=6, seed=0, t=3):
    ds = synth_uniform(n, d, seed)
    sigma = estimate_sigma_nn(ds.points, t)
    return ds, TrainSet(ds.points, sigma)


def test_params_ell():
    assert SsbcParams(30, 0.5).ell == 90
    assert SsbcParams(7, 0.3).ell == 31
    assert SsbcParams(1, 1.0).ell == 2
    with pytest.raises(ParameterError):
        SsbcParams(0, 0.5)
    with pytest.raises(ParameterError):
        SsbcParams(5, 0.0)
    with pytest.raises(ParameterError):
        SsbcParams(5, 1.5)


def test_train_single_point():
    train = TrainSet(np.array([[1.0, 2.0]]), 0.5)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        model = ssbc_train(train, SsbcParams(1, 1.0))
    assert model.sketch.rows_seen == 1
    assert model.sketch.buffer[0, 0] == 1.0


def test_train_warns_when_sketch_wider_than_data():
    train = TrainSet(np.zeros((2, 2)) + [[0.0, 0.0], [1.0, 1.0]], 1.0)
    with pytest.warns(UserWarning):
        ssbc_train(train, SsbcParams(2, 0.5))


def test_train_identical_points_rank_one_gram():
    pts = np.tile([0.3, 0.7], (3, 1))
    train = TrainSet(pts, 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        model = ssbc_train(train, SsbcParams(2, 0.5))
    gram = model.sketch.buffer.T @ model.sketch.buffer
    assert np.allclose(gram, 3.0 * np.ones((3, 3)), atol=1e-10)


def test_train_no_shrink_keeps_exact_gram():
    ds, train = small_train(n=50, d=6, seed=1, t=5)
    params = SsbcParams(17, 0.5)  # ell = 51 > m = 50, never shrinks
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        model = ssbc_train(train, params)
    assert model.sketch.shrink_count == 0
    rows = affinity_matrix(ds.points, train)
    gram = model.sketch.buffer.T @ model.sketch.buffer
    assert np.allclose(gram, rows.T @ rows, atol=1e-12)


def test_model_validates_consistency():
    ds, train = small_train()
    params = SsbcParams(3, 0.5)
    with pytest.raises(ParameterError):
        SsbcModel(train, FdSketch(params.ell, train.m + 1), params)
    with pytest.raises(ParameterError):
        SsbcModel(train, FdSketch(params.ell + 1, train.m), params)


def test_untrained_model_refuses_to_encode():
    ds, train = small_train()
    params = SsbcParams(3, 0.5)
    model = SsbcModel(train, FdSketch(params.ell, train.m), params)
    with pytest.raises(ParameterError):
        ssbc_process_online(model, ds.points[0])
    with pytest.raises(ParameterError):
        ssbc_encode_batch(model, ds.points[:2])


def test_online_training_point_matches_exact_code():
    # with ell > m the sketch basis is the exact top-k right singular basis;
    # align its column signs with the eigenvectors and the online code of a
    # training point must equal the dense eigendecomposition code
    for seed in range(3):
        ds = synth_uniform(20, 6, seed)
        sigma = estimate_sigma_nn(ds.points, 3)
        train = TrainSet(ds.points, sigma)
        k = 3
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            model = ssbc_train(train, SsbcParams(k, 0.15))  # ell = 23 > m + 1
        code = ssbc_process_online(model, ds.points[0])
        ex = exact_codes(ds.points, k, sigma)
        w0 = affinity_matrix(ds.points[:1], train)[0]
        basis = model.sketch.basis(k)
        # recover the per-column gauge between sketch basis and eigenvectors
        vals, vecs = np.linalg.eigh(
            np.exp(-np.square(
                np.linalg.norm(ds.points[:, None] - ds.points[None], axis=2))
                / sigma))
        u_k = vecs[:, ::-1][:, :k]
        flips = np.sign(np.sum(u_k * basis, axis=0)).astype(np.int8)
        assert np.all(np.abs(np.sum(u_k * basis, axis=0)) > 0.9)
        assert np.array_equal(code * flips,
                              np.where(w0 @ u_k >= 0, 1, -1).astype(np.int8))


def test_duplicate_points_get_identical_codes():
    for seed in range(3):
        ds, train = small_train(seed=seed)
        model = ssbc_train(train, SsbcParams(4, 0.5))
        rng = np.random.default_rng(seed + 100)
        p = rng.random(6) * 0.5
        assert np.array_equal(ssbc_process_online(model, p),
                              ssbc_process_online(model, p))


def test_encode_batch_empty():
    ds, train = small_train()
    model = ssbc_train(train, SsbcParams(4, 0.5))
    out = ssbc_encode_batch(model, [])
    assert out.shape == (0, 4)
    assert out.dtype == np.int8


def test_encode_batch_checks_the_width_of_an_empty_batch():
    ds, train = small_train(n=50, d=4)
    model = ssbc_train(train, SsbcParams(3, 0.5))
    assert ssbc_encode_batch(model, np.zeros((0, 4))).shape == (0, 3)
    with pytest.raises(ParameterError, match="dimension 7"):
        ssbc_encode_batch(model, np.zeros((0, 7)))
    with pytest.raises(ParameterError, match="dimension 7"):
        ssbc_encode_batch(model, np.zeros((1, 7)))
    assert model.sketch.rows_seen == 50


def test_encode_batch_rejects_an_empty_batch_of_more_than_two_dimensions():
    ds, train = small_train(n=50, d=4)
    model = ssbc_train(train, SsbcParams(3, 0.5))
    for shape in [(1, 4, 2), (0, 4, 2), (0, 4, 0)]:
        with pytest.raises(ParameterError, match="non-empty 2-d"):
            ssbc_encode_batch(model, np.zeros(shape))
    assert model.sketch.rows_seen == 50


def test_encode_batch_rejects_points_of_width_zero():
    # five points of width 0 are five bad points, not an empty batch
    ds, train = small_train()
    model = ssbc_train(train, SsbcParams(3, 0.5))
    with pytest.raises(ParameterError, match="non-empty 2-d"):
        ssbc_encode_batch(model, np.zeros((5, 0)))


def test_batch_codes_match_exact_up_to_column_flips():
    # train on the whole set with ell >= 2m, re-encode the training set:
    # the single tall-buffer shrink is lossless and the final basis spans
    # the exact eigenvectors, so Hamming geometry matches exactly
    ds, train = small_train(n=40, d=6, seed=2, t=5)
    k = 4
    # ell = ceil(k + k/eps) = 84 >= 80 = 2m
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        model = ssbc_train(train, SsbcParams(k, 0.05))
    codes = ssbc_encode_batch(model, ds.points)
    ex = exact_codes(ds.points, k, train.sigma)
    gap = np.min(np.abs(np.diff(ex.eigenvalues))) / ex.eigenvalues[0]
    assert gap > 1e-6  # distinct top spectrum, gauge comparison is meaningful
    column_flip = np.all(codes == ex.codes, axis=0) | np.all(codes == -ex.codes,
                                                             axis=0)
    assert np.all(column_flip)
    assert np.array_equal(hamming_matrix(codes, codes),
                          hamming_matrix(ex.codes, ex.codes))


def test_batch_codes_equal_anchored_exact_codes_bit_for_bit():
    # acceptance criterion 2's configuration, where the lossless sketch's
    # basis spans the exact eigenvectors: under the one anchor rule the
    # codes agree bit for bit, not just up to column flips
    k = 8
    for seed in range(5):
        pts = synth_uniform(150, 50, seed).points
        sigma = estimate_sigma_nn(pts, 30)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            model = ssbc_train(TrainSet(pts, sigma), SsbcParams(k, 0.025))
        codes = ssbc_encode_batch(model, pts)
        exact = exact_codes(pts, k + 1, sigma).codes[:, :k]
        assert np.array_equal(codes, exact), seed


def _criterion_5_split(seed):
    """Acceptance criterion 5's training set (sigma_nn30) and test points."""
    pts = synth_uniform(2500, 50, seed).points
    perm = np.random.default_rng(seed).permutation(2500)
    train = pts[perm[:500]]
    return TrainSet(train, estimate_sigma_nn(train, 30)), pts[perm[500:]]


def _exact_stream(train, test, k):
    """The streamed matrix A (the training points' affinity rows, then the
    test points') and its anchored top-k right singular vectors."""
    a = np.vstack([affinity_matrix(train.points, train), affinity_matrix(test, train)])
    return a, _anchored(np.linalg.svd(a, full_matrices=False)[2][:k].T)


@pytest.mark.parametrize("k", [20, 30])
def test_batch_codes_equal_exact_stream_codes_at_the_criterion_5_point(k):
    # the paper's claim that streaming codes equal exact ones, at its own
    # operating point: the shrinks discard too little mass to move a bit
    train, test = _criterion_5_split(1000)
    model = ssbc_train(train, SsbcParams(k, 0.5))
    codes = ssbc_encode_batch(model, test)
    _, basis = _exact_stream(train, test, k)
    sketch = model.sketch
    certificate = sketch.shrinkage / (sketch.frobenius_sq / sketch.ell)
    assert np.array_equal(codes, signs(affinity_matrix(test, train) @ basis)), certificate


def test_lossy_shrinks_stay_certified_and_near_exact_stream_codes():
    # at sigma_nn30 / 16 the affinity mass spreads over many directions, and
    # at epsilon = 1 (ell = 60) the shrinks discard enough of it to move bits
    train, test = _criterion_5_split(1000)
    train = TrainSet(train.points, train.sigma / 16)
    model = ssbc_train(train, SsbcParams(30, 1.0))
    codes = ssbc_encode_batch(model, test)
    sketch = model.sketch
    a, basis = _exact_stream(train, test, 30)
    b = sketch.buffer
    fro2 = sketch.frobenius_sq
    assert np.linalg.norm(a.T @ a - b.T @ b, 2) <= sketch.shrinkage + 1e-9 * fro2
    assert sketch.shrinkage <= fro2 / sketch.ell
    # where two entries of a column are near in magnitude, the anchor rule
    # can sign the sketch and exact columns apart, so agreement is counted
    # after each exact column is signed to agree with the sketch's
    flips = np.sum(basis * sketch.basis(30), axis=0) < 0
    exact = signs(affinity_matrix(test, train) @ basis)
    aligned = np.mean(codes == np.where(flips, -exact, exact))
    assert aligned >= 0.995, ("aligned", aligned, "raw", np.mean(codes == exact),
                              "flipped columns", np.flatnonzero(flips))


def test_batch_codes_match_full_svd_reference_sketch():
    # a reduced criterion-5 configuration: every shrink of the reference
    # sketch takes a full SVD, and the codes must come out bit for bit equal
    pts = synth_uniform(1000, 50, 7).points
    train = TrainSet(pts[:200], estimate_sigma_nn(pts[:200], 30))
    test = pts[200:]
    params = SsbcParams(20, 0.5)
    model = ssbc_train(train, params)
    ref = FullSvdSketch(params.ell, train.m)
    for row in affinity_matrix(train.points, train):
        ref.insert(row)
    ref_model = SsbcModel(train, ref, params)
    codes = ssbc_encode_batch(model, test)
    assert np.array_equal(codes, ssbc_encode_batch(ref_model, test))
    assert model.sketch.shrink_count == ref.shrink_count > 900


def test_online_codes_match_full_svd_reference_sketch():
    # every basis read of the reference sketch takes a full SVD of its
    # buffer; the online codes read from the carried factorisation must
    # come out bit for bit equal
    pts = synth_uniform(1000, 50, 7).points
    train = TrainSet(pts[:200], estimate_sigma_nn(pts[:200], 30))
    params = SsbcParams(20, 0.5)
    model = ssbc_train(train, params)
    ref = FullSvdSketch(params.ell, train.m)
    for row in affinity_matrix(train.points, train):
        ref.insert(row)
    ref_model = SsbcModel(train, ref, params)
    for p in pts[200:]:
        assert np.array_equal(ssbc_process_online(model, p),
                              ssbc_process_online(ref_model, p))
    assert model.sketch.shrink_count == ref.shrink_count > 900


def test_streaming_and_online_agree_on_last_point():
    ds, train = small_train(n=25, d=6, seed=3)
    queries = synth_uniform(7, 6, 99).points
    model_a = ssbc_train(train, SsbcParams(4, 0.5))
    online = [ssbc_process_online(model_a, p) for p in queries]
    ds_b, train_b = small_train(n=25, d=6, seed=3)
    model_b = ssbc_train(train_b, SsbcParams(4, 0.5))
    batch = ssbc_encode_batch(model_b, queries)
    assert np.array_equal(online[-1], batch[-1])


def test_signs_rule_dtype_and_shape():
    # +1 wherever value >= 0: both zeros give +1, NaN compares false and gives -1
    values = np.array([0.0, -0.0, np.nan, 1e-300, -1e-300, 2.5, -np.inf, np.inf])
    out = signs(values)
    assert out.dtype == np.int8 and out.shape == (8,)
    assert out.tolist() == [1, 1, -1, 1, -1, 1, -1, 1]
    grid = values[:6].reshape(2, 3)
    out = signs(grid)
    assert out.dtype == np.int8 and out.shape == (2, 3)
    assert out.tolist() == [[1, 1, -1], [1, -1, 1]]
    assert signs([[-0.0, 3.0]]).tolist() == [[1, 1]]


def test_sign_project_tie_break_and_oddness():
    basis = np.eye(5)[:, :3]
    w = np.zeros(5)
    w[0] = 1.0
    assert np.array_equal(sign_project(w, basis), [1, 1, 1])
    assert np.array_equal(sign_project(-w, basis), [-1, 1, 1])


def test_sign_project_matches_brute_force():
    rng = np.random.default_rng(21)
    w = rng.standard_normal(8)
    basis = rng.standard_normal((8, 5))
    code = sign_project(w, basis)
    for j in range(5):
        dot = sum(w[i] * basis[i, j] for i in range(8))
        assert code[j] == (1 if dot >= 0 else -1)
    with pytest.raises(ParameterError):
        sign_project(w, rng.standard_normal((7, 5)))


def test_codeword_shape_and_alphabet():
    ds, train = small_train(seed=4)
    model = ssbc_train(train, SsbcParams(5, 0.5))
    codes = ssbc_encode_batch(model, synth_uniform(9, 6, 50).points)
    assert codes.shape == (9, 5)
    assert set(np.unique(codes)) <= {-1, 1}


def test_column_flip_gauge():
    rng = np.random.default_rng(33)
    w = rng.standard_normal((10, 6))
    basis = rng.standard_normal((6, 4))
    flipped = basis.copy()
    flipped[:, 2] *= -1
    a = np.stack([sign_project(row, basis) for row in w])
    b = np.stack([sign_project(row, flipped) for row in w])
    assert np.array_equal(a[:, 2], -b[:, 2])
    keep = [0, 1, 3]
    assert np.array_equal(a[:, keep], b[:, keep])
    assert np.array_equal(hamming_matrix(a, a), hamming_matrix(b, b))


def dense_rows(points, train):
    return np.exp(-cdist(points, train.points, "sqeuclidean") / train.sigma)


def dense_train(train, params):
    """The dense training path: the whole m x m affinity, then every row."""
    sketch = FdSketch(params.ell, train.m)
    for row in dense_rows(train.points, train):
        sketch.insert(row)
    return SsbcModel(train, sketch, params)


def dense_encode_batch(model, points):
    """The dense batch path: all n x m rows, inserted, then one product."""
    rows = dense_rows(points, model.train)
    for row in rows:
        model.sketch.insert(row)
    return signs(rows @ model.sketch.basis(model.params.k))


def assert_same_sketch(a, b):
    assert a.rows_seen == b.rows_seen
    assert a.shrink_count == b.shrink_count
    assert np.array_equal(a.buffer, b.buffer)


def test_streamed_blocks_equal_the_dense_reference():
    # 300 training points span three row blocks; the batch sizes sit on
    # and around one block
    pts = synth_uniform(600, 8, 17).points
    train = TrainSet(pts[:300], estimate_sigma_nn(pts[:300], 30))
    params = SsbcParams(8, 0.5)
    for n in (1, 127, 128, 129, 300):
        model = ssbc_train(train, params)
        ref = dense_train(train, params)
        assert_same_sketch(model.sketch, ref.sketch)
        codes = ssbc_encode_batch(model, pts[300:300 + n])
        assert np.array_equal(codes, dense_encode_batch(ref, pts[300:300 + n]))
        assert_same_sketch(model.sketch, ref.sketch)


def test_include_train_codes_equal_the_dense_reference():
    pts = synth_uniform(500, 8, 18).points
    train = TrainSet(pts[:200], estimate_sigma_nn(pts[:200], 30))
    test = pts[200:]
    params = SsbcParams(8, 0.5)
    for method in ("ssbc_streaming", "ssbc_online"):
        args = argparse.Namespace(method=method, k=8, epsilon=0.5, seed=0,
                                  exact_guard=5000)
        test_codes, train_codes = cli._encode(args, train, test, True)
        ref = dense_train(train, params)
        if method == "ssbc_streaming":
            ref_test = dense_encode_batch(ref, test)
        else:
            ref_test = np.stack([ssbc_process_online(ref, p) for p in test])
        assert np.array_equal(test_codes, ref_test)
        assert np.array_equal(train_codes,
                              signs(dense_rows(train.points, train) @ ref.sketch.basis(8)))


def test_batch_with_a_bad_point_leaves_the_sketch_as_it_was():
    # the bad point sits in the third row block: nothing may be inserted
    pts = synth_uniform(501, 6, 19).points
    train = TrainSet(pts[:200], estimate_sigma_nn(pts[:200], 30))
    model = ssbc_train(train, SsbcParams(5, 0.5))
    rows_seen, buffer = model.sketch.rows_seen, model.sketch.buffer
    for bad in (np.nan, np.inf):
        batch = pts[200:].copy()
        batch[300] = bad
        with pytest.raises(DataError):
            ssbc_encode_batch(model, batch)
        assert model.sketch.rows_seen == rows_seen
        assert np.array_equal(model.sketch.buffer, buffer)
    with pytest.raises(ParameterError):
        ssbc_encode_batch(model, pts[200:, :5])
    assert model.sketch.rows_seen == rows_seen


def test_train_with_a_bad_point_inserts_nothing(monkeypatch):
    pts = synth_uniform(301, 6, 20).points
    train = TrainSet(pts, estimate_sigma_nn(pts, 30))
    train.points[300, 2] = np.nan
    inserts = []
    monkeypatch.setattr(FdSketch, "insert", lambda self, row: inserts.append(row))
    with pytest.raises(DataError):
        ssbc_train(train, SsbcParams(5, 0.5))
    assert inserts == []


def test_train_and_batch_encode_hold_o_block_memory():
    # the dense paths held the m x m training affinity and the n x m test
    # affinities (72 MB each), each several times over while they were
    # built; a block of affinity rows holds at most _PAIR_BLOCK (2 MB)
    m = n = 3000
    pts = synth_uniform(m + n, 10, 21).points
    train = TrainSet(pts[:m], estimate_sigma_nn(pts[:m], 30))
    tracemalloc.start()
    try:
        model = ssbc_train(train, SsbcParams(5, 0.5))
        _, train_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        codes = ssbc_encode_batch(model, pts[m:])
        _, encode_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert codes.shape == (n, 5)
    assert train_peak < 5.5e6, train_peak
    assert encode_peak < 5.5e6, encode_peak
