import math
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.spatial.distance import cdist

from ssbc import (DataError, GuardError, NumericalError, ParameterError,
                  column_norm_diagnostic, estimate_sigma_nn, evaluation,
                  evaluate_retrieval, ground_truth, hamming_matrix, lsh_train,
                  lsh_encode_batch, mean_average_precision,
                  pr_curve, precision_recall, rank_by_hamming, retrieve_hamming,
                  spectral_norm, theory_spectral_check)
from ssbc.affinity import _PAIR_BLOCK, _ROW_BLOCK, _row_blocks
from ssbc.evaluation import GroundTruth
from ssbc.data import synth_uniform

BASE = np.array([[1, 1, 1], [1, 1, -1], [-1, -1, -1], [1, -1, -1]], dtype=np.int8)
QUERY = np.array([[1, 1, 1], [-1, -1, 1]], dtype=np.int8)


def test_hamming_matrix_hand_example():
    ham = hamming_matrix(QUERY, BASE)
    assert np.array_equal(ham, [[0, 1, 3, 2], [2, 3, 1, 2]])


def test_hamming_matrix_matches_count_oracle():
    rng = np.random.default_rng(5)
    q = np.where(rng.random((6, 9)) < 0.5, -1, 1).astype(np.int8)
    b = np.where(rng.random((8, 9)) < 0.5, -1, 1).astype(np.int8)
    ham = hamming_matrix(q, b)
    for i in range(6):
        for j in range(8):
            assert ham[i, j] == int(np.sum(q[i] != b[j]))


@pytest.mark.parametrize("k", [1, 254, 255, 256, 300])
def test_hamming_matrix_matches_xor_count_across_the_uint8_boundary(k):
    rng = np.random.default_rng(k)
    bits = rng.random((7, k)) < 0.5
    bits[1] = bits[0]          # distance 0
    bits[2] = ~bits[0]         # distance k
    codes = np.where(bits, 1, -1).astype(np.int8)
    want = np.count_nonzero(bits[:, None, :] ^ bits[None, :, :], axis=2)
    ham = hamming_matrix(codes, codes)
    assert ham.dtype == np.int32 and np.array_equal(ham, want)
    assert ham[0, 2] == k
    # the evaluation's small-int block marks an excluded self at k + 1,
    # which must not wrap around to 0 at k = 255
    block = evaluation._hamming_block(codes.astype(np.float64),
                                      codes.astype(np.float64), slice(0, 7), True)
    np.fill_diagonal(want, k + 1)
    assert np.array_equal(block, want)
    truth = [np.arange(7)] * 7
    precision, recall = pr_curve(codes, codes, truth)[-1]
    assert (precision, recall) == (1.0, math.fsum([6 / 7] * 7) / 7)


@pytest.mark.parametrize("k", [255, 300])
@pytest.mark.parametrize("case", ["self", "truth lists the query", "two stacks"])
def test_the_sweep_matches_the_oracles_at_uint16_distances(k, case):
    rng = np.random.default_rng(k)
    bits = rng.random((30, k)) < 0.5
    # noisy copies of the first ten codes, each bit flipped with probability
    # 0 to 1, spread the distances over 0..k
    for i in range(10, 30):
        bits[i] = bits[i % 10] ^ (rng.random(k) < (i - 10) / 19)
    codes = np.where(bits, 1, -1).astype(np.int8)
    base = codes[::-1].copy() if case == "two stacks" else codes
    truth = [np.flatnonzero(rng.random(30) < 0.3) for _ in range(30)]
    truth = [np.union1d(t, [i]) if case == "truth lists the query" else np.setdiff1d(t, [i])
             for i, t in enumerate(truth)]
    ham = hamming_matrix(codes, base)
    assert np.min_scalar_type(k + 1) == np.uint16 and ham.max() == k
    curve = pr_curve(codes, base, truth)
    assert curve == [precision_recall(retrieve_hamming(codes, base, r), truth)
                     for r in range(k + 1)]
    report = evaluate_retrieval("m", codes, base, GroundTruth(truth, 1.0))
    assert report.pr_curve == curve
    assert (report.precision, report.recall) == curve[k // 4]
    assert report.map == mean_average_precision(rank_by_hamming(codes, base), truth)


def test_hamming_matrix_validation():
    with pytest.raises(DataError):
        hamming_matrix(np.array([[1, 0]]), BASE[:, :2])
    with pytest.raises(ParameterError):
        hamming_matrix(QUERY, BASE[:, :2])
    with pytest.raises(ParameterError):
        hamming_matrix(np.array([1, -1]), BASE)


def test_ground_truth_hand_example():
    base = np.array([[0.0], [1.0], [2.0], [10.0]])
    queries = np.array([[0.0], [2.5]])
    truth = ground_truth(queries, base, sigma=2.0)
    assert truth.threshold == 2.0
    assert [list(s) for s in truth.similar] == [[0, 1, 2], [1, 2]]


def test_ground_truth_self_exclusion_modes():
    base = np.array([[0.0], [1.0], [2.0], [10.0]])
    truth = ground_truth(base, base, sigma=1.5)
    assert [list(s) for s in truth.similar] == [[1], [0, 2], [1], []]
    # equal arrays, not only the same object, drop query i's match to base i
    equal = ground_truth(base, base.copy(), sigma=1.5)
    assert [list(s) for s in equal.similar] == [[1], [0, 2], [1], []]
    kept = ground_truth(base[:2], base, sigma=1.5)
    assert [list(s) for s in kept.similar] == [[0, 1], [0, 1, 2]]


def test_ground_truth_threshold_override_and_validation():
    base = np.array([[0.0], [1.0]])
    tight = ground_truth(base, base, sigma=5.0, threshold=0.5)
    assert [list(s) for s in tight.similar] == [[], []]
    with pytest.raises(ParameterError):
        ground_truth(base, base, sigma=-1.0)
    with pytest.raises(ParameterError):
        ground_truth(base, base, sigma=1.0, threshold=0.0)
    with pytest.raises(ParameterError):
        ground_truth(base, np.zeros((2, 2)), sigma=1.0)


def cdist_sets(queries, base, threshold, exclude):
    out = []
    for i, row in enumerate(cdist(queries, base)):
        idx = np.nonzero(row <= threshold)[0]
        out.append(idx[idx != i] if exclude else idx)
    return out


def assert_same_sets(truth, want):
    assert len(truth.similar) == len(want)
    for got, ref in zip(truth.similar, want):
        assert np.array_equal(got, ref)


@pytest.mark.parametrize("shift", [0.0, 1e3, 1e6])
def test_ground_truth_equals_cdist_on_hard_inputs(shift):
    # far from the origin, |q|^2 + |b|^2 - 2 q.b cancels almost every digit
    rng = np.random.default_rng(43)
    pts = rng.random((400, 9)) + shift
    pts[300:340] = pts[:40]
    dist = cdist(pts, pts)
    ordered = np.sort(dist[dist > 0])
    queries = pts[:150]
    # each threshold is a distance that cdist computes, so pairs sit on it
    for t in (ordered[ordered.size // 20], ordered[ordered.size // 4]):
        assert_same_sets(ground_truth(pts, pts, sigma=t),
                         cdist_sets(pts, pts, t, True))
        assert_same_sets(ground_truth(pts, pts, 1.0, threshold=t),
                         cdist_sets(pts, pts, t, True))
        assert_same_sets(ground_truth(queries, pts, 1.0, threshold=t),
                         cdist_sets(queries, pts, t, False))


@pytest.mark.parametrize("shift", [0.0, 1e6])
def test_ground_truth_keeps_pairs_exactly_at_the_threshold(shift):
    pts = np.array([[0, 0], [3, 4], [6, 8], [0, 5], [5, 0], [1, 1], [1, 1]],
                   dtype=np.float64) + shift
    truth = ground_truth(pts, pts, sigma=5.0)
    assert [list(s) for s in truth.similar] == [
        [1, 3, 4, 5, 6], [0, 2, 3, 4, 5, 6], [1], [0, 1, 5, 6], [0, 1, 5, 6],
        [0, 1, 3, 4, 6], [0, 1, 3, 4, 5]]
    assert_same_sets(truth, cdist_sets(pts, pts, 5.0, True))


def test_ground_truth_sets_are_views_into_one_compact_array():
    n = 3000
    pts = synth_uniform(n, 5, 11).points
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        truth = ground_truth(pts, pts, 0.1)
        after, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    sets = list(truth.similar)
    flat = sets[0].base
    pairs = sum(len(s) for s in sets)
    assert pairs > 10 * n
    assert flat.dtype == np.int16 and flat.size == pairs
    assert all(s.base is flat for s in sets)
    # 2 bytes per pair, an 8-byte offset per query and a few fixed objects:
    # no array object per query
    assert after - before <= 2 * pairs + 8 * n + 16384, after - before
    assert truth.similar[-1].tolist() == sets[-1].tolist()
    assert [s.tolist() for s in truth.similar[5:9]] == [s.tolist() for s in sets[5:9]]
    with pytest.raises(IndexError):
        truth.similar[n]


def test_ground_truth_peak_holds_its_flat_array_once():
    # beside the flat array, ground truth holds one block at a time: a
    # _PAIR_BLOCK-pair float64 Gram product and index arrays of the block's
    # candidates, within four such products here. A second copy of the
    # flat array, 20.8 MB at this shape, cannot fit in that allowance.
    pts = synth_uniform(6000, 4, 0).points
    tracemalloc.start()
    try:
        truth = ground_truth(pts, pts, 1.0, threshold=0.2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    allowance = 4 * 8 * _PAIR_BLOCK
    flat = truth.similar.flat
    assert flat.nbytes > 2 * allowance
    assert peak <= flat.nbytes + allowance, (peak, flat.nbytes)
    for got, want in zip(truth.similar[:200], cdist_sets(pts[:200], pts, 0.2, True)):
        assert np.array_equal(got, want)
    last = np.nonzero(cdist(pts[-1:], pts)[0] <= 0.2)[0]
    assert np.array_equal(truth.similar[-1], last[:-1])


@pytest.mark.parametrize("n_b, index_type", [(32768, np.int16), (32769, np.int32)])
def test_ground_truth_index_type_holds_every_base_index(n_b, index_type):
    base = np.zeros((n_b, 1))
    base[-1] = 5.0
    queries = np.array([[0.0], [5.0]])
    truth = ground_truth(queries, base, sigma=1.0)
    assert truth.similar[0].dtype == index_type
    assert list(truth.similar[1]) == [n_b - 1]
    assert len(truth.similar[0]) == n_b - 1


def test_retrieve_hamming_hand_example():
    got = retrieve_hamming(QUERY, BASE, 2)
    assert [list(s) for s in got] == [[0, 1, 3], [0, 2, 3]]
    with pytest.raises(ParameterError):
        retrieve_hamming(QUERY, BASE, 4)
    with pytest.raises(ParameterError):
        retrieve_hamming(QUERY, BASE, -1)


def test_retrieve_hamming_excludes_self_for_identical_stacks():
    got = retrieve_hamming(BASE, BASE, 0)
    assert [list(s) for s in got] == [[], [], [], []]
    got = retrieve_hamming(BASE, BASE.astype(np.float64), 0)
    assert [list(s) for s in got] == [[], [], [], []]
    kept = retrieve_hamming(BASE[:2], BASE, 0)
    assert [list(s) for s in kept] == [[0], [1]]


def test_precision_recall_hand_example():
    returned = [[0, 1, 3], [0, 2, 3]]
    truth = [[1, 2], [2]]
    prec, rec = precision_recall(returned, truth)
    assert prec == math.fsum([1 / 3, 1 / 3]) / 2
    assert rec == math.fsum([1 / 2, 1 / 1]) / 2


def test_precision_recall_empty_conventions():
    prec, rec = precision_recall([[]], [[0]])
    assert (prec, rec) == (1.0, 0.0)
    prec, rec = precision_recall([[0]], [[]])
    assert (prec, rec) == (0.0, 1.0)
    prec, rec = precision_recall([[]], [[]])
    assert (prec, rec) == (1.0, 1.0)
    with pytest.raises(ParameterError):
        precision_recall([], [])
    with pytest.raises(ParameterError):
        precision_recall([[0]], [[0], [1]])


def test_rank_by_hamming_stable_ties():
    ranks = rank_by_hamming(QUERY, BASE)
    assert list(ranks[0]) == [0, 1, 3, 2]
    assert list(ranks[1]) == [2, 0, 3, 1]  # 0 before 3 on the distance-2 tie


def test_rank_by_hamming_self_exclusion():
    ranks = rank_by_hamming(BASE, BASE)
    for i, order in enumerate(ranks):
        assert i not in order
        assert len(order) == 3


def test_mean_average_precision_hand_example():
    ranked = [[0, 1, 3, 2], [2, 0, 3, 1]]
    truth = [[1, 2], [2]]
    got = mean_average_precision(ranked, truth)
    ap0 = math.fsum([1 / 2, 2 / 4]) / 2
    ap1 = math.fsum([1 / 1]) / 1
    assert got == math.fsum([ap0, ap1]) / 2


def test_mean_average_precision_conventions():
    assert mean_average_precision([[0, 1]], [[]]) == 1.0
    # the empty-truth query is dropped, not averaged in as 1.0
    assert mean_average_precision([[0, 1], [1, 0]], [[], [0]]) == 0.5
    assert mean_average_precision([[0, 1], [0, 1]], [[], [0]]) == 1.0
    assert mean_average_precision([[0, 1]], [[5]]) == 0.0
    with pytest.raises(ParameterError):
        mean_average_precision([[0]], [[0], [1]])


def brute_map(ranked, truth):
    aps = []
    for order, tru in zip(ranked, truth):
        tru = set(int(t) for t in tru)
        if not tru:
            continue
        terms = []
        hits = 0
        for pos, idx in enumerate(order, start=1):
            if int(idx) in tru:
                hits += 1
                terms.append(hits / pos)
        aps.append(math.fsum(terms) / len(tru) if terms else 0.0)
    return math.fsum(aps) / len(aps) if aps else 1.0


def test_mean_average_precision_matches_brute_force_exactly():
    rng = np.random.default_rng(17)
    codes_q = np.where(rng.random((12, 8)) < 0.5, -1, 1).astype(np.int8)
    codes_b = np.where(rng.random((30, 8)) < 0.5, -1, 1).astype(np.int8)
    truth = [rng.choice(30, size=rng.integers(0, 6), replace=False)
             for _ in range(12)]
    ranked = rank_by_hamming(codes_q, codes_b)
    assert mean_average_precision(ranked, truth) == brute_map(ranked, truth)


def test_pr_curve_identical_to_per_radius_metrics():
    rng = np.random.default_rng(23)
    pts_b = synth_uniform(40, 5, 1).points
    pts_q = synth_uniform(15, 5, 2).points
    model = lsh_train(5, 7, 0)
    cb = lsh_encode_batch(model, pts_b)
    cq = lsh_encode_batch(model, pts_q)
    truth = ground_truth(pts_q, pts_b, sigma=0.3)
    curve = pr_curve(cq, cb, truth.similar)
    assert len(curve) == 8
    for r in range(8):
        returned = retrieve_hamming(cq, cb, r)
        assert curve[r] == precision_recall(returned, truth.similar)


def test_pr_curve_self_exclusion_matches_per_radius():
    pts = synth_uniform(30, 5, 3).points
    model = lsh_train(5, 6, 1)
    codes = lsh_encode_batch(model, pts)
    truth = ground_truth(pts, pts, sigma=0.4)
    curve = pr_curve(codes, codes, truth.similar)
    for r in range(7):
        returned = retrieve_hamming(codes, codes, r)
        assert curve[r] == precision_recall(returned, truth.similar)


def test_pr_curve_monotone_recall():
    pts = synth_uniform(30, 5, 4).points
    model = lsh_train(5, 6, 2)
    codes = lsh_encode_batch(model, pts)
    truth = ground_truth(pts, pts, sigma=0.4)
    curve = pr_curve(codes, codes, truth.similar)
    recalls = [r for (_, r) in curve]
    assert all(b >= a for a, b in zip(recalls, recalls[1:]))
    assert recalls[-1] == 1.0  # radius k returns everything


def test_evaluate_retrieval_consistency():
    pts_b = synth_uniform(40, 5, 5).points
    pts_q = synth_uniform(15, 5, 6).points
    model = lsh_train(5, 8, 3)
    cb = lsh_encode_batch(model, pts_b)
    cq = lsh_encode_batch(model, pts_q)
    truth = ground_truth(pts_q, pts_b, sigma=0.35)
    report = evaluate_retrieval("lsh", cq, cb, truth, radius=3,
                                params={"seed": 3})
    returned = retrieve_hamming(cq, cb, 3)
    prec, rec = precision_recall(returned, truth.similar)
    assert (report.precision, report.recall) == (prec, rec)
    assert report.map == mean_average_precision(rank_by_hamming(cq, cb),
                                                truth.similar)
    assert report.pr_curve[3] == (prec, rec)
    assert report.params == {"seed": 3, "radius": 3}
    payload = report.to_dict()
    assert payload["method"] == "lsh"
    assert payload["k"] == 8
    assert payload["pr_curve"][3] == [prec, rec]


@pytest.mark.parametrize("same", [True, False])
def test_evaluate_retrieval_computes_each_distance_once(monkeypatch, same):
    # 3000 base points: the pair bound, not _ROW_BLOCK, sizes the blocks
    base = synth_uniform(3000, 5, 8).points
    queries = base if same else synth_uniform(300, 5, 9).points
    model = lsh_train(5, 8, 5)
    cq, cb = lsh_encode_batch(model, queries), lsh_encode_batch(model, base)
    truth = ground_truth(queries, base, sigma=0.1)
    blocks = []
    block = evaluation._hamming_block

    def record(q, b, rows, exclude):
        ham = block(q, b, rows, exclude)
        blocks.append((rows, ham.shape))
        return ham

    monkeypatch.setattr(evaluation, "_hamming_block", record)
    report = evaluate_retrieval("lsh", cq, cb, truth)
    monkeypatch.undo()
    # the blocks of _row_blocks, fewer than _ROW_BLOCK rows and at most
    # _PAIR_BLOCK pairs each, cover every query once, each against the
    # whole base
    want = _row_blocks(len(cq), len(cb))
    step = want[0].stop
    assert step < _ROW_BLOCK and step * len(cb) <= _PAIR_BLOCK
    assert len(blocks) > 1
    assert [rows for rows, _ in blocks] == want
    assert [shape for _, shape in blocks] == [(s.stop - s.start, len(cb)) for s in want]
    assert report.pr_curve == pr_curve(cq, cb, truth.similar)
    assert report.map == mean_average_precision(rank_by_hamming(cq, cb),
                                                truth.similar)


def _criterion_5_split(seed):
    pts = synth_uniform(2500, 50, seed).points
    perm = np.random.default_rng(seed).permutation(2500)
    return estimate_sigma_nn(pts[perm[:500]], 30), pts[perm[500:]]


def test_ground_truth_settles_the_criterion_5_split_without_cdist(monkeypatch):
    # every pair there is clearly inside or outside the threshold, so the
    # two-sided Gram test settles it and cdist sees no pair
    sigma, test = _criterion_5_split(1000)
    seen = []
    real = evaluation.cdist

    def record(a, b):
        seen.append(len(b))
        return real(a, b)

    monkeypatch.setattr(evaluation, "cdist", record)
    truth = ground_truth(test, test, sigma)
    monkeypatch.undo()
    assert seen == []
    assert_same_sets(truth, cdist_sets(test, test, sigma, True))


def test_ground_truth_sends_every_candidate_of_a_far_split_to_cdist(monkeypatch):
    # shifted by 1e6, |q|^2 + |b|^2 - 2 q.b cancels almost every digit: no
    # pair is sure, every candidate is in the band, one cdist call per block
    sigma, test = _criterion_5_split(1000)
    test = test[:300] + 1e6
    seen = []
    real = evaluation.cdist

    def record(a, b):
        seen.append(len(a))
        return real(a, b)

    monkeypatch.setattr(evaluation, "cdist", record)
    truth = ground_truth(test, test, sigma)
    monkeypatch.undo()
    assert seen == [128, 128, 44]
    assert_same_sets(truth, cdist_sets(test, test, sigma, True))


def test_evaluate_retrieval_peak_does_not_grow_with_the_base():
    # a block holds at most _PAIR_BLOCK pairs, so at 6000 base points the
    # peak stays at a fixed few MB; 128-row blocks would take 16 MB here
    n_b = 6000
    base = synth_uniform(n_b, 5, 12).points
    codes = np.where(np.random.default_rng(12).random((n_b, 16)) < 0.5, -1, 1)
    truth = ground_truth(base[:300], base, 0.1)
    tracemalloc.start()
    try:
        report = evaluate_retrieval("m", codes[:300], codes, truth)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert 0.0 < report.map < 1.0
    assert peak < 8e6, peak


def test_caller_truth_sets_must_be_strictly_ascending_within_the_base():
    # a repeat was counted twice (precision 1.5 at radius 1), -1 read base 2
    # (precision 0.5, MAP 0.5 where the oracles give 0) and 3 raised IndexError
    query = np.array([[1, 1, 1, 1]] * 2)
    base = np.array([[1, 1, 1, 1], [-1, -1, -1, -1], [1, 1, 1, -1]])
    for bad in ([0, 0, 2], [-1], [3], [2, 0]):
        truth = [[0, 2], bad]
        with pytest.raises(ParameterError, match="query 1 "):
            pr_curve(query, base, truth)
        with pytest.raises(ParameterError, match="query 1 "):
            evaluate_retrieval("m", query, base, GroundTruth(truth, 1.0))
    truth = [[0, 2], []]
    assert pr_curve(query, base, truth)[1] == precision_recall(
        retrieve_hamming(query, base, 1), truth)


def test_evaluate_retrieval_default_radius_and_validation():
    pts = synth_uniform(20, 5, 7).points
    model = lsh_train(5, 9, 4)
    codes = lsh_encode_batch(model, pts)
    truth = ground_truth(pts, pts, sigma=0.4)
    report = evaluate_retrieval("lsh", codes, codes, truth)
    assert report.params["radius"] == 2  # floor(9 / 4)
    with pytest.raises(ParameterError):
        evaluate_retrieval("lsh", codes, codes, truth, radius=10)
    short = ground_truth(pts[:5], pts, sigma=0.4)
    with pytest.raises(ParameterError):
        evaluate_retrieval("lsh", codes, codes, short)


def test_evaluate_retrieval_rejects_one_dimensional_codes():
    # the codes check refuses 1-d codes before anything reads k off their shape
    pts = synth_uniform(5, 3, 7).points
    truth = ground_truth(pts, pts, sigma=0.4)
    with pytest.raises(ParameterError, match="2-d"):
        evaluate_retrieval("lsh", np.ones(5), np.ones(5), truth)


def test_spectral_norm_diagonal_and_rectangular():
    assert abs(spectral_norm(np.diag([3.0, 2.0, 1.0])) - 3.0) < 1e-8
    rng = np.random.default_rng(31)
    mat = rng.standard_normal((20, 8))
    want = np.linalg.norm(mat, 2)
    assert abs(spectral_norm(mat) - want) < 1e-7 * want
    assert spectral_norm(np.zeros((4, 4))) == 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert spectral_norm(np.zeros((4, 0))) == 0.0
    with pytest.raises(ParameterError):
        spectral_norm(np.zeros(3))


def test_theory_check_exhaustive_is_near_exact():
    pts = synth_uniform(40, 4, 0).points
    out = theory_spectral_check(pts, m=0, ell=41, seed=0, sigma=0.1,
                                exhaustive=True)
    assert out["exhaustive"] is True
    assert out["m"] == 40
    assert out["errW2"] <= 1e-12
    assert out["errHat"] <= 1e-8
    assert out["errTilde"] <= 1e-8


def test_theory_check_sampled_matches_dense_oracle():
    pts = synth_uniform(50, 4, 1).points
    sigma = 0.6
    out = theory_spectral_check(pts, m=20, ell=10, seed=7, sigma=sigma)
    w = np.exp(-np.square(
        np.linalg.norm(pts[:, None] - pts[None], axis=2)) / sigma)
    idx = np.random.default_rng(7).integers(0, 50, size=20)
    what = np.sqrt(50 / 20) * w[:, idx]
    fro2 = np.sum(w * w)
    want = np.linalg.norm(w @ w - what @ what.T, 2) / fro2
    assert abs(out["errW2"] - want) < 1e-6 * max(want, 1.0)
    assert out["frobW"] == math.sqrt(fro2)


def test_theory_check_triangle_inequality_and_determinism():
    pts = synth_uniform(60, 4, 2).points
    for seed in range(4):
        out = theory_spectral_check(pts, m=25, ell=8, seed=seed, sigma=0.5)
        assert out["errTilde"] <= out["errW2"] + out["errHat"] + 1e-9
        assert out["errW2"] >= 0 and out["errHat"] >= 0
    a = theory_spectral_check(pts, m=25, ell=8, seed=3, sigma=0.5)
    b = theory_spectral_check(pts, m=25, ell=8, seed=3, sigma=0.5)
    assert a == b


def test_theory_check_validation():
    pts = synth_uniform(30, 4, 3).points
    with pytest.raises(ParameterError):
        theory_spectral_check(pts, m=0, ell=8, seed=0, sigma=0.5)
    with pytest.raises(ParameterError):
        theory_spectral_check(pts, m=31, ell=8, seed=0, sigma=0.5)
    with pytest.raises(ParameterError):
        theory_spectral_check(pts, m=10, ell=8, seed=0, sigma=0.0)
    with pytest.raises(GuardError):
        theory_spectral_check(pts, m=10, ell=8, seed=0, sigma=0.5, guard=29)


def test_theory_check_reports_a_column_sample_svd_failure(monkeypatch):
    pts = synth_uniform(30, 4, 3).points
    svd = np.linalg.svd

    def svd_failing_on_the_sample(a, *args, **kwargs):
        # the sketch's own (ell x m) SVDs run as before
        if np.shape(a) == (30, 10):
            raise np.linalg.LinAlgError("SVD did not converge")
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", svd_failing_on_the_sample)
    with pytest.raises(NumericalError, match="SVD of the column sample failed"):
        theory_spectral_check(pts, m=10, ell=8, seed=0, sigma=0.5)


def test_column_norm_diagnostic_oracle():
    pts = np.array([[0.0], [1.0], [2.0]])
    sigma = 1.0
    out = column_norm_diagnostic(pts, sigma)
    w = np.exp(-np.square(pts - pts.T) / sigma)
    cols = [math.fsum(w[i, j] * w[i, j] for i in range(3)) for j in range(3)]
    assert abs(out["cmax"] - max(cols)) < 1e-15
    assert abs(out["cmin"] - min(cols)) < 1e-15
    assert out["ratio"] == out["cmax"] / out["cmin"]


def test_column_norms_at_least_one():
    # every column contains the unit self-affinity, so squared norms >= 1
    pts = synth_uniform(80, 6, 9).points
    out = column_norm_diagnostic(pts, 0.3)
    assert out["cmin"] >= 1.0
    assert out["ratio"] >= 1.0


def test_evaluation_peak_memory_stays_below_half_the_dense_footprint():
    # the dense footprint is the n x n float64 distance matrix plus n
    # rankings of n - 1 int64 indices; evaluation holds neither whole
    n = 3000
    pts = synth_uniform(n, 5, 11).points
    codes = np.where(np.random.default_rng(11).random((n, 16)) < 0.5, -1, 1)
    dense = n * n * 8 + n * (n - 1) * 8
    tracemalloc.start()
    try:
        truth = ground_truth(pts, pts, 0.1)
        report = evaluate_retrieval("m", codes, codes, truth)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert 0.0 < report.map < 1.0
    assert peak < dense / 2, peak


def test_evaluate_retrieval_alone_stays_well_below_the_dense_hamming_matrix():
    # evaluation holds O(_PAIR_BLOCK) at once, a share of the n x n
    # int32 Hamming matrix that falls as n grows
    n = 3000
    pts = synth_uniform(n, 5, 11).points
    codes = np.where(np.random.default_rng(11).random((n, 16)) < 0.5, -1, 1)
    truth = ground_truth(pts, pts, 0.1)
    dense = n * n * 4
    tracemalloc.start()
    try:
        report = evaluate_retrieval("m", codes, codes, truth)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert 0.0 < report.map < 1.0
    assert peak < dense / 3, peak
