"""Retrieval metrics, ground truth, and empirical checks of the sketch guarantees.

precision_recall and mean_average_precision state the metric conventions.
Per-query values are single integer-ratio divisions and means use
math.fsum, so results are reproducible bit for bit against a brute-force
reimplementation of the same definitions.

Ground truth and evaluation each make one pass over the query blocks of
affinity._row_blocks, so neither builds an n x n array. Per block of the
evaluation:

* Hamming distances come from one float32 BLAS product per block (float64
  for codes longer than 2**23 bits). For +-1 codes of length k, q.b counts
  agreements minus disagreements, so the distance is (k - q.b) / 2. This
  is exact in whatever order BLAS adds: every partial sum is an integer of
  magnitude at most k, and k - q.b one of at most 2k <= 2**24, all of which
  float32 holds exactly. The block is cast to the smallest unsigned type
  that holds k + 1 (uint8 up to k = 254, uint16 above).
* MAP reads each relevant item's rank off one stable argsort of the block's
  rows, so ties keep index order. numpy radix-sorts integers of 16 bits or
  less.
"""

import math
from collections.abc import Sequence

import numpy as np
from scipy.spatial.distance import cdist

from .errors import DataError, NumericalError, ParameterError, check_int
from .affinity import _as_points, _row_blocks, _self_affinity
from .sketch import FdSketch


def _as_codes(codes, name="codes"):
    codes = np.asarray(codes)
    if codes.ndim != 2 or codes.shape[0] < 1 or codes.shape[1] < 1:
        raise ParameterError("%s must be a non-empty 2-d array, got shape %r"
                             % (name, codes.shape))
    if not np.all(np.abs(codes) == 1):
        raise DataError("%s entries must all be -1 or +1" % name)
    return codes.astype(np.float32 if codes.shape[1] <= 1 << 23 else np.float64)


def _code_pair(codes_query, codes_base):
    q = _as_codes(codes_query, "query codes")
    b = q if codes_base is codes_query else _as_codes(codes_base, "base codes")
    if q.shape[1] != b.shape[1]:
        raise ParameterError("code lengths differ: %d vs %d" % (q.shape[1], b.shape[1]))
    return q, b


def _hamming_block(q, b, rows, exclude):
    """Hamming distances from the query rows of the slice rows to every base
    code; with exclude, query i's distance to base i reads k + 1, beyond
    every radius."""
    k = q.shape[1]
    prod = q[rows] @ b.T
    np.subtract(k, prod, out=prod)
    prod *= 0.5
    ham = prod.astype(np.min_scalar_type(k + 1))
    if exclude:
        own = np.arange(ham.shape[0])
        ham[own, rows.start + own] = k + 1
    return ham


def hamming_matrix(codes_query, codes_base):
    """Pairwise Hamming distances between two stacks of +-1 codes, as int32.

    Returns the n_query x n_base matrix by contract: with retrieve_hamming
    and rank_by_hamming it is an oracle of acceptance criterion 4 and of
    perfbench, against which the blocked evaluation is checked.
    """
    q, b = _code_pair(codes_query, codes_base)
    ham = np.empty((q.shape[0], b.shape[0]), dtype=np.int32)
    for rows in _row_blocks(q.shape[0], b.shape[0]):
        ham[rows] = _hamming_block(q, b, rows, False)
    return ham


class SimilarSets(Sequence):
    """Per-query index sets held as one flat array and the offsets between them.

    Item i is the view flat[ends[i]:ends[i + 1]]; a slice gives a list of
    such views. Holding no per-query array object keeps a ground truth at
    the size of its flat array plus 8 bytes per query.
    """

    def __init__(self, flat, ends):
        self.flat = flat
        self.ends = ends

    def __len__(self):
        return self.ends.size - 1

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(len(self)))]
        i = range(len(self))[i]
        return self.flat[self.ends[i]:self.ends[i + 1]]


class GroundTruth:
    """Per-query sets of truly similar base indices under a Euclidean threshold.

    similar is a sequence with one ascending index array per query: a list,
    or the SimilarSets that ground_truth builds.
    """

    def __init__(self, similar, threshold):
        self.similar = similar
        self.threshold = threshold


def ground_truth(queries, base, sigma, threshold=None):
    """Mark base points within the Euclidean threshold of each query as similar.

    The threshold defaults to sigma itself (the radius that defined the
    bandwidth). When queries and base are equal arrays, query i's match to
    base i is dropped. Each query's set is an ascending array of base
    indices, a view into one flat array shared by all queries; its type is
    int16 when the base has at most 32 768 points and int32 (int64 past
    2**31 points) otherwise.

    The sets equal cdist(queries, base) <= threshold pair for pair. With
    t the threshold, d the dimension, S = |q|^2 + |b|^2 + t^2 and
    tol = 2(d + 3) eps, a pair whose Gram form |q|^2 + |b|^2 - 2 q.b exceeds
    t^2 + tol S is dropped and one at most t^2 - tol S is kept, both without
    cdist (the bounds are derived below). Only the band between them goes
    to cdist, in one call per block of queries that has band pairs, against
    the base points the band touches. Far from the origin, where the Gram
    form cancels most digits, every candidate is in the band.
    """
    queries = _as_points(queries, "queries")
    base = _as_points(base, "base")
    if queries.shape[1] != base.shape[1]:
        raise ParameterError("dimension mismatch: %d vs %d"
                             % (queries.shape[1], base.shape[1]))
    sigma = float(sigma)
    if not (sigma > 0):
        raise ParameterError("sigma must be positive, got %r" % sigma)
    threshold = sigma if threshold is None else float(threshold)
    if not (threshold > 0):
        raise ParameterError("threshold must be positive, got %r" % threshold)
    exclude = np.array_equal(queries, base)
    # Two Gram tests. |q - b| <= t exactly when q.b - |b|^2/2 >= (|q|^2 - t^2)/2.
    # Let u = eps/2, d be the dimension and S = |q|^2 + |b|^2 + t^2. A
    # length-d dot product, summed in any order, is within d u |x||y| of its
    # value, so the computed q.b, |q|^2/2 and |b|^2/2, with the roundings of
    # the scalings and the subtraction, are off by at most (d + 3)u S in all
    # on the half scale of the tests.
    #
    # Candidates: adding tol |b|^2/2 to the left side and taking
    # tol (|q|^2 + t^2)/2 off the right gives |q|^2 + |b|^2 - 2 q.b <= t^2 + tol S,
    # at one BLAS product, one subtraction and one comparison per pair. No
    # pair that cdist accepts is dropped: cdist rounds d differences, their
    # squares, their sum and its root, so it accepts only pairs with
    # |q - b|^2 <= t^2 (1 + (d + 5)u), which is (d + 5)u t^2/2 on the half
    # scale. With the test's own error that is at most (3d + 11)u S/2, below
    # the slack tol S/2 = (4d + 12)u S/2.
    #
    # Sure pairs: the second test, |q|^2 + |b|^2 - 2 q.b <= t^2 - tol S, adds
    # tol |b|^2 to the candidate's left side, one more rounding, so it is off
    # by at most (d + 4)u S. A candidate that passes it as computed has
    # |q - b|^2 <= t^2 - tol S + 2(d + 4)u S = t^2 - (2d + 4)u S. cdist's
    # rounded sum of squares is then at most |q - b|^2 (1 + (d + 2)u), which is
    # below t^2 - (d + 2)u S <= t^2, and the rounded root of a value at most
    # t^2 is at most the float t: cdist accepts the pair too. With the band
    # between the two tests confirmed by cdist, each set equals
    # cdist(queries, base) <= threshold.
    tol = 2 * (queries.shape[1] + 3) * np.finfo(np.float64).eps
    t2 = threshold * threshold
    bb = np.einsum("ij,ij->i", base, base)
    half_b = (1 - tol) / 2 * bb
    tol_b = tol * bb
    n_b = base.shape[0]
    index_type = np.promote_types(np.min_scalar_type(-n_b), np.int16)
    # flat grows in place block by block (a realloc, not a second copy) and
    # no view of it lives across a resize, so its references need no check
    flat = np.empty(0, dtype=index_type)
    ends = np.zeros(queries.shape[0] + 1, dtype=np.int64)
    for part in _row_blocks(queries.shape[0], n_b):
        block = queries[part]
        qq = np.einsum("ij,ij->i", block, block)
        gram = block @ base.T
        gram -= half_b
        near = np.flatnonzero(gram >= (((1 - tol) * qq - (1 + tol) * t2) / 2)[:, None])
        rows, cols = np.divmod(near, n_b)
        sure = ((1 + tol) * qq - (1 - tol) * t2) / 2
        keep = gram.ravel()[near] >= sure[rows] + tol_b[cols]
        del gram
        band = np.flatnonzero(~keep)
        if band.size:
            hit, hit_col = np.unique(cols[band], return_inverse=True)
            keep[band] = cdist(block, base[hit])[rows[band], hit_col] <= threshold
        if exclude:
            keep &= cols != rows + part.start
        filled = flat.size
        flat.resize(filled + np.count_nonzero(keep), refcheck=False)
        flat[filled:] = cols[keep]
        ends[part.start + 1:part.stop + 1] = np.bincount(rows[keep],
                                                         minlength=block.shape[0])
    np.cumsum(ends, out=ends)
    return GroundTruth(SimilarSets(flat, ends), threshold)


def retrieve_hamming(codes_query, codes_base, r):
    """Indices of base codes within Hamming distance r of each query code.

    An oracle: it builds the full hamming_matrix by contract, so it holds
    n_query x n_base distances; evaluate_retrieval never calls it.
    """
    ham = hamming_matrix(codes_query, codes_base)
    k = np.asarray(codes_query).shape[1]
    r = check_int(r, "r", 0, k)
    exclude = np.array_equal(codes_query, codes_base)
    out = []
    for i in range(ham.shape[0]):
        idx = np.nonzero(ham[i] <= r)[0]
        if exclude:
            idx = idx[idx != i]
        out.append(idx)
    return out


def precision_recall(returned, truth):
    """Mean precision and recall over queries.

    precision_i = |returned ∩ truth| / |returned| (1 when nothing returned);
    recall_i uses |truth| in the denominator (1 when the truth is empty).
    """
    if len(returned) != len(truth):
        raise ParameterError("returned and truth cover %d vs %d queries"
                             % (len(returned), len(truth)))
    n_q = len(returned)
    if n_q == 0:
        raise ParameterError("no queries")
    precisions = []
    recalls = []
    for ret, tru in zip(returned, truth):
        ret_set = set(int(j) for j in ret)
        tru_set = set(int(j) for j in tru)
        inter = len(ret_set & tru_set)
        precisions.append(inter / len(ret_set) if ret_set else 1.0)
        recalls.append(inter / len(tru_set) if tru_set else 1.0)
    return math.fsum(precisions) / n_q, math.fsum(recalls) / n_q


def rank_by_hamming(codes_query, codes_base):
    """Full base ranking per query by ascending Hamming distance, ties by index.

    An oracle: it builds the full hamming_matrix and returns n_query
    rankings of the whole base by contract; evaluate_retrieval never calls it.
    """
    ham = hamming_matrix(codes_query, codes_base)
    exclude = np.array_equal(codes_query, codes_base)
    ranked = []
    for i, row in enumerate(ham):
        order = np.argsort(row, kind="stable")
        ranked.append(order[order != i] if exclude else order)
    return ranked


def _average_precision(order, tru):
    """Precision at the rank of each item of tru (non-empty) in order, averaged."""
    ranks = np.nonzero(np.isin(order, np.asarray(tru, dtype=np.int64)))[0] + 1
    if ranks.size == 0:
        return 0.0
    hits = np.arange(1, ranks.size + 1, dtype=np.int64)
    return math.fsum(hits / ranks) / ranks.size


def mean_average_precision(ranked_lists, truth):
    """Mean over queries of average precision on full Hamming rankings.

    A query's average precision is the mean, over its relevant items, of
    precision at that item's rank. Queries with empty truth are excluded;
    if every query is excluded the result is vacuously 1.0.
    """
    if len(ranked_lists) != len(truth):
        raise ParameterError("rankings and truth cover %d vs %d queries"
                             % (len(ranked_lists), len(truth)))
    aps = [_average_precision(np.asarray(order, dtype=np.int64), tru)
           for order, tru in zip(ranked_lists, truth) if len(tru)]
    return math.fsum(aps) / len(aps) if aps else 1.0


def pr_curve(codes_query, codes_base, truth):
    """(precision, recall) at every Hamming radius r = 0..k.

    Arithmetic matches precision_recall over retrieve_hamming at each r
    exactly; the curve comes from the one pass evaluate_retrieval makes,
    without materialising the index sets k+1 times.
    """
    return _sweep(codes_query, codes_base, truth)[0]


def _block_aps(ham, sizes, cols, exclude_from):
    """Average precision of each row of the Hamming block ham that has truth.

    Row i of ham has sizes[i] relevant base indices, and cols lists them
    row after row. With exclude_from set to the block's first query index,
    query i's own base index is not a hit. Returns one AP per row whose
    size is nonzero, in row order.
    """
    need = np.flatnonzero(sizes)
    local = np.repeat(np.arange(need.size), sizes[need])
    if exclude_from is not None:
        keep = cols != need[local] + exclude_from
        local, cols = local[keep], cols[keep]
    n_b = ham.shape[1]
    relevant = np.zeros((need.size, n_b), dtype=bool)
    relevant[local, cols] = True
    order = np.argsort(ham[need], axis=1, kind="stable")
    for row, row_order in zip(relevant, order):
        row[:] = row[row_order]
    hit_rows, pos = np.divmod(np.flatnonzero(relevant), n_b)
    found = np.bincount(hit_rows, minlength=need.size)
    firsts = np.cumsum(found) - found
    hits = np.arange(1, pos.size + 1, dtype=np.int64) - np.repeat(firsts, found)
    terms = (hits / (pos + 1)).tolist()  # precision at each hit's rank
    return [math.fsum(terms[a:a + m]) / m if m else 0.0
            for a, m in zip(firsts.tolist(), found.tolist())]


def _flat_sets(similar, n_b):
    """similar as SimilarSets. A caller's sequence of index arrays is checked
    to be strictly ascending within [0, n_b), then flattened once."""
    if isinstance(similar, SimilarSets):
        return similar
    sets = [np.asarray(s, dtype=np.intp).reshape(-1) for s in similar]
    for i, s in enumerate(sets):
        if s.size and (s[0] < 0 or s[-1] >= n_b or np.any(s[1:] <= s[:-1])):
            raise ParameterError("truth set of query %d is not strictly ascending "
                                 "within [0, %d)" % (i, n_b))
    ends = np.zeros(len(sets) + 1, dtype=np.int64)
    np.cumsum([s.size for s in sets], out=ends[1:])
    return SimilarSets(np.concatenate(sets), ends)


def _sweep(codes_query, codes_base, truth):
    """(PR curve, MAP) in one pass over query blocks."""
    q, b = _code_pair(codes_query, codes_base)
    n_q, k = q.shape
    if len(truth) != n_q:
        raise ParameterError("truth covers %d queries, codes %d" % (len(truth), n_q))
    truth = _flat_sets(truth, b.shape[0])
    exclude = np.array_equal(q, b)
    ret_at, inter_at = np.empty((2, n_q, k + 1), dtype=np.int64)
    sizes = np.diff(truth.ends)
    aps = []
    for part in _row_blocks(n_q, b.shape[0]):
        ham = _hamming_block(q, b, part, exclude)
        n_rows = ham.shape[0]
        rows = np.repeat(np.arange(n_rows), sizes[part])
        cols = truth.flat[truth.ends[part.start]:truth.ends[part.stop]]
        # per row, retrieved then relevant base codes at each distance 0..k + 1
        span = np.arange(n_rows) * (k + 2)
        for at, cells in ((ret_at, ham + span[:, None]),
                          (inter_at, ham[rows, cols] + span[rows])):
            counts = np.bincount(cells.ravel(), minlength=n_rows * (k + 2))
            at[part] = np.cumsum(counts.reshape(n_rows, k + 2)[:, :k + 1], axis=1)
        if cols.size:
            aps += _block_aps(ham, sizes[part], cols, part.start if exclude else None)
    curve = []
    for r in range(k + 1):
        prec = np.where(ret_at[:, r] > 0,
                        inter_at[:, r] / np.maximum(ret_at[:, r], 1), 1.0)
        rec = np.where(sizes > 0,
                       inter_at[:, r] / np.maximum(sizes, 1), 1.0)
        curve.append((math.fsum(prec.tolist()) / n_q,
                      math.fsum(rec.tolist()) / n_q))
    return curve, math.fsum(aps) / len(aps) if aps else 1.0


class EvalReport:
    """Headline metrics plus the full radius sweep for one method and k."""

    def __init__(self, method, k, params, precision, recall, map_score, pr):
        self.method = method
        self.k = k
        self.params = params
        self.precision = precision
        self.recall = recall
        self.map = map_score
        self.pr_curve = pr

    def to_dict(self):
        return {
            "method": self.method,
            "k": self.k,
            "params": self.params,
            "precision": self.precision,
            "recall": self.recall,
            "map": self.map,
            "pr_curve": [[p, r] for (p, r) in self.pr_curve],
        }


def evaluate_retrieval(method, codes_query, codes_base, truth, radius=None,
                       params=None):
    """Run the whole metric suite for one set of codes against a ground truth.

    The headline precision/recall is read off the radius sweep at the given
    radius (default floor(k/4)). One pass over query blocks gathers the PR
    counts and every query's average precision; no ranking is kept.
    """
    curve, map_score = _sweep(codes_query, codes_base, truth.similar)
    k = len(curve) - 1
    if radius is None:
        radius = k // 4
    radius = check_int(radius, "radius", 0, k)
    precision, recall = curve[radius]
    run_params = dict(params or {})
    run_params.setdefault("radius", radius)
    return EvalReport(method, k, run_params, precision, recall, map_score, curve)


def spectral_norm(mat):
    """Largest singular value by power iteration on M^T M.

    Start vector drawn from seed 0, 1000-iteration cap, 1e-9 relative
    tolerance; on a hit cap the current estimate is returned.
    """
    mat = np.asarray(mat, dtype=np.float64)
    if mat.ndim != 2:
        raise ParameterError("expected a matrix, got ndim=%d" % mat.ndim)
    rng = np.random.default_rng(0)
    x = rng.standard_normal(mat.shape[1])
    x /= np.linalg.norm(x)
    last = 0.0
    est = 0.0
    for _ in range(1000):
        z = mat.T @ (mat @ x)
        nz = np.linalg.norm(z)
        if nz == 0.0:
            return 0.0
        x = z / nz
        est = math.sqrt(nz)
        if abs(est - last) <= 1e-9 * est:
            break
        last = est
    return float(est)


def theory_spectral_check(points, m, ell, seed, sigma, exhaustive=False,
                          rcond=1e-10, guard=2000):
    """Empirical spectral errors of the sketched affinity approximation.

    Builds the exact affinity matrix W, samples m of its columns uniformly
    with replacement scaled by sqrt(n/m) to form What (or takes every column
    exactly once when exhaustive), sketches What's rows with an ell-row FD
    buffer B, and forms Wtil = What B^T B What^+. Reports, each normalised
    by ||W||_F^2:

      errW2    = ||W^2 - What What^T||_2
      errHat   = ||What What^T - Wtil||_2
      errTilde = ||W^2 - Wtil||_2

    The pseudoinverse truncates singular values at rcond times the largest;
    the degenerate flag records whether What was numerically rank deficient
    (duplicate sampled columns make this common and harmless).
    """
    points = _as_points(points)
    n = points.shape[0]
    w = _self_affinity(points, sigma, guard)
    if exhaustive:
        m = n
        idx = np.arange(n)
    else:
        m = check_int(m, "m", 1, n)
        rng = np.random.default_rng(seed)
        idx = rng.integers(0, n, size=m)
    what = np.sqrt(n / m) * w[:, idx]

    sketch = FdSketch(int(ell), m)
    for row in what:
        sketch.insert(row)
    b = sketch.buffer

    try:
        u, s, vh = np.linalg.svd(what, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalError("SVD of the column sample failed: %s" % exc) from exc
    cutoff = rcond * (s[0] if s.size else 0.0)
    keep = s > cutoff
    degenerate = bool(np.count_nonzero(keep) < min(what.shape))
    pinv = (vh[keep].T / s[keep]) @ u[:, keep].T
    wtil = what @ (b.T @ b) @ pinv

    w2 = w @ w
    what2 = what @ what.T
    fro2 = float(np.sum(w * w))
    return {
        "errW2": spectral_norm(w2 - what2) / fro2,
        "errHat": spectral_norm(what2 - wtil) / fro2,
        "errTilde": spectral_norm(w2 - wtil) / fro2,
        "frobW": math.sqrt(fro2),
        "degenerate": degenerate,
        "n": int(n),
        "m": m,
        "ell": int(sketch.ell),
        "seed": int(seed),
        "sigma": float(sigma),
        "rcond": float(rcond),
        "exhaustive": bool(exhaustive),
    }


def column_norm_diagnostic(points, sigma, guard=2000):
    """Max, min, and ratio of the affinity matrix's squared column norms."""
    w = _self_affinity(_as_points(points), sigma, guard)
    col = np.sum(w * w, axis=0)
    cmax = float(col.max())
    cmin = float(col.min())
    return {"cmax": cmax, "cmin": cmin, "ratio": cmax / cmin}
