"""Retrieval metrics, ground truth, and empirical checks of the sketch guarantees.

Metric conventions: a query that returns nothing has precision 1, a query
whose true similar set is empty has recall 1, and such queries are left
out of MAP entirely. Per-query values are single integer-ratio divisions
and means use math.fsum, so results are reproducible bit for bit against
a brute-force reimplementation of the same definitions.
"""

import math

import numpy as np
from scipy.spatial.distance import cdist

from .errors import DataError, GuardError, NumericalError, ParameterError, check_int
from .affinity import TrainSet, _as_points, affinity_matrix
from .sketch import FdSketch

# queries per cdist call in ground_truth: bounds its memory, changes no distance
_QUERY_BLOCK = 256


def _as_codes(codes, name="codes"):
    codes = np.asarray(codes)
    if codes.ndim != 2 or codes.shape[0] < 1 or codes.shape[1] < 1:
        raise ParameterError("%s must be a non-empty 2-d array, got shape %r"
                             % (name, codes.shape))
    if not np.all(np.abs(codes) == 1):
        raise DataError("%s entries must all be -1 or +1" % name)
    return codes.astype(np.int32)


def hamming_matrix(codes_query, codes_base):
    """Pairwise Hamming distances between two stacks of +-1 codes."""
    q = _as_codes(codes_query, "query codes")
    b = _as_codes(codes_base, "base codes")
    if q.shape[1] != b.shape[1]:
        raise ParameterError("code lengths differ: %d vs %d" % (q.shape[1], b.shape[1]))
    ham = q @ b.T
    np.subtract(q.shape[1], ham, out=ham)
    ham //= 2
    return ham


def _auto_exclude(a, b, exclude_self):
    if exclude_self is None:
        a = np.asarray(a)
        b = np.asarray(b)
        return a.shape == b.shape and np.array_equal(a, b)
    return bool(exclude_self)


class GroundTruth:
    """Per-query sets of truly similar base indices under a Euclidean threshold."""

    def __init__(self, query_count, base_count, similar, sigma, threshold,
                 threshold_note=""):
        self.query_count = query_count
        self.base_count = base_count
        self.similar = similar
        self.sigma = sigma
        self.threshold = threshold
        self.threshold_note = threshold_note


def ground_truth(queries, base, sigma, threshold=None, exclude_self=None,
                 threshold_note=""):
    """Mark base points within the Euclidean threshold of each query as similar.

    The threshold defaults to sigma itself (the radius that defined the
    bandwidth). Self-matches are dropped automatically when queries and base
    are the identical array; pass exclude_self to force either behaviour
    (positional: query i corresponds to base i).
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
    exclude = _auto_exclude(queries, base, exclude_self)
    similar = []
    for start in range(0, queries.shape[0], _QUERY_BLOCK):
        dist = cdist(queries[start:start + _QUERY_BLOCK], base, "euclidean")
        for i, row in enumerate(dist, start):
            idx = np.nonzero(row <= threshold)[0]
            if exclude:
                idx = idx[idx != i]
            similar.append(idx)
    return GroundTruth(queries.shape[0], base.shape[0], similar, sigma,
                       threshold, threshold_note)


def retrieve_hamming(codes_query, codes_base, r, exclude_self=None):
    """Indices of base codes within Hamming distance r of each query code."""
    ham = hamming_matrix(codes_query, codes_base)
    k = np.asarray(codes_query).shape[1]
    r = check_int(r, "r", 0, k)
    exclude = _auto_exclude(codes_query, codes_base, exclude_self)
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


def rank_by_hamming(codes_query, codes_base, exclude_self=None):
    """Full base ranking per query by ascending Hamming distance, ties by index."""
    ham = hamming_matrix(codes_query, codes_base)
    exclude = _auto_exclude(codes_query, codes_base, exclude_self)
    return [_ranking(ham, i, exclude) for i in range(ham.shape[0])]


def _ranking(ham, i, exclude):
    """Base indices by ascending Hamming distance from query i, ties by index."""
    order = np.argsort(ham[i], kind="stable")
    return order[order != i] if exclude else order


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


def pr_curve(codes_query, codes_base, truth, exclude_self=None):
    """(precision, recall) at every Hamming radius r = 0..k.

    Arithmetic matches precision_recall over retrieve_hamming at each r
    exactly; this just avoids materialising the index sets k+1 times.
    """
    ham = hamming_matrix(codes_query, codes_base)
    k = np.asarray(codes_query).shape[1]
    exclude = _auto_exclude(codes_query, codes_base, exclude_self)
    return _pr_curve(ham, k, truth, exclude)


def _pr_curve(ham, k, truth, exclude):
    """pr_curve from the Hamming matrix of k-bit codes.

    With exclude, the diagonal of ham is set to k + 1 in place, out of reach
    of every radius.
    """
    n_q = ham.shape[0]
    if len(truth) != n_q:
        raise ParameterError("truth covers %d queries, codes %d" % (len(truth), n_q))
    if exclude:
        np.fill_diagonal(ham, k + 1)
    ret_at = np.zeros((n_q, k + 1), dtype=np.int64)
    inter_at = np.zeros((n_q, k + 1), dtype=np.int64)
    truth_sizes = np.zeros(n_q, dtype=np.int64)
    for i in range(n_q):
        counts = np.bincount(ham[i], minlength=k + 2)[:k + 1]
        ret_at[i] = np.cumsum(counts)
        tru = np.asarray(truth[i], dtype=np.int64)
        truth_sizes[i] = tru.size
        if tru.size:
            rel_counts = np.bincount(ham[i][tru], minlength=k + 2)[:k + 1]
            inter_at[i] = np.cumsum(rel_counts)
    curve = []
    for r in range(k + 1):
        prec = np.where(ret_at[:, r] > 0,
                        inter_at[:, r] / np.maximum(ret_at[:, r], 1), 1.0)
        rec = np.where(truth_sizes > 0,
                       inter_at[:, r] / np.maximum(truth_sizes, 1), 1.0)
        curve.append((math.fsum(prec) / n_q, math.fsum(rec) / n_q))
    return curve


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
                       params=None, exclude_self=None):
    """Run the whole metric suite for one set of codes against a ground truth.

    The headline precision/recall is read off the radius sweep at the given
    radius (default floor(k/4)); MAP uses the full ranking of each
    query, scored as soon as it is taken, so no ranking list is kept.
    """
    k = int(np.asarray(codes_query).shape[1])
    if radius is None:
        radius = k // 4
    radius = check_int(radius, "radius", 0, k)
    if truth.query_count != np.asarray(codes_query).shape[0]:
        raise ParameterError("ground truth covers %d queries, codes %d"
                             % (truth.query_count, np.asarray(codes_query).shape[0]))
    ham = hamming_matrix(codes_query, codes_base)
    exclude = _auto_exclude(codes_query, codes_base, exclude_self)
    aps = [_average_precision(_ranking(ham, i, exclude), tru)
           for i, tru in enumerate(truth.similar) if len(tru)]
    map_score = math.fsum(aps) / len(aps) if aps else 1.0
    # _pr_curve may overwrite the diagonal, so it reads the matrix last
    curve = _pr_curve(ham, k, truth.similar, exclude)
    precision, recall = curve[radius]
    run_params = dict(params or {})
    run_params.setdefault("radius", radius)
    return EvalReport(method, k, run_params, precision, recall, map_score, curve)


def spectral_norm(mat, max_iter=1000, rtol=1e-9, seed=0):
    """Largest singular value by power iteration on M^T M.

    Seeded start vector, 1000-iteration cap, 1e-9 relative tolerance; on a
    hit cap the current estimate is returned.
    """
    mat = np.asarray(mat, dtype=np.float64)
    if mat.ndim != 2:
        raise ParameterError("expected a matrix, got ndim=%d" % mat.ndim)
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(mat.shape[1])
    nx = np.linalg.norm(x)
    if nx == 0:
        return 0.0
    x /= nx
    last = 0.0
    est = 0.0
    for _ in range(max_iter):
        z = mat.T @ (mat @ x)
        nz = np.linalg.norm(z)
        if nz == 0.0:
            return 0.0
        x = z / nz
        est = math.sqrt(nz)
        if abs(est - last) <= rtol * est:
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
    if n > guard:
        raise GuardError("n=%d exceeds the dense affinity guard %d" % (n, guard))
    train = TrainSet(points, sigma)
    w = affinity_matrix(points, train)
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
        "sigma": train.sigma,
        "rcond": float(rcond),
        "exhaustive": bool(exhaustive),
    }


def column_norm_diagnostic(points, sigma, guard=2000):
    """Max, min, and ratio of the affinity matrix's squared column norms."""
    points = _as_points(points)
    n = points.shape[0]
    if n > guard:
        raise GuardError("n=%d exceeds the dense affinity guard %d" % (n, guard))
    w = affinity_matrix(points, TrainSet(points, sigma))
    col = np.sum(w * w, axis=0)
    cmax = float(col.max())
    cmin = float(col.min())
    return {"cmax": cmax, "cmin": cmin, "ratio": cmax / cmin}
