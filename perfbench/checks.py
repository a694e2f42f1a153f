"""Checks of ssbc's outputs against computations made here, not by ssbc.

Each check_* function returns a list of problems; an empty list means the
output passed. Nothing is compared against a stored copy of earlier
output. The references:

* affinity rows: exp(-||p - q||^2 / sigma) from explicit differences;
* the FD guarantee (Ghashami, Liberty, Phillips & Woodruff 2016):
  ||A^T A - B^T B||_2 <= 2 ||A||_F^2 / ell and B^T B <= A^T A;
* the top-k right singular vectors of a buffer from np.linalg.svd, with
  ssbc's documented sign rule (largest-magnitude entry positive);
* ground truth from squared distances via the Gram identity;
* Hamming distances by XOR and popcount of packed bits, and the retrieval
  figures (precision and recall at every radius, MAP) from their
  definitions in ssbc.evaluation, computed with a counting sort.

Floating-point references cannot settle a code bit whose projection lies
within rounding of 0, or a pair whose distance lies within rounding of the
threshold; such bits and pairs are exempt and counted.
"""

import json
import math

import numpy as np

# relative rounding slack on figures that are means of exact ratios
FIGURE_RTOL = 1e-12
# a singular vector whose relative gap to its neighbours is below this is
# not determined by the buffer to any useful precision
MIN_GAP = 1e-9
# share of code bits a code check must settle for its verdict to count
MIN_COVERAGE = 0.95


def affinity_rows(queries, train, sigma, chunk=100):
    """exp(-||q - t||^2 / sigma) for every query q and training point t."""
    queries = np.asarray(queries, dtype=np.float64)
    train = np.asarray(train, dtype=np.float64)
    out = np.empty((queries.shape[0], train.shape[0]))
    for start in range(0, queries.shape[0], chunk):
        diff = queries[start:start + chunk, None, :] - train[None, :, :]
        out[start:start + chunk] = np.exp(-np.einsum("qtd,qtd->qt", diff, diff)
                                          / sigma)
    return out


def check_fd(rows, buffer):
    """The FD guarantee for stream rows A and buffer B. Returns (problems,
    ||A^T A - B^T B||_2 over the bound 2 ||A||_F^2 / ell)."""
    gram = rows.T @ rows - buffer.T @ buffer
    eig = np.linalg.eigvalsh((gram + gram.T) / 2)
    fro2 = float(np.sum(rows * rows))
    err, bound = float(np.abs(eig).max()), 2 * fro2 / buffer.shape[0]
    problems = []
    if err > bound:
        problems.append("FD bound broken: ||A^T A - B^T B||_2 = %r > %r" % (err, bound))
    if eig[0] < -1e-9 * fro2:
        problems.append("B^T B is not below A^T A: smallest eigenvalue of the "
                        "difference is %r" % eig[0])
    return problems, err / bound


def reference_basis(buffer, k):
    """Top-k right singular vectors (m x k, sign rule applied), singular
    values, and each column's relative gap to its neighbours."""
    _, s, vt = np.linalg.svd(buffer, full_matrices=False)
    v = vt[:k].T
    anchor = v[np.argmax(np.abs(v), axis=0), np.arange(k)]
    v = v * np.where(anchor >= 0, 1.0, -1.0)
    scale = s[0] if s[0] > 0 else 1.0
    padded = np.concatenate([[np.inf], s[:k + 1], [0.0]])[:k + 2]
    gaps = np.minimum(padded[:k] - padded[1:k + 1], padded[1:k + 1] - padded[2:k + 2])
    return v, s, gaps / scale


def check_basis(buffer, basis, k):
    """basis is orthonormal, spans the buffer's top-k right singular
    subspace, and matches each well-separated singular vector."""
    problems = []
    basis = np.asarray(basis, dtype=np.float64)
    if basis.shape != (buffer.shape[1], k):
        return ["basis has shape %r, expected %r" % (basis.shape, (buffer.shape[1], k))]
    drift = np.abs(basis.T @ basis - np.eye(k)).max()
    if drift > 1e-9:
        problems.append("basis is not orthonormal: max |V^T V - I| = %r" % drift)
    ref, s, gaps = reference_basis(buffer, k)
    top_gap = (s[k - 1] - (s[k] if k < len(s) else 0.0)) / s[0]
    if top_gap > MIN_GAP:
        resid = basis - ref @ (ref.T @ basis)
        sin = np.linalg.norm(resid, 2)
        if sin > 1e-9 + 1e-12 / top_gap:
            problems.append("basis leaves the top-%d singular subspace: sin = %r"
                            % (k, sin))
    for j in np.nonzero(gaps > MIN_GAP)[0]:
        dev = np.abs(basis[:, j] - ref[:, j]).max()
        if dev > 1e-9 + 1e-12 / gaps[j]:
            problems.append("basis column %d differs from the singular vector by %r"
                            % (j, dev))
    return problems


def check_codes(codes, rows, buffer, k, label="codes"):
    """codes == sign(rows . V_k) with sign(0) = +1, V_k the reference top-k
    basis of the buffer. Returns (problems, rows with a wrong bit)."""
    ref, _, gaps = reference_basis(buffer, k)
    return _check_signs(np.atleast_2d(codes), np.atleast_2d(rows), ref, gaps, label)


def _check_signs(codes, rows, basis, gaps, label):
    proj = rows @ basis
    expected = np.where(proj >= 0, 1, -1)
    if codes.shape != expected.shape:
        return ["%s have shape %r, expected %r" % (label, codes.shape, expected.shape)], 1
    # a bit is settled when its projection clears the rounding of the
    # product and the uncertainty of its column
    col_tol = np.where(gaps > MIN_GAP, 1e-10 + 1e-12 / np.maximum(gaps, MIN_GAP), np.inf)
    norms = np.linalg.norm(rows, axis=1)[:, None]
    settled = np.abs(proj) > col_tol[None, :] * norms
    wrong = settled & (codes != expected)
    problems = []
    if wrong.any():
        i, j = np.argwhere(wrong)[0]
        problems.append("%s: %d settled bits differ from the reference signs, "
                        "first at row %d bit %d" % (label, int(wrong.sum()), i, j))
    if settled.mean() < MIN_COVERAGE:
        problems.append("%s: only %.3f of bits could be settled" % (label, settled.mean()))
    return problems, int(wrong.any(axis=1).sum())


def check_signs(codes, rows, basis, label):
    """codes == sign(rows . basis) with sign(0) = +1, for a fixed basis
    whose columns are all trusted. Returns (problems, rows with a wrong bit)."""
    basis = np.asarray(basis, dtype=np.float64)
    scaled = basis / np.linalg.norm(basis, axis=0)
    return _check_signs(np.atleast_2d(codes), np.atleast_2d(rows), scaled,
                        np.ones(basis.shape[1]), label)


def truth_sets(points, threshold, chunk=1000):
    """Per point, the other points within Euclidean distance threshold, plus
    the pairs too close to the threshold for the Gram identity to settle."""
    points = np.asarray(points, dtype=np.float64)
    sq = np.einsum("nd,nd->n", points, points)
    t2 = threshold * threshold
    similar, unsure = [], []
    for start in range(0, points.shape[0], chunk):
        block = points[start:start + chunk]
        d2 = sq[start:start + chunk, None] + sq[None, :] - 2 * (block @ points.T)
        slack = 1e-10 * (sq[start:start + chunk, None] + sq[None, :] + t2)
        for r in range(block.shape[0]):
            i = start + r
            near = np.nonzero(d2[r] <= t2 + slack[r])[0]
            edge = near[np.abs(d2[r, near] - t2) <= slack[r, near]]
            near = near[near != i]
            similar.append(near)
            unsure.append(edge[edge != i])
    return similar, unsure


def check_truth(similar, reference, unsure):
    """ssbc's similar sets equal the reference sets, except at unsure pairs."""
    if len(similar) != len(reference):
        return ["ground truth covers %d queries, expected %d"
                % (len(similar), len(reference))]
    bad = []
    for i, (got, ref, edge) in enumerate(zip(similar, reference, unsure)):
        diff = np.setxor1d(np.asarray(got, dtype=np.int64), ref)
        if np.setdiff1d(diff, edge).size:
            bad.append(i)
    if bad:
        return ["ground truth differs from the reference on %d queries, first %d"
                % (len(bad), bad[0])]
    return []


def pack(codes):
    """+-1 codes as rows of uint64 words, bit set for +1."""
    bits = np.packbits(np.asarray(codes) > 0, axis=1)
    pad = (-bits.shape[1]) % 8
    bits = np.pad(bits, ((0, 0), (0, pad)))
    return np.ascontiguousarray(bits).view(np.uint64)


def xor_hamming(packed_q, packed_b):
    """Hamming distances between packed codes as uint8, by XOR and popcount."""
    x = packed_q[:, None, :] ^ packed_b[None, :, :]
    return np.bitwise_count(x).sum(axis=2, dtype=np.uint8)


def check_hamming(ham, codes_q, codes_b):
    """An ssbc Hamming matrix equals XOR-popcount of the packed codes."""
    ref = xor_hamming(pack(codes_q), pack(codes_b))
    ham = np.asarray(ham)
    if ham.shape != ref.shape:
        return ["Hamming matrix has shape %r, expected %r" % (ham.shape, ref.shape)]
    wrong = np.count_nonzero(ham != ref)
    if wrong:
        return ["%d Hamming distances differ from XOR-popcount" % wrong]
    return []


def retrieval_figures(codes, similar, radius, chunk=500):
    """Precision and recall at every radius and MAP of codes retrieving
    among themselves (self excluded), from ssbc.evaluation's definitions.

    Distances are XOR-popcounts. The ranking is a stable counting sort of
    the uint8 distances with the query itself moved past radius k, which
    ranks the others exactly as ssbc's stable sort with the query removed.
    """
    codes = np.asarray(codes)
    n, k = codes.shape
    packed = pack(codes)
    ret_at = np.zeros((n, k + 1), dtype=np.int64)
    inter_at = np.zeros((n, k + 1), dtype=np.int64)
    sizes = np.array([len(s) for s in similar], dtype=np.int64)
    aps = []
    for start in range(0, n, chunk):
        ham = xor_hamming(packed[start:start + chunk], packed)
        rows = np.arange(ham.shape[0])
        ham[rows, start + rows] = k + 1
        offsets = (ham.astype(np.int64) + (k + 2) * rows[:, None]).ravel()
        counts = np.bincount(offsets, minlength=ham.shape[0] * (k + 2))
        ret_at[start:start + chunk] = np.cumsum(
            counts.reshape(-1, k + 2)[:, :k + 1], axis=1)
        for r in rows:
            i = start + r
            tru = np.asarray(similar[i], dtype=np.int64)
            if tru.size == 0:
                continue
            inter_at[i] = np.cumsum(np.bincount(ham[r, tru], minlength=k + 2)[:k + 1])
            order = np.argsort(ham[r], kind="stable")
            place = np.empty(n, dtype=np.int64)
            place[order] = np.arange(1, n + 1)
            ranks = np.sort(place[tru])
            aps.append(math.fsum(np.arange(1, tru.size + 1) / ranks) / tru.size)
    curve = []
    for r in range(k + 1):
        ret, inter = ret_at[:, r], inter_at[:, r]
        prec = np.where(ret > 0, inter / np.maximum(ret, 1), 1.0)
        rec = np.where(sizes > 0, inter / np.maximum(sizes, 1), 1.0)
        curve.append((math.fsum(prec) / n, math.fsum(rec) / n))
    map_score = math.fsum(aps) / len(aps) if aps else 1.0
    return {"precision": curve[radius][0], "recall": curve[radius][1],
            "map": map_score, "pr_curve": curve}


def _close(a, b):
    return abs(a - b) <= FIGURE_RTOL * max(abs(a), abs(b), 1e-300)


def check_report(report, figures):
    """Every figure of an ssbc EvalReport equals the recomputed one."""
    problems = []
    for name in ("precision", "recall", "map"):
        got, want = getattr(report, name), figures[name]
        if not _close(got, want):
            problems.append("reported %s %r, recomputed %r" % (name, got, want))
    curve = report.pr_curve
    if len(curve) != len(figures["pr_curve"]):
        problems.append("PR curve has %d points, expected %d"
                        % (len(curve), len(figures["pr_curve"])))
    else:
        for r, (got, want) in enumerate(zip(curve, figures["pr_curve"])):
            if not (_close(got[0], want[0]) and _close(got[1], want[1])):
                problems.append("PR curve at radius %d is %r, recomputed %r"
                                % (r, tuple(got), tuple(want)))
                break
    return problems


def check_full_radius(report, similar, n):
    """At radius k every other point is returned: recall is exactly 1 and
    precision is the mean of |truth_i| / (n - 1)."""
    prec, rec = report.pr_curve[-1]
    want = math.fsum(len(s) / (n - 1) for s in similar) / n
    problems = []
    if rec != 1.0:
        problems.append("recall at radius k is %r, not 1" % rec)
    if not _close(prec, want):
        problems.append("precision at radius k is %r, mean |truth|/(n-1) is %r"
                        % (prec, want))
    return problems


def check_beats(ours, theirs, label):
    """The paper's ordering: SSBC's MAP and precision exceed the baseline's."""
    problems = []
    for name in ("map", "precision"):
        if not ours[name] > theirs[name]:
            problems.append("%s %s %r does not exceed %r"
                            % (label, name, ours[name], theirs[name]))
    return problems


def check_report_json(path, report):
    """A written JSON report carries the in-memory report's figures."""
    with open(path) as handle:
        written = json.load(handle)["reports"][0]
    return ["%s: %s is %r, the report says %r" % (path, name, written[name],
                                                  getattr(report, name))
            for name in ("precision", "recall", "map")
            if written[name] != getattr(report, name)]


def check_codes_file(path, codes):
    """A written +/- codes file holds a header, a config line and the codes."""
    with open(path) as handle:
        lines = handle.read().splitlines()
    codes = np.asarray(codes)
    n, k = codes.shape
    problems = []
    if not lines or "k=%d count=%d" % (k, n) not in lines[0]:
        problems.append("%s: header does not give k=%d count=%d" % (path, k, n))
    want = ["".join("+" if b > 0 else "-" for b in row) for row in codes]
    if lines[2:] != want:
        problems.append("%s: code lines differ from the codes" % path)
    return problems
