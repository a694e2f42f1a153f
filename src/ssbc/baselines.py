"""Reference encoders: random-hyperplane LSH and exact eigendecomposition codes.

LSH is data independent: bit j of a point is the sign of its dot product
with the j-th column of a fixed Gaussian matrix (no centering, no bias).
The exact methods build the full Gaussian affinity matrix W of the point
set, eigendecompose it, and sign the top-k eigenvectors, either directly
(exact_d) or after a Haar-random k x k rotation of the code space
(exact_r). Both exist to give the sketch-based encoder something to beat.
"""

import numpy as np

from .encoder import signs
from .errors import NumericalError, ParameterError, check_int
from .affinity import _as_points, _self_affinity


class LshModel:
    """A d x k Gaussian projection matrix."""

    def __init__(self, projections):
        self.projections = np.asarray(projections, dtype=np.float64)


def lsh_train(d, k, seed):
    """Draw the d x k standard-normal projection matrix from the given seed."""
    d = check_int(d, "d", 1)
    k = check_int(k, "k", 1)
    rng = np.random.default_rng(seed)
    return LshModel(rng.standard_normal((d, k)))


def lsh_encode_batch(model, points):
    """Codes for a stack of points, one row per point: the sign of each
    point's dot product with each projection column."""
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2 or points.shape[1] != model.projections.shape[0]:
        raise ParameterError("points have shape %r, expected (*, %d)"
                             % (points.shape, model.projections.shape[0]))
    return signs(points @ model.projections)


def haar_rotation(k, seed):
    """Haar-random orthogonal k x k matrix: QR of a Gaussian matrix with
    the R diagonal's signs folded into Q."""
    k = check_int(k, "k", 1)
    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(rng.standard_normal((k, k)))
    d = np.sign(np.diag(r))
    d[d == 0] = 1.0
    return q * d


class ExactCodes:
    """Codes for a full point set plus the top-k eigenvalues they came from."""

    def __init__(self, codes, eigenvalues):
        self.codes = codes
        self.eigenvalues = eigenvalues


def exact_codes(points, k, sigma, mode="deterministic", seed=0, guard=5000):
    """Sign the top-k eigenvectors of the full affinity matrix.

    mode "deterministic" signs U_k directly; "randomized" signs
    U_k @ haar_rotation(k, seed). Dense n x n work, refused above the
    guard size.
    """
    points = _as_points(points)
    n = points.shape[0]
    if mode not in ("deterministic", "randomized"):
        raise ParameterError("mode must be deterministic or randomized, got %r" % (mode,))
    k = check_int(k, "k", 1)
    if n < k:
        raise ParameterError("need n >= k, got n=%d, k=%d" % (n, k))
    w = _self_affinity(points, sigma, guard)
    if not np.array_equal(w, w.T) or not np.all(np.diag(w) == 1.0):
        raise NumericalError("affinity matrix is not symmetric with unit diagonal")
    try:
        vals, vecs = np.linalg.eigh(w)
    except np.linalg.LinAlgError as exc:
        raise NumericalError("eigendecomposition failed: %s" % exc) from exc
    top = vals[::-1][:k]
    u_k = vecs[:, ::-1][:, :k]
    if mode == "randomized":
        u_k = u_k @ haar_rotation(k, seed)
    return ExactCodes(signs(u_k), top)
