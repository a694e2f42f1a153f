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
from .errors import GuardError, NumericalError, ParameterError, check_int
from .affinity import TrainSet, _as_points, affinity_matrix


class LshModel:
    """A d x k Gaussian projection matrix plus the seed that generated it."""

    def __init__(self, projections, seed):
        self.projections = np.asarray(projections, dtype=np.float64)
        self.seed = int(seed)


def lsh_train(d, k, seed):
    """Draw the d x k standard-normal projection matrix from the given seed."""
    d = check_int(d, "d", 1)
    k = check_int(k, "k", 1)
    rng = np.random.default_rng(seed)
    return LshModel(rng.standard_normal((d, k)), seed)


def lsh_encode(model, point):
    """Sign of the point's dot product with each projection column."""
    point = np.asarray(point, dtype=np.float64)
    if point.shape != (model.projections.shape[0],):
        raise ParameterError("point has shape %r, expected (%d,)"
                             % (point.shape, model.projections.shape[0]))
    return signs(point @ model.projections)


def lsh_encode_batch(model, points):
    """Codes for a stack of points, one row per point."""
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

    def __init__(self, codes, eigenvalues, mode):
        self.codes = codes
        self.eigenvalues = eigenvalues
        self.mode = mode


def exact_codes(points, k, sigma, mode="deterministic", seed=0, guard=5000,
                rotation=None):
    """Sign the top-k eigenvectors of the full affinity matrix.

    mode "deterministic" signs U_k directly; "randomized" first applies a
    k x k Haar rotation drawn from the seed (pass rotation= to override it,
    e.g. the identity, which reduces bit-exactly to the deterministic mode).
    Dense n x n work, refused above the guard size.
    """
    points = _as_points(points)
    n = points.shape[0]
    if mode not in ("deterministic", "randomized"):
        raise ParameterError("mode must be deterministic or randomized, got %r" % (mode,))
    k = check_int(k, "k", 1)
    if n < k:
        raise ParameterError("need n >= k, got n=%d, k=%d" % (n, k))
    if n > guard:
        raise GuardError("n=%d exceeds the dense eigendecomposition guard %d"
                         % (n, guard))
    w = affinity_matrix(points, TrainSet(points, sigma))
    if not np.array_equal(w, w.T) or not np.all(np.diag(w) == 1.0):
        raise NumericalError("affinity matrix is not symmetric with unit diagonal")
    try:
        vals, vecs = np.linalg.eigh(w)
    except np.linalg.LinAlgError as exc:
        raise NumericalError("eigendecomposition failed: %s" % exc) from exc
    top = vals[::-1][:k]
    u_k = vecs[:, ::-1][:, :k]
    if mode == "deterministic":
        codes = signs(u_k)
    else:
        if rotation is None:
            rotation = haar_rotation(k, seed)
        codes = signs(u_k @ rotation)
    return ExactCodes(codes, top, mode)
