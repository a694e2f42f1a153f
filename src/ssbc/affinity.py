"""Gaussian affinity vectors and kernel bandwidth estimators.

Affinity between points p and q is exp(-||p - q||^2 / sigma). Note the
divisor is sigma, not sigma squared, and the bandwidth estimators average
raw (not squared) distances; the resulting unit mismatch is deliberate and
preserved because it is how the estimators are defined downstream of us.
"""

import math

import numpy as np
from scipy.spatial.distance import cdist

from .errors import DataError, ParameterError, check_int


def _as_points(arr, name="points"):
    arr = np.asarray(arr, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
        raise ParameterError("%s must be a non-empty 2-d array, got shape %r"
                             % (name, arr.shape))
    if not np.all(np.isfinite(arr)):
        raise DataError("%s contains non-finite values" % name)
    return arr


class TrainSet:
    """Training points plus the kernel bandwidth sigma."""

    def __init__(self, points, sigma):
        self.points = _as_points(points, "train points")
        sigma = float(sigma)
        if not math.isfinite(sigma) or sigma <= 0:
            raise ParameterError("sigma must be a finite positive real, got %r" % sigma)
        self.sigma = sigma

    @property
    def m(self):
        return self.points.shape[0]

    @property
    def d(self):
        return self.points.shape[1]


def affinity_vector(q, train):
    """Affinity of query q against every training point, an m-vector in (0, 1]."""
    q = np.asarray(q, dtype=np.float64)
    if q.shape != (train.d,):
        raise ParameterError("query has shape %r, expected (%d,)" % (q.shape, train.d))
    if not np.all(np.isfinite(q)):
        raise DataError("query contains non-finite values")
    sq = cdist(q[None, :], train.points, "sqeuclidean")[0]
    return np.exp(-sq / train.sigma)


def affinity_matrix(queries, train):
    """Stack of affinity vectors, one row per query point."""
    queries = _as_points(queries, "queries")
    if queries.shape[1] != train.d:
        raise ParameterError("queries have dimension %d, train set has %d"
                             % (queries.shape[1], train.d))
    sq = cdist(queries, train.points, "sqeuclidean")
    return np.exp(-sq / train.sigma)


def estimate_sigma_nn(points, t=30):
    """Mean Euclidean distance to the t-th nearest other point.

    Self-distances are excluded; t=30 gives the usual sigma_30 bandwidth.
    """
    points = _as_points(points)
    t = check_int(t, "t", 1)
    n = points.shape[0]
    if n <= t:
        raise ParameterError("need more than t=%d points, got n=%d" % (t, n))
    dist = cdist(points, points, "euclidean")
    np.fill_diagonal(dist, np.inf)
    dist.sort(axis=1)
    return math.fsum(dist[:, t - 1]) / n


def estimate_sigma_all(points):
    """Mean Euclidean distance over all unordered pairs."""
    points = _as_points(points)
    n = points.shape[0]
    if n < 2:
        raise ParameterError("need at least 2 points, got n=%d" % n)
    dist = cdist(points, points, "euclidean")
    iu = np.triu_indices(n, k=1)
    return math.fsum(dist[iu]) / (n * (n - 1) // 2)
