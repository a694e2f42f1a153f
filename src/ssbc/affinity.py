"""Gaussian affinity vectors and kernel bandwidth estimators.

Affinity between points p and q is exp(-||p - q||^2 / sigma). Note the
divisor is sigma, not sigma squared, and the bandwidth estimators average
raw (not squared) distances; the resulting unit mismatch is deliberate and
preserved because it is how the estimators are defined downstream of us.

Affinity rows are built in place on their cdist output, and the bandwidth
estimators stream blocks of distance rows, so neither holds an m x m
distance array. Per pair, a block's cdist value equals the full cdist
value, so blocking changes no result.
"""

import itertools
import math

import numpy as np
from scipy.spatial.distance import cdist

from .errors import DataError, GuardError, ParameterError, check_int

# rows per block wherever affinity rows are streamed (training, batch
# encoding and its projection) and queries per block in evaluation: bounds
# that memory at O(block * m) and changes no result
_ROW_BLOCK = 128
# rows per block of the bandwidth estimators' distance rows
_SIGMA_BLOCK = 256


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


def _gaussian(sq, sigma):
    """exp(-sq / sigma), computed in sq itself: the same elementwise
    operations as the expression, in one array instead of three."""
    np.negative(sq, out=sq)
    sq /= sigma
    return np.exp(sq, out=sq)


def _as_queries(queries, train):
    """queries as a checked 2-d float64 array of the train set's dimension."""
    queries = _as_points(queries, "queries")
    if queries.shape[1] != train.d:
        raise ParameterError("queries have dimension %d, train set has %d"
                             % (queries.shape[1], train.d))
    return queries


def affinity_matrix(queries, train):
    """Stack of affinity vectors, one row per query point."""
    queries = _as_queries(queries, train)
    return _gaussian(cdist(queries, train.points, "sqeuclidean"), train.sigma)


def affinity_vector(q, train):
    """Affinity of query q against every training point, an m-vector in (0, 1]."""
    return affinity_matrix(np.asarray(q)[None], train)[0]


def _self_affinity(points, sigma, guard):
    """The dense n x n self-affinity of checked points, refused above guard."""
    n = points.shape[0]
    if n > guard:
        raise GuardError("n=%d exceeds the dense affinity guard %d" % (n, guard))
    return affinity_matrix(points, TrainSet(points, sigma))


def estimate_sigma_nn(points, t=30):
    """Mean Euclidean distance to the t-th nearest other point.

    Self-distances are excluded; t=30 gives the usual sigma_30 bandwidth.
    One pass over blocks of distance rows; a partition finds the same t-th
    smallest value that a sort would.
    """
    points = _as_points(points)
    t = check_int(t, "t", 1)
    n = points.shape[0]
    if n <= t:
        raise ParameterError("need more than t=%d points, got n=%d" % (t, n))
    nth = np.empty(n)
    for start in range(0, n, _SIGMA_BLOCK):
        dist = cdist(points[start:start + _SIGMA_BLOCK], points, "euclidean")
        own = np.arange(dist.shape[0])
        dist[own, start + own] = np.inf
        dist.partition(t - 1, axis=1)
        nth[start:start + dist.shape[0]] = dist[:, t - 1]
    return math.fsum(nth) / n


def _upper_distances(points):
    """The distance of every pair i < j, one list per i, from blocks of rows."""
    for start in range(0, points.shape[0] - 1, _SIGMA_BLOCK):
        dist = cdist(points[start:start + _SIGMA_BLOCK], points[start + 1:], "euclidean")
        for i, row in enumerate(dist):
            yield row[i:].tolist()


def estimate_sigma_all(points):
    """Mean Euclidean distance over all unordered pairs.

    math.fsum rounds the exact sum once, so the order in which the blocks
    feed it does not matter.
    """
    points = _as_points(points)
    n = points.shape[0]
    if n < 2:
        raise ParameterError("need at least 2 points, got n=%d" % n)
    total = math.fsum(itertools.chain.from_iterable(_upper_distances(points)))
    return total / (n * (n - 1) // 2)
