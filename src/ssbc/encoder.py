"""Streaming spectral binary coding.

A point's codeword is the sign of its affinity vector projected onto the
first k right singular vectors of a Frequent Directions sketch of
affinity rows. For a stationary basis, online codes (ssbc_process_online)
and batch codes (ssbc_encode_batch) agree, and they always agree on the
last point processed. Affinity rows are inserted unscaled:
rescaling every row by a common factor changes neither the right
singular vectors nor any projection sign.

Training and batch encoding stream affinity rows in the blocks of
affinity._row_blocks, so they hold one block of rows, never the m x m
training affinity or the n x m test affinities. Every point is checked
before the first insert, so a bad point leaves the sketch as it was.
"""

import math
import warnings

import numpy as np

from .affinity import (_as_points, _as_queries, _row_blocks, affinity_matrix,
                       affinity_vector)
from .errors import ParameterError, check_int
from .sketch import FdSketch


def signs(values):
    """Elementwise sign as int8 in {-1, +1}: +1 where a value is >= 0, so
    +0 and -0 give +1 and NaN gives -1."""
    out = (np.asarray(values) >= 0).astype(np.int8)
    out *= 2
    out -= 1
    return out


class SsbcParams:
    """Code length k and sketch accuracy epsilon; sketch size ell = ceil(k + k/epsilon)."""

    def __init__(self, k, epsilon=0.5):
        k = check_int(k, "k", 1)
        epsilon = float(epsilon)
        if not (0.0 < epsilon <= 1.0):
            raise ParameterError("epsilon must lie in (0, 1], got %r" % epsilon)
        self.k = k
        self.epsilon = epsilon

    @property
    def ell(self):
        return int(math.ceil(self.k + self.k / self.epsilon))


class SsbcModel:
    """A trained encoder: training set, FD sketch over affinity rows, and params."""

    def __init__(self, train, sketch, params):
        if sketch.m != train.m:
            raise ParameterError("sketch row dimension %d does not match train size %d"
                                 % (sketch.m, train.m))
        if sketch.ell != params.ell:
            raise ParameterError("sketch has ell=%d, params require %d"
                                 % (sketch.ell, params.ell))
        self.train = train
        self.sketch = sketch
        self.params = params


def sign_project(w, basis):
    """Codeword sign(w . basis_j) for each basis column j."""
    w = np.asarray(w, dtype=np.float64)
    basis = np.asarray(basis, dtype=np.float64)
    if w.ndim != 1 or basis.ndim != 2 or basis.shape[0] != w.shape[0]:
        raise ParameterError("shape mismatch: w %r vs basis %r" % (w.shape, basis.shape))
    return signs(w @ basis)


def _affinity_blocks(points, train):
    """(slice, affinity rows) of checked points, one block at a time."""
    for rows in _row_blocks(points.shape[0], train.m):
        yield rows, affinity_matrix(points[rows], train)


def _insert_points(sketch, points, train):
    for _, block in _affinity_blocks(points, train):
        for row in block:
            sketch.insert(row)


def project_codes(points, train, basis):
    """Codes of points under a frozen basis, without inserting them: the
    signs of each point's affinity row projected on the basis columns.

    A block's affinity rows equal the dense rows bit for bit, but its
    product can differ from one dense product in the last bit where
    OpenBLAS takes its small-matrix kernel for a short block; a code bit
    can then differ only where a projection lies within rounding of zero.
    """
    codes = np.empty((points.shape[0], basis.shape[1]), dtype=np.int8)
    for rows, block in _affinity_blocks(points, train):
        codes[rows] = signs(block @ basis)
    return codes


def ssbc_train(train, params):
    """Stream the training points' own affinity rows into a fresh sketch."""
    if params.ell > train.m:
        warnings.warn("sketch ell=%d exceeds train size m=%d; wider than the data "
                      "is wasteful but legal" % (params.ell, train.m))
    sketch = FdSketch(params.ell, train.m)
    _insert_points(sketch, _as_points(train.points, "train points"), train)
    return SsbcModel(train, sketch, params)


def ssbc_process_online(model, point):
    """Insert one point's affinity row, then emit its code from the updated basis.

    Mutates model.sketch in place; the updated model is the argument itself.
    """
    if model.sketch.rows_seen < 1:
        raise ParameterError("model sketch has seen no rows; train it first")
    w = affinity_vector(point, model.train)
    model.sketch.insert(w)
    basis = model.sketch.basis(model.params.k)
    return sign_project(w, basis)


def ssbc_encode_batch(model, points):
    """Insert every point's affinity row, then emit all codes from the final basis."""
    if model.sketch.rows_seen < 1:
        raise ParameterError("model sketch has seen no rows; train it first")
    points = np.asarray(points, dtype=np.float64)
    if points.ndim in (1, 2) and len(points) == 0:
        if points.ndim == 2 and points.shape[1] != model.train.d:
            raise ParameterError("queries have dimension %d, train set has %d"
                                 % (points.shape[1], model.train.d))
        return np.zeros((0, model.params.k), dtype=np.int8)
    points = _as_queries(points, model.train)
    _insert_points(model.sketch, points, model.train)
    return project_codes(points, model.train, model.sketch.basis(model.params.k))
