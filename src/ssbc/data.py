"""Dataset loading, synthesis, and train/test splitting.

The synthetic generator draws each coordinate t (1-based) uniformly from
[0, (1/t)^2], so later coordinates carry geometrically less energy. All
randomness comes from numpy's default_rng (PCG64), which is stable across
platforms for a fixed seed.
"""

import csv
import os

import numpy as np

from .errors import DataError, ParameterError, check_int


class Dataset:
    """A dense point matrix with a name and a provenance tag."""

    def __init__(self, points, name, provenance):
        points = np.asarray(points, dtype=np.float64)
        if points.ndim != 2 or points.shape[1] < 1:
            raise ParameterError("points must be 2-d with d >= 1, got shape %r"
                                 % (points.shape,))
        if points.size and not np.all(np.isfinite(points)):
            raise DataError("dataset %r contains non-finite values" % name)
        if provenance not in ("csv", "synthetic"):
            raise ParameterError("provenance must be csv or synthetic, got %r"
                                 % (provenance,))
        self.points = points
        self.name = str(name)
        self.provenance = provenance

    @property
    def n(self):
        return self.points.shape[0]

    @property
    def d(self):
        return self.points.shape[1]


class SplitSpec:
    """How many points go to train and test, and the seed that shuffles them."""

    def __init__(self, train_count, test_count, seed):
        self.train_count = check_int(train_count, "train_count", 0)
        self.test_count = check_int(test_count, "test_count", 0)
        self.seed = int(seed)


def _parse_cell(cell):
    text = cell.strip()
    if not text:
        return None
    try:
        value = float(text)
    except ValueError:
        return None
    if not np.isfinite(value):
        return None
    return value


def load_csv(path, delimiter=",", has_header=False, drop_columns=(),
             drop_rows_with_missing=False):
    """Read a numeric CSV into a Dataset.

    delimiter is one character. has_header skips the first non-empty row.
    drop_columns lists 0-based integer indices (counted before dropping) to
    discard. Cells that are empty, unparseable, or non-finite make the row
    either get dropped (drop_rows_with_missing=True) or abort the load. Rows
    of the wrong width are treated the same way.
    """
    if not isinstance(delimiter, str) or len(delimiter) != 1:
        raise ParameterError("delimiter must be one character, got %r" % (delimiter,))
    drop = set(check_int(c, "drop column index", 0) for c in drop_columns)
    rows = []
    width = None
    try:
        handle = open(path, newline="")
    except OSError as exc:
        raise DataError("cannot read %s: %s" % (path, exc)) from exc
    with handle:
        reader = csv.reader(handle, delimiter=delimiter)
        records = ((lineno, raw) for lineno, raw in enumerate(reader, start=1) if raw)
        if has_header:
            next(records, None)
        for lineno, raw in records:
            kept = [cell for j, cell in enumerate(raw) if j not in drop]
            values = [_parse_cell(cell) for cell in kept]
            bad = any(v is None for v in values)
            if width is None and not bad:
                width = len(values)
            if bad or (width is not None and len(values) != width):
                if drop_rows_with_missing:
                    continue
                raise DataError("%s line %d: missing or non-numeric cell"
                                % (path, lineno))
            rows.append(values)
    if not rows:
        raise DataError("%s: no usable rows" % path)
    name = os.path.splitext(os.path.basename(path))[0]
    return Dataset(np.array(rows, dtype=np.float64), name, "csv")


def save_csv(points, path):
    """Write a point matrix as CSV with full-precision (round-trip) floats."""
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2:
        raise ParameterError("points must be 2-d, got shape %r" % (points.shape,))
    try:
        handle = open(path, "w", newline="")
    except OSError as exc:
        raise DataError("cannot write %s: %s" % (path, exc)) from exc
    with handle:
        writer = csv.writer(handle, lineterminator="\n")
        for row in points:
            writer.writerow([repr(float(x)) for x in row])


def synth_uniform(n, d=50, seed=0, name="uniform"):
    """n points whose t-th coordinate is uniform on [0, (1/t)^2], t = 1..d."""
    n = check_int(n, "n", 1)
    d = check_int(d, "d", 1)
    rng = np.random.default_rng(seed)
    scales = (1.0 / np.arange(1, d + 1)) ** 2
    return Dataset(rng.random((n, d)) * scales, name, "synthetic")


def split(ds, spec):
    """Disjoint uniformly-random train/test subsets of the requested sizes."""
    total = spec.train_count + spec.test_count
    if total > ds.n:
        raise DataError("split wants %d points, dataset %r has %d"
                        % (total, ds.name, ds.n))
    rng = np.random.default_rng(spec.seed)
    perm = rng.permutation(ds.n)
    tr = perm[:spec.train_count]
    te = perm[spec.train_count:total]
    train = Dataset(ds.points[tr], ds.name + "-train", ds.provenance)
    test = Dataset(ds.points[te], ds.name + "-test", ds.provenance)
    return train, test


def zscore(ds):
    """Per-column standardisation; constant columns are centered only."""
    mean = ds.points.mean(axis=0)
    std = ds.points.std(axis=0)
    std = np.where(std == 0, 1.0, std)
    return Dataset((ds.points - mean) / std, ds.name + "-zscore", ds.provenance)
