"""Frequent Directions sketch over a stream of m-dimensional rows.

FD keeps an ell x m buffer B of the rows A streamed so far, and
A^T A - B^T B stays positive semidefinite; FdSketch states the bound on
its norm. A shrink's delta and shrunk singular values s' come from one
squared array (s2 = s * s, delta = s2[ell-1]): a separately squared delta
can differ by one ulp and leave the last value a tiny positive number
instead of zero, and B no free row.

FdSketch factors B in one of two ways, and _svd says when each is taken:
one full SVD of B, or a fold of one new row into the carried factors
(Brand 2006, "Fast low-rank modifications of the thin SVD") through the
SVD of the arrowhead core K of _updated_svd. K^T K = diag(s^2, 0) + z z^T
with z = [p, rho] is a rank-one update of a diagonal. LAPACK dlasd4 finds
its roots one by one (Gu & Eisenstat 1995, "A divide-and-conquer
algorithm for the bidiagonal SVD"), and the vectors (D^2 - sigma_i^2)^-1 z
use a z recomputed from the roots by the Loewner formula, as dlasd8 does,
so they are orthogonal by construction.

The memory layout in that solve is part of its result. dlasd4's roots are
stored one per row of gap (gap[i, j] = d_j^2 - sigma_i^2), and each Loewner
product runs over the roots in order. The vectors w[j, i] = zhat_j / gap[i, j]
are built C-ordered from gap's transpose: numpy sums a column norm of a
C-ordered array one row at a time, but pairwise on a Fortran-ordered one,
and the two orders give different bits. Moving either array to the other
layout would change the codes.
"""

import math

import numpy as np
from scipy.linalg.lapack import dlasd4

from .errors import DataError, NumericalError, ParameterError, check_int

# largest entry of |Vt Vt^T - I| a carried factorisation may have
_ORTHO_TOL = 1e-9
# LAPACK dlasd2's deflation tolerance is _DEFLATE_TOL * max(|d|, |z|)
_DEFLATE_TOL = 64 * np.finfo(np.float64).eps


def _arrowhead_svd(s, p, rho):
    """Singular values and right singular rows of K = [[diag(s), 0], [p, rho]].

    s is positive and non-increasing. Returns None, and the caller
    decomposes the whole buffer, when some z_j is negligible (rho = 0 among
    them), when two entries of [s, 0] are tied (both at LAPACK dlasd2's
    deflation tolerance), when dlasd4 reports failure, or when a recomputed
    z_j^2 is not positive. LAPACK orders d = [0, s] ascending, the reverse
    of K's index order, and dlasd4's delta * work is d_j^2 - sigma_i^2 to
    high relative accuracy.
    """
    if not len(s):
        return None  # a 1 x 1 core; dlasd4 leaves delta and work unset
    d = np.concatenate(([0.0], s[::-1]))
    z = np.append(p, rho)[::-1]
    znorm = np.linalg.norm(z)
    tol = _DEFLATE_TOL * max(d[-1], znorm)
    if np.abs(z).min() <= tol or np.diff(d).min() <= tol:
        return None
    n = len(d)
    unit = z / znorm
    rho2 = znorm * znorm
    sigma = np.empty(n)
    delta = np.empty((n, n))
    work = np.empty((n, n))
    for i in range(n):
        delta[i], sigma[i], work[i], info = dlasd4(i, d, unit, rho2)
        if info:
            return None
    gap = np.multiply(delta, work, out=delta)  # gap[i, j] = d_j^2 - sigma_i^2
    # Loewner: zhat_j^2 = prod_i (sigma_i^2 - d_j^2) / prod_{i != j} (d_i^2 - d_j^2),
    # each root paired with an adjacent pole so every ratio lies in (0, 1);
    # column j of poles is row j of d2 without its diagonal entry
    d2 = (d[:, None] - d) * (d[:, None] + d)
    poles = d2.ravel()[1:].reshape(n - 1, n + 1)[:, :-1].reshape(n, n - 1).T
    zhat2 = -gap[-1] * np.prod(gap[:-1] / poles, axis=0)
    if not np.all(zhat2 > 0):
        return None
    w = np.divide(np.copysign(np.sqrt(zhat2), z)[:, None], gap.T, order="C")
    w /= np.linalg.norm(w, axis=0)
    return sigma[::-1], w[::-1, ::-1].T


def _anchored(v):
    """v with each column flipped so its largest-magnitude entry is positive.

    The one sign rule of every spectral code, sketched or exact: LAPACK's
    sign choice is arbitrary, differs between solvers, and can change when
    the matrix changes slightly.
    """
    anchor = v[np.argmax(np.abs(v), axis=0), np.arange(v.shape[1])]
    return v * np.where(anchor >= 0, 1.0, -1.0)


class FdSketch:
    """Frequent Directions sketch held as factors plus pending rows.

    The state is the pair (s, V^T) the last shrink kept, s positive, and
    the rows inserted since; `buffer` builds [diag(s) V^T; pending; zeros]
    on each read. Before the first shrink nothing is carried and every
    row held is pending.

    Two floats certify the sketch after the fact (Ghashami, Liberty,
    Phillips & Woodruff 2016): over the rows A inserted so far,
    ||A^T A - B^T B||_2 <= `shrinkage`, the sum of the delta every shrink
    subtracted, and each shrink subtracts delta from ell squared values, so
    `shrinkage` <= `frobenius_sq` / ell, with `frobenius_sq` = ||A||_F^2.
    """

    def __init__(self, ell, m):
        self.ell = check_int(ell, "ell", 2)
        self.m = check_int(m, "m", 1)
        self.rows_seen = 0
        self.shrink_count = 0
        self.shrinkage = 0.0
        self.frobenius_sq = 0.0
        self._s = np.zeros(0)
        self._vt = None
        self._pending = []

    @property
    def next_zero_row(self):
        """Count of rows held: the index of the buffer's first zero row."""
        return len(self._s) + len(self._pending)

    @property
    def buffer(self):
        """The ell x m buffer, as a new array."""
        buf = np.zeros((self.ell, self.m))
        nz = len(self._s)
        if nz:
            buf[:nz] = self._s[:, None] * self._vt
        buf[nz:self.next_zero_row] = np.reshape(self._pending, (-1, self.m))
        return buf

    def insert(self, row):
        """Insert one row; shrink if the buffer is left with no zero row.

        A row whose squared norm is not finite (it holds inf or NaN, or its
        squares overflow) raises DataError and leaves the sketch as it was:
        the SVD of a buffer holding it need not terminate.
        """
        row = np.array(row, dtype=np.float64)
        if row.shape != (self.m,):
            raise ParameterError("row has shape %r, expected (%d,)"
                                 % (row.shape, self.m))
        norm_sq = float(row @ row)
        if not math.isfinite(norm_sq):
            raise DataError("row %d has a non-finite squared norm" % self.rows_seen)
        self.frobenius_sq += norm_sq
        self._pending.append(row)
        self.rows_seen += 1
        if self.next_zero_row == self.ell:
            self.shrink()

    def shrink(self):
        """Subtract the ell-th squared singular value from every one.

        Invoked by insert when the buffer fills. Every row whose shrunk
        singular value is exactly zero is freed, so repeated singular values
        tied with the ell-th release more than one row at once. In a tall
        sketch (ell > m, legal but wasteful) the ell-th singular value is
        structurally zero and the shrink is lossless.
        """
        s, vt = self._svd()
        delta, shrunk, nz = self._shrunk_values(s)
        self.shrink_count += 1
        self.shrinkage += delta
        self._s, self._vt, self._pending = shrunk[:nz], vt[:nz], []

    def _shrunk_values(self, s):
        """The delta subtracted, the shrunk singular values and the count
        of nonzero ones."""
        s2 = s * s
        delta = float(s2[self.ell - 1]) if self.ell <= len(s) else 0.0
        shrunk = np.sqrt(np.maximum(s2 - delta, 0.0))
        return delta, shrunk, int(np.count_nonzero(shrunk))

    def _svd(self, k=None):
        """Singular values and right singular rows of the buffer.

        The carried factors, updated by _updated_svd when one row is
        pending, are returned if their first k rows (every row for k=None,
        as a shrink reads, the one it annihilates too) are within _ORTHO_TOL
        of orthonormal. Otherwise the whole buffer is decomposed: before the
        first shrink, in a tall sketch (ell > m), with two or more rows
        pending, or where _updated_svd declines or gives fewer than k rows.
        """
        try:
            carried = None
            if self._vt is not None and len(self._pending) <= 1 and self.ell <= self.m:
                carried = self._updated_svd() if self._pending else (self._s, self._vt)
            if carried is not None:
                s, vt = carried
                n = len(s) if k is None else k
                if n <= len(s):
                    gram = vt[:n] @ vt[:n].T
                    gram.ravel()[::n + 1] -= 1.0
                    if np.abs(gram, out=gram).max(initial=0.0) <= _ORTHO_TOL:
                        return s, vt
            _, s, vt = np.linalg.svd(self.buffer, full_matrices=False)
        except np.linalg.LinAlgError as exc:
            raise NumericalError("SVD failed to converge: %s" % exc) from exc
        return s, vt

    def _updated_svd(self):
        """Singular values and right singular rows of the carried rows plus
        the one pending row, or None where _arrowhead_svd declines.

        These are diag(s) Vt for the carried (s, Vt), then the pending row
        c = p Vt + rho q^T, with p from two Gram-Schmidt passes against Vt
        and q rho the QR factorisation of the residual's transpose. Then
        B = K [Vt; q^T] with the arrowhead K = [[diag(s), 0], [p, rho]], and
        the SVD K = U diag(s') W^T gives B's singular values s' and right
        singular rows W^T [Vt; q^T].
        """
        vt = self._vt
        new = np.array(self._pending)
        coef = new @ vt.T
        resid = new - coef @ vt
        coef2 = resid @ vt.T
        resid -= coef2 @ vt
        coef += coef2
        q, r = np.linalg.qr(resid.T)
        arrow = _arrowhead_svd(self._s, coef[0], r[0, 0])
        if arrow is None:
            return None
        return arrow[0], arrow[1] @ np.vstack([vt, q.T])

    def basis(self, k):
        """First k right singular vectors of the buffer, as an m x k matrix.

        Columns are ordered by non-increasing singular value and come from
        the factorisation a shrink uses (_svd), each signed by _anchored,
        the rule exact_codes shares, so codes emitted at different stream
        positions, and exact codes, are comparable. In a read of more
        columns than the sketch holds rows, the trailing columns are an
        orthonormal completion and carry no data. Undefined, and a
        NumericalError, on a sketch that holds no data: nothing inserted
        yet, or every direction annihilated and only zero rows since.
        """
        k = check_int(k, "k", 1)
        if k > self.ell:
            raise ParameterError("k=%d exceeds sketch rows ell=%d" % (k, self.ell))
        if k > self.m:
            raise ParameterError("k=%d exceeds row dimension m=%d" % (k, self.m))
        # a positive carried value always leaves a nonzero buffer row
        if not len(self._s) and not any(row.any() for row in self._pending):
            raise NumericalError("sketch buffer is all zeros, no basis defined")
        _, vt = self._svd(k)
        return _anchored(vt[:k].T)
