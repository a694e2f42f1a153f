"""Frequent Directions sketch over a stream of m-dimensional rows.

FD keeps an ell x m buffer B. Rows go into zero rows of B; once no zero
row remains, a shrink step runs: take the SVD of B, subtract the ell-th
squared singular value from all squared singular values (clamping at
zero), and set B = diag(s') V^T. This guarantees
||A^T A - B^T B||_2 <= 2 ||A||_F^2 / ell over the whole stream A, with
A^T A - B^T B positive semidefinite.

The shrunk values come from a single squared array (s2 = s * s,
delta = s2[ell-1]), not from a separately squared scalar: vectorised and
scalar squaring can disagree by one ulp, which would leave the last shrunk
value a tiny positive number instead of zero and the buffer no free row.

After a shrink B is diag(s') V^T with orthonormal V^T, so the sketch
stores B factored, as (s', V^T) and the rows inserted since, and builds
the ell x m array only when `buffer` is read. Each shrink frees about one
row, so a shrink follows nearly every insert, and in online use a basis
read follows every insert as well; a full SVD of B at each would dominate
the cost of a stream. Both instead factor only the p rows inserted since
(Brand 2006, "Fast low-rank modifications of the thin SVD"): two
Gram-Schmidt passes project the new rows onto V^T (on correlated rows such
as affinities, one pass leaves the new directions measurably
non-orthogonal to V^T), the residual is QR-factored, and the SVD of the
square core followed by a rotation yields the buffer's singular values and
right singular vectors. A shrink applies the rule above to them; a basis
read takes the top k, straight from the carried pair if no row is pending.

Nearly every shrink follows a single insert, and then the core is the
arrowhead K = [[diag(s), 0], [p, rho]]: K^T K = diag(s^2, 0) + z z^T with
z = [p, rho] is a rank-one update of a diagonal. Its eigenvalues are the
roots of the secular equation, found one by one by LAPACK dlasd4 in O(r)
each, the divide-and-conquer step of Gu & Eisenstat (1995, "A
divide-and-conquer algorithm for the bidiagonal SVD"). The eigenvectors
(D^2 - sigma_i^2)^-1 z are built, as LAPACK dlasd8 does, from a z
recomputed from the computed roots by the Loewner formula: the roots are
exact for that z, so the vectors are orthogonal by construction rather
than only as far as the roots are accurate. The core is decomposed by
a general SVD instead when more than one row was inserted, when some z_j
is negligible (rho = 0 among them), when two diagonal entries of
[s, 0] are tied, when dlasd4 reports failure, or when a recomputed z_j^2
is not positive. The cutoff for negligible and tied is LAPACK dlasd2's
deflation tolerance.

The buffer is built and decomposed by a full SVD only where nothing is
carried (before the first shrink, and in a tall sketch, ell > m, where ell
orthonormal rows do not exist); when the rows the caller uses (the kept
rows for a shrink, the top k for a basis read) are further than
_ORTHO_TOL (largest entry of |V^T V - I|) from orthonormal; and for a
basis read of more rows than the sketch holds.
"""

import numpy as np
from scipy.linalg.lapack import dlasd4

from .errors import NumericalError, ParameterError, check_int

# largest entry of |Vt Vt^T - I| a carried factorisation may have
_ORTHO_TOL = 1e-9
# LAPACK dlasd2's deflation tolerance is _DEFLATE_TOL * max(|d|, |z|)
_DEFLATE_TOL = 64 * np.finfo(np.float64).eps


def _arrowhead_svd(s, p, rho):
    """Singular values and right singular rows of K = [[diag(s), 0], [p, rho]].

    s is positive and non-increasing. Returns None where the secular solve
    is not used (see the module docstring); the caller then takes an SVD of
    K. LAPACK orders d = [0, s] ascending, the reverse of K's index order,
    and dlasd4's delta * work is d_j^2 - sigma_i^2 to high relative
    accuracy.
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
    sigma = np.empty(n)
    gap = np.empty((n, n))  # gap[j, i] = d_j^2 - sigma_i^2
    for i in range(n):
        delta, sigma[i], work, info = dlasd4(i, d, unit, znorm * znorm)
        if info:
            return None
        gap[:, i] = delta * work
    # Loewner: zhat_j^2 = prod_i (sigma_i^2 - d_j^2) / prod_{i != j} (d_i^2 - d_j^2),
    # each root paired with an adjacent pole so every ratio lies in (0, 1)
    d2 = (d[:, None] - d) * (d[:, None] + d)
    poles = np.where(np.tri(n, n - 1, -1, dtype=bool), d2[:, :-1], d2[:, 1:])
    zhat2 = -gap[:, -1] * np.prod(gap[:, :-1] / poles, axis=1)
    if not np.all(zhat2 > 0):
        return None
    w = np.copysign(np.sqrt(zhat2), z)[:, None] / gap
    w /= np.linalg.norm(w, axis=0)
    return sigma[::-1], w[::-1, ::-1].T


class FdSketch:
    """Frequent Directions sketch held as factors plus pending rows.

    The state is the pair (s, V^T) the last shrink kept, s positive, and
    the rows inserted since; `buffer` builds [diag(s) V^T; pending; zeros]
    on each read. Before the first shrink and in a tall sketch (ell > m)
    nothing is carried and every row held is pending.
    """

    def __init__(self, ell, m):
        self.ell = check_int(ell, "ell", 2)
        self.m = check_int(m, "m", 1)
        self.rows_seen = 0
        self.shrink_count = 0
        # kept by the last shrink of a wide sketch; _vt is None until then
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
        """Insert one row; shrink if the buffer is left with no zero row."""
        row = np.array(row, dtype=np.float64)
        if row.shape != (self.m,):
            raise ParameterError("row has shape %r, expected (%d,)"
                                 % (row.shape, self.m))
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
        structurally zero, the shrink is lossless, and the kept rows stay
        pending.
        """
        s, vt = self._svd(lambda s: self._shrunk_values(s)[1])
        shrunk, nz = self._shrunk_values(s)
        self.shrink_count += 1
        if self.ell <= self.m:
            self._s, self._vt, self._pending = shrunk[:nz], vt[:nz], []
        else:
            self._pending = list(shrunk[:nz, None] * vt[:nz])

    def _shrunk_values(self, s):
        """Shrunk singular values and the count of nonzero ones."""
        s2 = s * s
        delta = s2[self.ell - 1] if self.ell <= len(s) else 0.0
        shrunk = np.sqrt(np.maximum(s2 - delta, 0.0))
        return shrunk, int(np.count_nonzero(shrunk))

    def _svd(self, used):
        """Singular values and right singular rows of the buffer.

        used(s) is how many leading right singular rows the caller reads.
        The carried factorisation, updated with the pending rows if there
        are any, is returned when it has that many rows and they are within
        _ORTHO_TOL of orthonormal; otherwise the whole buffer is decomposed.
        """
        try:
            if self._vt is not None:
                s, vt = self._updated_svd() if self._pending else (self._s, self._vt)
                n = used(s)
                if n <= len(s):
                    drift = np.abs(vt[:n] @ vt[:n].T - np.eye(n)).max(initial=0.0)
                    if drift <= _ORTHO_TOL:
                        return s, vt
            _, s, vt = np.linalg.svd(self.buffer, full_matrices=False)
        except np.linalg.LinAlgError as exc:
            raise NumericalError("SVD failed to converge: %s" % exc) from exc
        return s, vt

    def _updated_svd(self):
        """Singular values and right singular rows of the rows held.

        These are diag(s) Vt for the carried (s, Vt), then the pending rows
        C = P Vt + R^T Q^T, with P from two Gram-Schmidt passes against Vt
        and Q R the QR factorisation of the residual's transpose. Then
        B = K [Vt; Q^T] with the square core K = [[diag(s), 0], [P, R^T]],
        and the SVD K = U diag(s') W^T gives B's singular values s' and
        right singular rows W^T [Vt; Q^T]. K is decomposed by the secular
        solve when one row is pending, by an SVD otherwise.
        """
        nz = len(self._s)
        vt = self._vt
        new = np.array(self._pending)
        coef = new @ vt.T
        resid = new - coef @ vt
        coef2 = resid @ vt.T
        resid -= coef2 @ vt
        coef += coef2
        q, r = np.linalg.qr(resid.T)
        rows = np.vstack([vt, q.T])
        if len(new) == 1:
            arrow = _arrowhead_svd(self._s, coef[0], r[0, 0])
            if arrow is not None:
                return arrow[0], arrow[1] @ rows
        core = np.zeros((self.next_zero_row, self.next_zero_row))
        core[:nz, :nz] = np.diag(self._s)
        core[nz:, :nz] = coef
        core[nz:, nz:] = r.T
        _, s, wt = np.linalg.svd(core, full_matrices=False)
        return s, wt @ rows

    def basis(self, k):
        """First k right singular vectors of the buffer, as an m x k matrix.

        Columns are ordered by non-increasing singular value. They come from
        the factorisation a shrink uses, so after the first shrink of a wide
        sketch a read factors only the pending rows. Each column is flipped
        so its largest-magnitude entry is positive: the LAPACK sign choice
        is arbitrary and can change when the buffer changes slightly, which
        would make codes emitted at different stream positions incomparable.
        A read of more columns than the sketch holds rows decomposes the
        whole buffer; the trailing columns are then an orthonormal
        completion from its full SVD and carry no data. Undefined, and a
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
        _, vt = self._svd(lambda s: k)
        v = vt[:k].T
        anchor = v[np.argmax(np.abs(v), axis=0), np.arange(k)]
        flip = np.where(anchor >= 0, 1.0, -1.0)
        return v * flip
