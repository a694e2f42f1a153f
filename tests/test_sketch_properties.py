"""Properties of FdSketch on drawn streams, checked after every insert, and of
its secular-equation solve of the arrowhead core on drawn cores.

Rows are small integers, so exact ties among singular values, repeated rows
and zero rows all occur; the top-k subspace is compared only where the gap
at k defines it. The solve is also held bit for bit to a frozen reference
copy, so that a change to its layout or its loops cannot change a code.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.linalg.lapack import dlasd4

from ssbc import FdSketch
from ssbc.evaluation import spectral_norm
from ssbc.sketch import _DEFLATE_TOL, _arrowhead_svd


@st.composite
def wide_streams(draw):
    ell = draw(st.integers(2, 8))
    m = draw(st.integers(ell, 14))
    k = draw(st.integers(1, ell))
    n = draw(st.integers(1, 5 * ell))
    rows = draw(arrays(np.float64, (n, m), elements=st.integers(-3, 3)))
    return ell, k, rows


@settings(max_examples=60, deadline=None)
@given(wide_streams())
def test_basis_spans_top_k_and_fd_bounds_hold(stream):
    ell, k, rows = stream
    sk = FdSketch(ell, rows.shape[1])
    for t, row in enumerate(rows, start=1):
        sk.insert(row)
        a = rows[:t]
        fro2 = np.sum(a * a)
        diff = a.T @ a - sk.buffer.T @ sk.buffer
        err = spectral_norm(diff)
        assert err <= 2.0 * fro2 / ell + 1e-9 * fro2
        assert np.linalg.eigvalsh(diff).min() >= -1e-9 * max(fro2, 1.0)
        # the a-posteriori certificate (Ghashami, Liberty, Phillips & Woodruff
        # 2016): the deltas subtracted so far bound the error, and sum to at
        # most ||A||_F^2 / ell; integer entries make both squared norms exact
        assert sk.frobenius_sq == fro2
        assert err <= sk.shrinkage + 1e-9 * fro2
        assert sk.shrinkage <= fro2 / ell + 1e-9 * fro2
        if not sk.buffer.any():
            continue
        v = sk.basis(k)
        assert np.abs(v.T @ v - np.eye(k)).max() <= 1e-8
        _, s, vt = np.linalg.svd(sk.buffer)
        s = np.append(s, 0.0)
        if s[k - 1] - s[k] > 1e-6 * s[0]:
            top = vt[:k].T
            assert np.abs(v @ v.T - top @ top.T).max() <= 1e-6


_magnitudes = st.floats(-8, 3).map(lambda e: 10.0 ** e)
_signed = st.tuples(_magnitudes, st.sampled_from([-1.0, 1.0])).map(
    lambda t: t[0] * t[1])


@st.composite
def arrowhead_cores(draw):
    """(s, p, rho) with s spanning 1e-8..1e3, some moved to or near deflation."""
    r = draw(st.integers(0, 30))
    s = np.sort(draw(arrays(np.float64, r, elements=_magnitudes,
                            unique=True)))[::-1]
    p = np.array(draw(st.lists(_signed, min_size=r, max_size=r)))
    rho = draw(_signed)
    for _ in range(draw(st.integers(0, 2)) if r else 0):
        j = draw(st.integers(0, r - 1))
        scale = draw(st.sampled_from([0.0, 1e-300, 1e-14, 1e-12, 1e-10]))
        kind = draw(st.sampled_from(["p", "rho", "tie", "tiny"]))
        if kind == "p":
            p[j] *= scale
        elif kind == "rho":
            rho *= scale
        elif kind == "tie" and j:
            s[j] = s[j - 1] * (1.0 - scale)
        elif kind == "tiny":
            s[-1] = max(s[-1] * scale, 1e-300)
    return s, p, rho


@settings(max_examples=300, deadline=None)
@given(arrowhead_cores())
def test_arrowhead_solve_matches_svd_or_falls_back(core):
    s, p, rho = core
    r = len(s)
    k = np.zeros((r + 1, r + 1))
    k[:r, :r] = np.diag(s)
    k[r, :r] = p
    k[r, r] = rho
    got = _arrowhead_svd(s, p, rho)
    if got is None:
        return
    values, wt = got
    ref = np.linalg.svd(k, compute_uv=False)
    assert np.abs(values - ref).max() <= 1e-12 * ref[0]
    assert np.abs(wt @ wt.T - np.eye(r + 1)).max() <= 1e-10
    # the rows diagonalise K^T K in the order of the values
    rotated = wt @ (k.T @ k) @ wt.T
    assert np.abs(rotated - np.diag(values ** 2)).max() <= 1e-10 * ref[0] ** 2


def _arrowhead_reference(s, p, rho):
    """_arrowhead_svd as it stood before its temporaries were trimmed, frozen."""
    if not len(s):
        return None
    d = np.concatenate(([0.0], s[::-1]))
    z = np.append(p, rho)[::-1]
    znorm = np.linalg.norm(z)
    tol = _DEFLATE_TOL * max(d[-1], znorm)
    if np.abs(z).min() <= tol or np.diff(d).min() <= tol:
        return None
    n = len(d)
    unit = z / znorm
    sigma = np.empty(n)
    gap = np.empty((n, n))
    for i in range(n):
        delta, sigma[i], work, info = dlasd4(i, d, unit, znorm * znorm)
        if info:
            return None
        gap[:, i] = delta * work
    d2 = (d[:, None] - d) * (d[:, None] + d)
    poles = np.where(np.tri(n, n - 1, -1, dtype=bool), d2[:, :-1], d2[:, 1:])
    zhat2 = -gap[:, -1] * np.prod(gap[:, :-1] / poles, axis=1)
    if not np.all(zhat2 > 0):
        return None
    w = np.copysign(np.sqrt(zhat2), z)[:, None] / gap
    w /= np.linalg.norm(w, axis=0)
    return sigma[::-1], w[::-1, ::-1].T


def _assert_bit_equal(core):
    got, want = _arrowhead_svd(*core), _arrowhead_reference(*core)
    assert (got is None) == (want is None)
    if want is not None:
        assert np.array_equal(got[0], want[0])
        assert np.array_equal(got[1], want[1])


@settings(max_examples=300, deadline=None)
@given(arrowhead_cores())
def test_arrowhead_solve_is_bit_equal_to_the_reference(core):
    _assert_bit_equal(core)


@st.composite
def sketch_sized_cores(draw):
    """(s, p, rho) of 60-200 entries, the sizes a sketch's ell gives the core:
    a decaying spectrum over up to ten decades, as affinity rows give."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    r = draw(st.integers(59, 199))
    decades = draw(st.floats(0.5, 10.0))
    s = np.sort(10.0 ** rng.uniform(-decades, 0.0, r))[::-1] * 10.0 ** rng.uniform(-3, 3)
    p = rng.standard_normal(r) * s[0] * 10.0 ** rng.uniform(-4, 0)
    return s, p, float(rng.standard_normal() * s[0])


@settings(max_examples=40, deadline=None)
@given(sketch_sized_cores())
def test_arrowhead_solve_is_bit_equal_to_the_reference_at_sketch_sizes(core):
    _assert_bit_equal(core)
