"""Properties of FdSketch on drawn streams, checked after every insert.

Rows are small integers, so exact ties among singular values, repeated rows
and zero rows all occur; the top-k subspace is compared only where the gap
at k defines it.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ssbc import FdSketch
from ssbc.evaluation import spectral_norm


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
        assert spectral_norm(diff) <= 2.0 * fro2 / ell + 1e-9 * fro2
        assert np.linalg.eigvalsh(diff).min() >= -1e-9 * max(fro2, 1.0)
        if not sk.buffer.any():
            continue
        v = sk.basis(k)
        assert np.abs(v.T @ v - np.eye(k)).max() <= 1e-8
        _, s, vt = np.linalg.svd(sk.buffer)
        s = np.append(s, 0.0)
        if s[k - 1] - s[k] > 1e-6 * s[0]:
            top = vt[:k].T
            assert np.abs(v @ v.T - top @ top.T).max() <= 1e-6
