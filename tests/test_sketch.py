import numpy as np
import pytest
from scipy.linalg.lapack import dlasd4

from ssbc import (DataError, FdSketch, NumericalError, ParameterError, TrainSet,
                  affinity_matrix, estimate_sigma_nn, sketch)
from ssbc.data import synth_uniform


def test_new_sketch_state():
    sk = FdSketch(4, 3)
    assert sk.buffer.shape == (4, 3)
    assert np.all(sk.buffer == 0)
    assert sk.next_zero_row == 0
    assert sk.rows_seen == 0


def test_new_sketch_rejects_bad_params():
    with pytest.raises(ParameterError):
        FdSketch(1, 5)
    with pytest.raises(ParameterError):
        FdSketch(4, 0)


def test_insert_dimension_mismatch():
    sk = FdSketch(3, 2)
    with pytest.raises(ParameterError):
        sk.insert(np.ones(3))


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan, 1e200])
def test_non_finite_row_is_rejected_before_it_touches_the_state(bad):
    # an inf row once sent the first shrink's SVD into a loop that did not
    # end, and a NaN row ended in an SVD convergence error; a row whose
    # squares overflow would make the squared singular values inf
    rows = np.random.default_rng(61).standard_normal((3, 6))
    sk = FdSketch(4, 6)
    sk.insert(rows[0])
    buf = sk.buffer
    for row in (np.full(6, bad), np.r_[rows[1, :5], bad]):
        with pytest.raises(DataError):
            sk.insert(row)
        assert (sk.rows_seen, sk.next_zero_row, sk.shrink_count) == (1, 1, 0)
        assert sk.frobenius_sq == rows[0] @ rows[0]
        assert np.array_equal(sk.buffer, buf)
    for row in rows[1:]:
        sk.insert(row)
    sk.insert(rows[0])
    assert sk.shrink_count == 1 and np.all(np.isfinite(sk.buffer))


def test_insert_without_fill_does_not_shrink():
    sk = FdSketch(2, 2)
    sk.insert([1.0, 0.0])
    assert sk.shrink_count == 0
    assert np.array_equal(sk.buffer, [[1.0, 0.0], [0.0, 0.0]])
    assert sk.next_zero_row == 1


def test_identity_fill_shrinks_to_zero():
    # singular values of [[1,0],[0,1]] are (1,1); subtracting the second
    # squared value annihilates the whole buffer
    sk = FdSketch(2, 2)
    sk.insert([1.0, 0.0])
    sk.insert([0.0, 1.0])
    assert sk.shrink_count == 1
    assert np.all(sk.buffer == 0)
    assert sk.next_zero_row == 0


def test_zero_row_insert_consumes_slot_only():
    sk = FdSketch(3, 2)
    sk.insert([2.0, 1.0])
    before = sk.buffer.T @ sk.buffer
    sk.insert([0.0, 0.0])
    assert sk.rows_seen == 2
    assert sk.next_zero_row == 2
    assert np.array_equal(sk.buffer.T @ sk.buffer, before)


def test_shrink_orthogonal_rows():
    # rows (3,0) and (0,1): s = (3,1), shrunk to (sqrt(8), 0)
    sk = FdSketch(2, 2)
    sk.insert([3.0, 0.0])
    sk.insert([0.0, 1.0])
    gram = sk.buffer.T @ sk.buffer
    assert np.allclose(gram, [[8.0, 0.0], [0.0, 0.0]], atol=1e-12)
    assert np.all(sk.buffer[1] == 0)
    assert sk.next_zero_row == 1


def test_every_structurally_zero_row_is_freed():
    # three equal singular values tied with the smallest: the shrink must
    # free all of them at once, not just the last row
    sk = FdSketch(3, 3)
    sk.insert([1.0, 0.0, 0.0])
    sk.insert([0.0, 1.0, 0.0])
    sk.insert([0.0, 0.0, 1.0])
    assert sk.next_zero_row == 0
    assert np.all(sk.buffer == 0)


def test_shrink_leaves_exact_zero_rows_on_correlated_stream():
    # near-tied singular values once bit a variant of this code that squared
    # the cutoff singular value separately from the vector of squares; the
    # last shrunk value then came out a few ulp above zero and the buffer
    # was left with no free row
    rng = np.random.default_rng(42)
    rows = rng.standard_normal((120, 8)) @ rng.standard_normal((8, 30))
    rows += 1e-9 * rng.standard_normal(rows.shape)
    sk = FdSketch(10, 30)
    for row in rows:
        sk.insert(row)
        assert sk.next_zero_row < sk.ell
        assert np.all(sk.buffer[sk.next_zero_row:] == 0)


def test_tall_buffer_shrink_is_lossless():
    # ell > m: the ell-th singular value is structurally zero, so a shrink
    # changes nothing about the gram matrix
    rng = np.random.default_rng(3)
    rows = rng.standard_normal((6, 3))
    sk = FdSketch(6, 3)
    for row in rows[:-1]:
        sk.insert(row)
    before = rows.T @ rows
    sk.insert(rows[-1])
    assert sk.shrink_count == 1
    assert sk.next_zero_row <= 3
    assert np.allclose(sk.buffer.T @ sk.buffer, before, atol=1e-10)


def test_fd_guarantee_and_psd_order():
    rng = np.random.default_rng(11)
    a = rng.standard_normal((60, 20))
    fro2 = np.sum(a * a)
    for ell in (5, 10):
        sk = FdSketch(ell, 20)
        for row in a:
            sk.insert(row)
        diff = a.T @ a - sk.buffer.T @ sk.buffer
        assert np.linalg.norm(diff, 2) <= 2.0 * fro2 / ell
        for _ in range(30):
            x = rng.standard_normal(20)
            x /= np.linalg.norm(x)
            gap = x @ diff @ x
            assert gap >= -1e-9


def test_shrink_weakly_decreases_singular_values():
    rng = np.random.default_rng(5)
    rows = rng.standard_normal((4, 6))
    sk = FdSketch(4, 6)
    for row in rows[:-1]:
        sk.insert(row)
    full = np.vstack([sk.buffer[:3], rows[-1]])
    s_before = np.linalg.svd(full, compute_uv=False)
    sk.insert(rows[-1])
    s_after = np.linalg.svd(sk.buffer, compute_uv=False)
    assert np.all(s_after <= s_before + 1e-12)


def test_insert_order_robustness():
    rng = np.random.default_rng(17)
    rows = rng.standard_normal((40, 12))
    bound = 2.0 * np.sum(rows * rows) / 6
    gram = rows.T @ rows
    for trial in range(5):
        perm = rng.permutation(40)
        sk = FdSketch(6, 12)
        for i in perm:
            sk.insert(rows[i])
        err = np.linalg.norm(gram - sk.buffer.T @ sk.buffer, 2)
        assert err <= bound


class FullSvdSketch:
    """Reference FD sketch: a materialised buffer, and a full SVD of it at
    every shrink and every basis read, with FdSketch's sign rule."""

    def __init__(self, ell, m):
        self.ell, self.m = ell, m
        self.buffer = np.zeros((ell, m))
        self.next_zero_row = self.rows_seen = self.shrink_count = 0

    def insert(self, row):
        self.buffer[self.next_zero_row] = row
        self.next_zero_row += 1
        self.rows_seen += 1
        if self.next_zero_row < self.ell:
            return
        _, s, vt = np.linalg.svd(self.buffer, full_matrices=False)
        s2 = s * s
        delta = s2[self.ell - 1] if self.ell <= len(s) else 0.0
        shrunk = np.sqrt(np.maximum(s2 - delta, 0.0))
        nz = int(np.count_nonzero(shrunk))
        self.buffer = np.zeros((self.ell, self.m))
        self.buffer[:nz] = shrunk[:nz, None] * vt[:nz]
        self.next_zero_row = nz
        self.shrink_count += 1

    def basis(self, k):
        v = np.linalg.svd(self.buffer, full_matrices=False)[2][:k].T
        anchor = v[np.argmax(np.abs(v), axis=0), np.arange(k)]
        return v * np.where(anchor >= 0, 1.0, -1.0)


def _assert_gapped_columns_match(sk, ref, k):
    # columns whose singular value is separated from its neighbours by more
    # than 1e-9 of the largest are defined up to sign, which basis() fixes
    s = np.append(np.linalg.svd(ref.buffer, compute_uv=False), 0.0)
    left = np.append(np.inf, s[:k - 1] - s[1:k])
    right = s[:k] - s[1:k + 1]
    gapped = np.minimum(left, right) > 1e-9 * s[0]
    diff = np.abs(sk.basis(k) - ref.basis(k))[:, gapped]
    assert diff.max(initial=0.0) <= 1e-8


def _wide_stream():
    return np.random.default_rng(37).standard_normal((600, 40)), 12


def _correlated_stream():
    rng = np.random.default_rng(42)
    rows = rng.standard_normal((120, 8)) @ rng.standard_normal((8, 30))
    rows += 1e-9 * rng.standard_normal(rows.shape)
    return rows, 10


def _tall_stream():
    return np.random.default_rng(41).standard_normal((50, 5)), 8


def _tied_stream():
    # scaled coordinate rows tie singular values exactly, so shrinks free
    # several rows at once and later shrinks factor several new rows together
    m, ell = 12, 4
    t = np.arange(90)
    rows = np.zeros((90, m))
    rows[t, t % m] = np.array([1.0, 2.0, 2.0, 1.0, 3.0])[t % 5]
    return rows, ell


def _emptied_stream():
    # the first shrink annihilates the buffer; the next one factors a full
    # buffer of dense rows with nothing carried
    rows = np.random.default_rng(43).standard_normal((40, 12))
    return np.vstack([np.eye(12)[:4], rows]), 4


@pytest.mark.parametrize("stream", [_wide_stream, _correlated_stream,
                                    _tall_stream, _tied_stream,
                                    _emptied_stream])
def test_shrink_matches_full_svd_reference(stream):
    rows, ell = stream()
    m = rows.shape[1]
    k = min(ell, m) - 1
    sk, ref = FdSketch(ell, m), FullSvdSketch(ell, m)
    for row in rows:
        sk.insert(row)
        ref.insert(row)
        assert sk.shrink_count == ref.shrink_count
        assert sk.next_zero_row == ref.next_zero_row
        # every shrink, a tall sketch's too, leaves carried factors
        assert (sk._vt is not None) == (sk.shrink_count > 0)
        assert np.all(sk.buffer[sk.next_zero_row:] == 0)
        gram = sk.buffer.T @ sk.buffer
        ref_gram = ref.buffer.T @ ref.buffer
        assert (np.linalg.norm(gram - ref_gram)
                <= 1e-9 * np.linalg.norm(ref_gram))
        if ref.buffer.any():
            _assert_gapped_columns_match(sk, ref, k)
    assert sk.shrink_count >= len(rows) // ell


def test_a_tall_sketch_decomposes_its_whole_buffer_for_every_basis():
    # a tall sketch (ell > m) carries factors after a shrink but reads its
    # basis from the full SVD, so buffer and basis equal the reference's bits
    rows, ell = _tall_stream()
    m = rows.shape[1]
    sk, ref = FdSketch(ell, m), FullSvdSketch(ell, m)
    for row in rows:
        sk.insert(row)
        ref.insert(row)
        assert np.array_equal(sk.buffer, ref.buffer)
        assert np.array_equal(sk.basis(m - 1), ref.basis(m - 1))
    assert sk.shrink_count > 0


def _affinity_stream():
    # Gaussian affinity rows are strongly correlated: each new row lies
    # mostly in the span of the carried basis, where a single Gram-Schmidt
    # pass leaves the updated basis measurably non-orthogonal
    pts = synth_uniform(1000, 50, 7).points
    train = TrainSet(pts[:200], estimate_sigma_nn(pts[:200], 30))
    return affinity_matrix(pts, train), 60


@pytest.mark.parametrize("stream", [_wide_stream, _affinity_stream])
def test_only_the_first_shrink_takes_a_full_svd(monkeypatch, stream):
    # after the first shrink, shrinks and basis reads alike update the
    # factorisation the previous shrink carried; a full SVD of the buffer
    # there means the update path was bypassed or rejected, and an ell x m
    # zero-filled array means the buffer was materialised for nothing
    rows, ell = stream()
    m = rows.shape[1]
    sk = FdSketch(ell, m)
    svd, zeros, empty = np.linalg.svd, np.zeros, np.empty
    full, built = [], []

    def counting_svd(a, *args, **kwargs):
        if np.shape(a) == (ell, m):
            full.append(sk.shrink_count)
        return svd(a, *args, **kwargs)

    def counting(make):
        def wrapper(shape, *args, **kwargs):
            if np.array_equal(shape, (ell, m)):
                built.append(sk.shrink_count)
            return make(shape, *args, **kwargs)
        return wrapper

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    monkeypatch.setattr(np, "zeros", counting(zeros))
    monkeypatch.setattr(np, "empty", counting(empty))
    for row in rows:
        sk.insert(row)
        sk.basis(ell // 3)
    assert sk.shrink_count > 500
    # the ell - 1 reads before the first shrink, and that shrink
    assert full == [0] * ell
    assert [c for c in built if c > 0] == []


@pytest.mark.parametrize("stream", [_wide_stream, _affinity_stream])
def test_one_row_shrinks_take_no_svd(monkeypatch, stream):
    # a shrink that folds one new row into the carried factorisation solves
    # its arrowhead core by the secular equation; an SVD of any shape there
    # means the solve fell back
    rows, ell = stream()
    m = rows.shape[1]
    sk = FdSketch(ell, m)
    svd = np.linalg.svd
    calls = []

    def counting_svd(a, *args, **kwargs):
        calls.append(np.shape(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    one_row = 0
    for row in rows:
        folds_one = len(sk._s) == sk.next_zero_row == sk.ell - 1
        shrinks, before = sk.shrink_count, len(calls)
        sk.insert(row)
        if folds_one:
            one_row += 1
            assert sk.shrink_count == shrinks + 1 and calls[before:] == []
    assert one_row > 500


def test_basis_folds_in_rows_inserted_since_the_last_shrink(monkeypatch):
    # three unit rows tie with the ell-th singular value, so the first shrink
    # frees three rows; a read with one row pending folds it into the
    # carried factorisation, while a read or shrink with two or more pending
    # decomposes the whole buffer
    m, ell = 20, 6
    rows = np.vstack([np.eye(m)[:ell] * [[3.0], [2.0], [1.5], [1.0], [1.0], [1.0]],
                      np.random.default_rng(47).standard_normal((3, m))])
    sk, ref = FdSketch(ell, m), FullSvdSketch(ell, m)
    for row in rows[:ell]:
        sk.insert(row)
        ref.insert(row)
    assert sk.next_zero_row == ref.next_zero_row == 3
    svd = np.linalg.svd
    full = []

    def counting_svd(a, *args, **kwargs):
        if np.shape(a) == (ell, m):
            full.append((sk.shrink_count, len(sk._pending)))
        return svd(a, *args, **kwargs)

    for row in rows[ell:]:
        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        sk.insert(row)
        sk.basis(3)
        monkeypatch.setattr(np.linalg, "svd", svd)
        ref.insert(row)
        _assert_gapped_columns_match(sk, ref, 3)
    # the read with two rows pending, then the shrink with three
    assert full == [(1, 2), (1, 3)]
    assert sk.shrink_count == ref.shrink_count == 2


def test_basis_read_right_after_a_shrink_takes_no_svd(monkeypatch):
    # with no row inserted since the last shrink, the carried pair is the
    # buffer's factorisation; decomposing its diagonal core again is waste
    rows, ell = _wide_stream()
    m = rows.shape[1]
    sk, ref = FdSketch(ell, m), FullSvdSketch(ell, m)
    svd = np.linalg.svd
    calls = []

    def counting_svd(a, *args, **kwargs):
        calls.append(np.shape(a))
        return svd(a, *args, **kwargs)

    for row in rows[:5 * ell]:
        shrinks = sk.shrink_count
        sk.insert(row)
        ref.insert(row)
        if sk.shrink_count > shrinks:
            monkeypatch.setattr(np.linalg, "svd", counting_svd)
            sk.basis(ell - 1)
            monkeypatch.setattr(np.linalg, "svd", svd)
            _assert_gapped_columns_match(sk, ref, ell - 1)
    assert sk.shrink_count >= 4 and calls == []


def _unconverged_dlasd4(i, d, z, rho):
    # LAPACK reports that root i did not converge
    delta, sigma, work, _ = dlasd4(i, d, z, rho)
    return delta, sigma, work, 1


def _last_root_on_its_pole_dlasd4(i, d, z, rho):
    # the last root at zero distance from every pole makes each recomputed
    # zhat^2 zero
    delta, sigma, work, info = dlasd4(i, d, z, rho)
    if i == len(d) - 1:
        delta = np.zeros_like(delta)
    return delta, sigma, work, info


@pytest.mark.parametrize("fake, roots_solved", [(_unconverged_dlasd4, "first"),
                                                (_last_root_on_its_pole_dlasd4, "all")])
def test_a_declined_arrowhead_decomposes_the_whole_buffer(monkeypatch, fake, roots_solved):
    # every arrowhead is declined, so each shrink and each read with one row
    # pending falls back to the full SVD of the buffer the reference takes
    m, ell = 20, 6
    rows = np.vstack([np.eye(m)[:ell] * [[3.0], [2.0], [1.5], [1.0], [1.0], [1.0]],
                      np.random.default_rng(47).standard_normal((40, m))])
    solved = []
    monkeypatch.setattr(sketch, "dlasd4", lambda i, d, z, rho: (
        solved.append((i, len(d))) or fake(i, d, z, rho)))
    sk, ref = FdSketch(ell, m), FullSvdSketch(ell, m)
    folded_reads = 0
    for row in rows:
        sk.insert(row)
        ref.insert(row)
        assert np.array_equal(sk.buffer, ref.buffer)
        if sk._vt is not None and len(sk._pending) == 1:
            folded_reads += 1
            calls = len(solved)
            assert np.array_equal(sk.basis(3), ref.basis(3))
            assert len(solved) > calls
    assert folded_reads >= 1 and sk.shrink_count == ref.shrink_count >= 6
    started = sum(i == 0 for i, _ in solved)
    finished = sum(i == n - 1 for i, n in solved)
    assert started > 0
    if roots_solved == "first":
        assert len(solved) == started  # each declined at its first root
    else:
        assert finished == started  # each solved every root, then declined


def test_an_svd_that_does_not_converge_raises_numerical_error(monkeypatch):
    rows, ell = _wide_stream()
    sk = FdSketch(ell, rows.shape[1])
    for row in rows[:ell - 1]:
        sk.insert(row)

    def unconverged(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(np.linalg, "svd", unconverged)
    with pytest.raises(NumericalError, match="SVD failed to converge"):
        sk.basis(3)
    with pytest.raises(NumericalError, match="SVD failed to converge"):
        sk.insert(rows[ell - 1])


def test_shrink_rejects_a_carried_basis_that_lost_orthogonality():
    rows, ell = _wide_stream()
    m = rows.shape[1]
    sk, ref = FdSketch(ell, m), FullSvdSketch(ell, m)
    for row in rows[:ell]:
        sk.insert(row)
        ref.insert(row)
    # stand-in for accumulated rounding drift in the carried factorisation
    sk._vt = sk._vt + 1e-6 * np.random.default_rng(5).standard_normal(
        sk._vt.shape)
    # the carried factors are the sketch's data, so the reference takes the
    # perturbed buffer too
    ref.buffer = sk.buffer
    k = ell - 1
    _assert_gapped_columns_match(sk, ref, k)
    for row in rows[ell:3 * ell]:
        sk.insert(row)
        ref.insert(row)
        _assert_gapped_columns_match(sk, ref, k)
        gram = sk.buffer.T @ sk.buffer
        ref_gram = ref.buffer.T @ ref.buffer
        assert (np.linalg.norm(gram - ref_gram)
                <= 1e-9 * np.linalg.norm(ref_gram))
    assert sk.next_zero_row == ref.next_zero_row


def _tilt_the_last_arrowhead_row(monkeypatch):
    # the fold's true factors, but its last right singular row, the one a
    # shrink annihilates, tilted 1e-6 towards the first
    solve = sketch._arrowhead_svd

    def tilted(s, p, rho):
        sigma, wt = solve(s, p, rho)
        wt = wt.copy()
        wt[-1] += 1e-6 * wt[0]
        return sigma, wt

    monkeypatch.setattr(sketch, "_arrowhead_svd", tilted)


def _counting_svd(monkeypatch):
    svd, calls = np.linalg.svd, []

    def counting(a, *args, **kwargs):
        calls.append(np.shape(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    return calls


def test_a_shrink_guards_the_row_it_annihilates(monkeypatch):
    rows, ell = _wide_stream()
    m = rows.shape[1]
    sk, ref = FdSketch(ell, m), FullSvdSketch(ell, m)
    for row in rows[:2 * ell]:
        sk.insert(row)
        ref.insert(row)
    assert len(sk._s) == sk.next_zero_row == ell - 1
    _tilt_the_last_arrowhead_row(monkeypatch)
    calls = _counting_svd(monkeypatch)
    shrinks = sk.shrink_count
    sk.insert(rows[2 * ell])
    assert sk.shrink_count == shrinks + 1 and calls == [(ell, m)]
    ref.insert(rows[2 * ell])
    gram, ref_gram = sk.buffer.T @ sk.buffer, ref.buffer.T @ ref.buffer
    assert np.linalg.norm(gram - ref_gram) <= 1e-9 * np.linalg.norm(ref_gram)


def test_a_basis_read_guards_only_the_rows_it_reads(monkeypatch):
    # the first shrink frees three rows, so one row pending folds into four
    m, ell = 20, 6
    rows = np.vstack([np.eye(m)[:ell] * [[3.0], [2.0], [1.5], [1.0], [1.0], [1.0]],
                      np.random.default_rng(47).standard_normal((1, m))])
    sk = FdSketch(ell, m)
    for row in rows:
        sk.insert(row)
    assert (len(sk._s), len(sk._pending)) == (3, 1)
    _tilt_the_last_arrowhead_row(monkeypatch)
    calls = _counting_svd(monkeypatch)
    sk.basis(3)
    assert calls == []
    sk.basis(4)
    assert calls == [(ell, m)]


def test_shrink_keeps_fd_guarantee_over_long_stream():
    a, ell = _wide_stream()
    sk = FdSketch(ell, a.shape[1])
    for row in a:
        sk.insert(row)
    assert sk.shrink_count > 500
    diff = a.T @ a - sk.buffer.T @ sk.buffer
    assert np.linalg.norm(diff, 2) <= 2.0 * np.sum(a * a) / ell
    assert np.linalg.eigvalsh(diff).min() >= -1e-9


def test_basis_diagonal_case():
    sk = FdSketch(4, 2)
    sk.insert([2.0, 0.0])
    sk.insert([0.0, 1.0])
    b = sk.basis(1)
    assert b.shape == (2, 1)
    assert np.allclose(np.abs(b[:, 0]), [1.0, 0.0], atol=1e-12)


def test_basis_full_width_is_orthonormal():
    rng = np.random.default_rng(23)
    sk = FdSketch(3, 5)
    for row in rng.standard_normal((2, 5)):
        sk.insert(row)
    v = sk.basis(3)
    assert np.allclose(v.T @ v, np.eye(3), atol=1e-8)
    # one direction survives a shrink and one row follows it: the columns
    # past those two complete the basis and carry no data
    sk = FdSketch(4, 6)
    for row in np.eye(6)[:4] * [[2.0], [1.0], [1.0], [1.0]]:
        sk.insert(row)
    row = rng.standard_normal(6)
    sk.insert(row)
    assert sk.next_zero_row == 2
    v = sk.basis(4)
    assert np.allclose(v.T @ v, np.eye(4), atol=1e-12)
    assert np.allclose(np.vstack([np.eye(6)[0], row]) @ v[:, 2:], 0.0, atol=1e-12)


def test_basis_matches_dense_svd():
    rng = np.random.default_rng(29)
    rows = rng.standard_normal((5, 4))
    sk = FdSketch(6, 4)
    for row in rows:
        sk.insert(row)
    v = sk.basis(2)
    _, _, vt = np.linalg.svd(rows)
    for j in range(2):
        assert abs(abs(v[:, j] @ vt[j]) - 1.0) < 1e-9


def test_basis_errors():
    sk = FdSketch(3, 5)
    with pytest.raises(NumericalError):
        sk.basis(1)
    sk.insert(np.ones(5))
    with pytest.raises(ParameterError):
        sk.basis(4)
    small = FdSketch(4, 2)
    small.insert([1.0, 2.0])
    with pytest.raises(ParameterError):
        small.basis(3)


def test_basis_of_an_annihilated_sketch_raises():
    # four tied unit rows shrink to nothing; a zero row inserted after that
    # is held but carries no data, so the sketch is still empty
    sk = FdSketch(4, 6)
    for row in np.eye(6)[:4]:
        sk.insert(row)
    assert sk.shrink_count == 1 and sk.next_zero_row == 0
    sk.insert(np.zeros(6))
    assert sk.next_zero_row == 1
    with pytest.raises(NumericalError):
        sk.basis(2)
    sk.insert(np.eye(6)[5])
    assert np.allclose(np.abs(sk.basis(1)[:, 0]), np.eye(6)[5])


def test_buffer_is_read_only_and_built_from_the_state():
    # singular values (2, 1, 1, 1) shrink to (sqrt(3), 0, 0, 0): one row is
    # carried, and the next two rows are held as inserted
    sk = FdSketch(4, 6)
    rows = np.random.default_rng(53).standard_normal((2, 6))
    for row in np.eye(6)[:4] * [[2.0], [1.0], [1.0], [1.0]]:
        sk.insert(row)
    for row in rows:
        sk.insert(row)
    assert sk.shrink_count == 1 and sk.next_zero_row == 3
    buf = sk.buffer
    assert np.allclose(np.abs(buf[0]), np.sqrt(3.0) * np.eye(6)[0], atol=1e-12)
    assert np.array_equal(buf[1:3], rows)
    assert np.all(buf[3] == 0)
    # neither the caller's rows nor the returned array alias the state
    kept = rows.copy()
    buf[1] = 0.0
    rows[0] = 0.0
    assert np.array_equal(sk.buffer[1:3], kept)
    with pytest.raises(AttributeError):
        sk.buffer = np.zeros((4, 6))
