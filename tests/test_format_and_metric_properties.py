"""Properties of the codes file format and the retrieval metrics on drawn inputs.

Codes files must round-trip every code length, including lengths that are
not a multiple of 8 (the hex encoding pads the last byte). pr_curve and
evaluate_retrieval must agree exactly with the per-radius oracle
precision_recall(retrieve_hamming(...)) and with MAP over rank_by_hamming,
with and without self-exclusion; small k makes Hamming ties common.
"""

import math

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ssbc import (evaluate_retrieval, mean_average_precision, pr_curve,
                  precision_recall, rank_by_hamming, retrieve_hamming)
from ssbc.evaluation import GroundTruth
from ssbc.formats import read_codes, write_codes


def _signs(bits):
    return np.where(bits, 1, -1).astype(np.int8)


@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data(), st.booleans())
def test_codes_round_trip_every_length(tmp_path, data, packed):
    path = tmp_path / "c.codes"
    for k in range(1, 71):
        count = data.draw(st.integers(0, 4), label="count")
        codes = _signs(data.draw(arrays(np.bool_, (count, k)), label="bits"))
        write_codes(path, codes, "lsh", config={"k": k}, packed=packed)
        back, meta = read_codes(path)
        assert back.dtype == np.int8 and np.array_equal(back, codes)
        assert (meta["k"], meta["count"]) == (k, count)
        assert meta["encoding"] == ("hex" if packed else "signs")
        assert meta["config"] == {"k": k}
        width = 2 * math.ceil(k / 8) if packed else k
        assert all(len(line) == width
                   for line in path.read_text().splitlines()[2:])


@st.composite
def retrieval_cases(draw):
    k = draw(st.integers(1, 8))
    n_q = draw(st.integers(1, 7))
    codes_q = _signs(draw(arrays(np.bool_, (n_q, k))))
    if draw(st.booleans()):
        codes_b = codes_q.copy()
    else:
        codes_b = _signs(draw(arrays(np.bool_, (draw(st.integers(1, 7)), k))))
    n_b = len(codes_b)
    truth = [np.array(sorted(draw(st.sets(st.integers(0, n_b - 1)))), dtype=np.int64)
             for _ in range(n_q)]
    return codes_q, codes_b, truth


@settings(max_examples=300, deadline=None)
@given(retrieval_cases())
def test_pr_curve_and_evaluation_match_the_per_radius_oracle(case):
    codes_q, codes_b, truth = case
    k = codes_q.shape[1]
    curve = pr_curve(codes_q, codes_b, truth)
    assert len(curve) == k + 1
    for r in range(k + 1):
        returned = retrieve_hamming(codes_q, codes_b, r)
        assert curve[r] == precision_recall(returned, truth)
    ranked = rank_by_hamming(codes_q, codes_b)
    gt = GroundTruth(truth, 1.0)
    report = evaluate_retrieval("drawn", codes_q, codes_b, gt)
    assert report.pr_curve == curve
    assert report.map == mean_average_precision(ranked, truth)
