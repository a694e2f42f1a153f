"""Each benchmark check passes on ssbc's output and fails on a corrupted copy.

Run from the root of the checkout: python3 -m pytest -q perfbench
"""

import math
import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "src"))

import checks  # noqa: E402
from ssbc import (TrainSet, SsbcParams, estimate_sigma_nn, evaluate_retrieval,  # noqa: E402
                  formats, ground_truth, hamming_matrix, lsh_encode_batch, lsh_train,
                  mean_average_precision, rank_by_hamming, split, SplitSpec,
                  ssbc_encode_batch, ssbc_train, synth_uniform)

K = 10


@pytest.fixture(scope="module")
def run():
    """A small stream-batch round: 150 train / 300 test points, k = 10."""
    ds = synth_uniform(450, 50, 7)
    train, test = split(ds, SplitSpec(150, 300, 7))
    sigma = estimate_sigma_nn(train.points, 30)
    model = ssbc_train(TrainSet(train.points, sigma), SsbcParams(K, 0.5))
    codes = ssbc_encode_batch(model, test.points)
    truth = ground_truth(test.points, test.points, sigma)
    report = evaluate_retrieval("ssbc_streaming", codes, codes, truth, K // 4)
    rows = checks.affinity_rows(np.vstack([train.points, test.points]), train.points, sigma)
    return {"test": test.points, "sigma": sigma, "sketch": model.sketch,
            "codes": codes, "truth": truth.similar, "report": report,
            "rows": rows, "test_rows": rows[150:]}


def settled_bit(run):
    """The test bit whose projection is farthest from 0."""
    ref, _, _ = checks.reference_basis(run["sketch"].buffer, K)
    proj = np.abs(run["test_rows"] @ ref)
    return np.unravel_index(np.argmax(proj), proj.shape)


def test_fd_check(run):
    buf = run["sketch"].buffer
    problems, ratio = checks.check_fd(run["rows"], buf)
    assert problems == [] and 0 < ratio < 1
    assert checks.check_fd(run["rows"], buf[1:])[0], "buffer missing a row"
    assert checks.check_fd(run["rows"], 1.01 * buf)[0], "B^T B above A^T A"


def test_basis_check(run):
    sketch = run["sketch"]
    basis = sketch.basis(K)
    assert checks.check_basis(sketch.buffer, basis, K) == []
    assert checks.check_basis(sketch.buffer, basis[:, [1, 0] + list(range(2, K))], K)
    assert checks.check_basis(sketch.buffer, 1.001 * basis, K)
    assert checks.check_basis(sketch.buffer[1:], basis, K), "buffer missing a row"


def test_codes_check(run):
    buf = run["sketch"].buffer
    assert checks.check_codes(run["codes"], run["test_rows"], buf, K) == ([], 0)
    flipped = run["codes"].copy()
    flipped[settled_bit(run)] *= -1
    problems, bad = checks.check_codes(flipped, run["test_rows"], buf, K)
    assert problems and bad == 1
    problems, bad = checks.check_codes(run["codes"], run["test_rows"], buf[1:], K)
    assert problems and bad > 0, "buffer missing a row"


def test_signs_check(run):
    model = lsh_train(50, K, 3)
    codes = lsh_encode_batch(model, run["test"])
    assert checks.check_signs(codes, run["test"], model.projections, "lsh") == ([], 0)
    proj = np.abs(run["test"] @ model.projections)
    flipped = codes.copy()
    flipped[np.unravel_index(np.argmax(proj), proj.shape)] *= -1
    problems, bad = checks.check_signs(flipped, run["test"], model.projections, "lsh")
    assert problems and bad == 1


def test_truth_check(run):
    ref, unsure = checks.truth_sets(run["test"], run["sigma"])
    assert checks.check_truth(run["truth"], ref, unsure) == []
    i = next(i for i, s in enumerate(run["truth"]) if len(s))
    dropped = list(run["truth"])
    dropped[i] = dropped[i][1:]
    assert checks.check_truth(dropped, ref, unsure)
    added = list(run["truth"])
    added[i] = np.union1d(added[i], [j for j in range(len(added)) if j != i
                                     and j not in set(added[i])][:1])
    assert checks.check_truth(added, ref, unsure)


def test_hamming_check(run):
    codes = run["codes"]
    ham = hamming_matrix(codes[:50], codes)
    assert checks.check_hamming(ham, codes[:50], codes) == []
    ham[3, 7] += 1
    assert checks.check_hamming(ham, codes[:50], codes)


def test_report_check(run):
    figures = checks.retrieval_figures(run["codes"], run["truth"], K // 4)
    assert checks.check_report(run["report"], figures) == []
    flipped = run["codes"].copy()
    flipped[settled_bit(run)] *= -1
    figures_flipped = checks.retrieval_figures(flipped, run["truth"], K // 4)
    assert checks.check_report(run["report"], figures_flipped), "one code bit flipped"


def test_shuffled_ranking_changes_map(run):
    rng = np.random.default_rng(0)
    ranked = rank_by_hamming(run["codes"], run["codes"])
    shuffled = [rng.permutation(order) for order in ranked]
    figures = checks.retrieval_figures(run["codes"], run["truth"], K // 4)
    assert checks._close(mean_average_precision(ranked, run["truth"]), figures["map"])
    assert not checks._close(mean_average_precision(shuffled, run["truth"]), figures["map"])


def test_full_radius_check(run):
    n = len(run["truth"])
    assert checks.check_full_radius(run["report"], run["truth"], n) == []
    i = next(i for i, s in enumerate(run["truth"]) if len(s))
    dropped = list(run["truth"])
    dropped[i] = dropped[i][1:]
    assert checks.check_full_radius(run["report"], dropped, n)


def test_beats_check(run):
    ours = {"map": 0.5, "precision": 0.9}
    theirs = {"map": 0.1, "precision": 0.3}
    assert checks.check_beats(ours, theirs, "x") == []
    assert checks.check_beats(theirs, ours, "x")
    assert checks.check_beats(ours, {"map": 0.1, "precision": 0.9}, "x")


def test_output_file_checks(run, tmp_path):
    path = str(tmp_path / "out.codes")
    formats.write_codes(path, run["codes"], "ssbc_streaming")
    assert checks.check_codes_file(path, run["codes"]) == []
    with open(path) as handle:
        lines = handle.read().splitlines()
    lines[5] = ("-" if lines[5][0] == "+" else "+") + lines[5][1:]
    with open(path, "w") as handle:
        handle.write("\n".join(lines) + "\n")
    assert checks.check_codes_file(path, run["codes"])

    report_path = str(tmp_path / "out.report.json")
    formats.write_json(report_path, formats.report_payload([run["report"]], {}))
    assert checks.check_report_json(report_path, run["report"]) == []
    run["report"].map, saved = math.nextafter(run["report"].map, 2.0), run["report"].map
    try:
        assert checks.check_report_json(report_path, run["report"])
    finally:
        run["report"].map = saved


def test_metric_names_match_benchmark_json():
    """run.py prints exactly the metrics BENCHMARK.json declares, with its units."""
    import json

    import run as bench
    from spans import Tracer

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json")) as handle:
        spec = json.load(handle)

    class Report:
        map = precision = 0.5

    class Wl:
        n_test = 10
        fd_ratio = 0.0

    rounds = [{"pipeline_s": 1.0, "rows": 10, "encode_s": 1.0, "eval_s": 1.0,
               "report": Report()}]
    for printed, declared in ((bench.end_to_end(Wl, [1.0], rounds, 1.0), spec["end_to_end"]),
                              (bench.per_layer(Wl, Tracer(), 1, rounds), spec["per_layer"])):
        assert {name: unit for name, (_, unit) in printed.items()} == \
            {m["name"]: m["unit"] for m in declared}
