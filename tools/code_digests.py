"""Print digests of the codes, final sketch and evaluation of fixed runs.

One line per run. Two checkouts that print the same lines give
bit-identical codes, sketches, ground truths and evaluation reports on
these runs. The SSBC runs share acceptance criterion 5's data:
synth_uniform points (d=50) split into 500 training and 2000 test points,
data and split both seeded by the run's seed, and sigma estimated as
sigma_nn30 on the training points.

* batch: ssbc_encode_batch on criterion 5's 20 cells, seeds 1000-1004 and
  k = 20, 30, 40, 50: the sha256 of the codes, the sketch's shrink_count
  and next_zero_row, and the sha256 of the final sketch buffer;
* truth: per seed, the sha256 of the ground-truth sets of the test points
  (threshold sigma, self excluded);
* eval: per cell, the sha256 of the JSON of evaluate_retrieval(...).to_dict()
  at radius floor(k/4), as criterion 5 calls it;
* online: ssbc_process_online over the test points at k=30, seeds 1000, 1
  and 3, with the same fields as batch;
* lsh: LSH codes at k=32 of 10 000 test points (the same split with 10 500
  points, seed 1000), with the truth and report digests;
* sigma: per seed 1000-1004, estimate_sigma_nn (t = 30) and
  estimate_sigma_all of the training points, as hex floats;
* include-train: `ssbc run --include-train` codes at seed 1000 and k = 30
  for ssbc_streaming and ssbc_online, computed by cli._encode: the sha256
  of the test codes and of the training points' codes;
* theory: `theory_spectral_check` (m = 100, ell = 20) at seeds 0-2 and
  exhaustive, then `column_norm_diagnostic`, on synth_uniform(500, 50, 0)
  with sigma_nn30, as hex floats;
* exact: `exact_codes` at n = 300 (synth_uniform(300, 50, 0), sigma_nn30)
  and k = 20, deterministic and randomized (seed 0): the sha256 of the
  codes and of the eigenvalues.

A ground truth's digest hashes its sets as int64, so it does not depend
on the integer type that holds them.

Run it against each checkout's sources and compare:

    PYTHONPATH=src python tools/code_digests.py > after.txt
    PYTHONPATH=../parent/src python tools/code_digests.py > before.txt
    diff before.txt after.txt
"""

import argparse
import hashlib
import json

import numpy as np

from ssbc import (SsbcParams, TrainSet, column_norm_diagnostic, estimate_sigma_all,
                  estimate_sigma_nn, evaluate_retrieval, exact_codes, ground_truth,
                  lsh_encode_batch, lsh_train, ssbc_encode_batch, ssbc_process_online,
                  ssbc_train, theory_spectral_check)
from ssbc import cli
from ssbc.data import synth_uniform


def _split(seed, n=2500):
    pts = synth_uniform(n, 50, seed).points
    perm = np.random.default_rng(seed).permutation(n)
    train = pts[perm[:500]]
    return TrainSet(train, estimate_sigma_nn(train, 30)), pts[perm[500:]]


def _sha(a):
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()


def _truth_sha(truth):
    sets = [np.asarray(s, dtype=np.int64) for s in truth.similar]
    return _sha(np.concatenate([np.array([len(s) for s in sets], dtype=np.int64)]
                               + sets))


def _report_sha(report):
    text = json.dumps(report.to_dict(), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def _report(label, codes, sketch):
    print("%s codes=%s shrink_count=%d next_zero_row=%d buffer=%s"
          % (label, _sha(codes), sketch.shrink_count, sketch.next_zero_row,
             _sha(sketch.buffer)), flush=True)


def main():
    for seed in range(1000, 1005):
        train, test = _split(seed)
        truth = ground_truth(test, test, train.sigma)
        print("truth seed=%d sets=%s" % (seed, _truth_sha(truth)), flush=True)
        for k in (20, 30, 40, 50):
            model = ssbc_train(train, SsbcParams(k, 0.5))
            codes = ssbc_encode_batch(model, test)
            _report("batch seed=%d k=%d" % (seed, k), codes, model.sketch)
            report = evaluate_retrieval("ssbc_streaming", codes, codes, truth, k // 4)
            print("eval seed=%d k=%d report=%s" % (seed, k, _report_sha(report)),
                  flush=True)
    for seed in (1000, 1, 3):
        train, test = _split(seed)
        model = ssbc_train(train, SsbcParams(30, 0.5))
        codes = np.stack([ssbc_process_online(model, p) for p in test])
        _report("online seed=%d k=30" % seed, codes, model.sketch)
    train, test = _split(1000, 10500)
    truth = ground_truth(test, test, train.sigma)
    codes = lsh_encode_batch(lsh_train(50, 32, 1000), test)
    report = evaluate_retrieval("lsh", codes, codes, truth)
    print("lsh n=10000 k=32 truth=%s report=%s" % (_truth_sha(truth), _report_sha(report)),
          flush=True)
    for seed in range(1000, 1005):
        train, _ = _split(seed)
        print("sigma seed=%d nn30=%s all=%s"
              % (seed, estimate_sigma_nn(train.points, 30).hex(),
                 estimate_sigma_all(train.points).hex()), flush=True)
    train, test = _split(1000)
    for method in ("ssbc_streaming", "ssbc_online"):
        args = argparse.Namespace(method=method, k=30, epsilon=0.5, seed=1000,
                                  exact_guard=5000)
        test_codes, train_codes = cli._encode(args, train, test, True)
        print("include-train seed=1000 k=30 method=%s test=%s train=%s"
              % (method, _sha(test_codes), _sha(train_codes)), flush=True)
    pts = synth_uniform(500, 50, 0).points
    sigma = estimate_sigma_nn(pts, 30)
    runs = [theory_spectral_check(pts, 100, 20, seed, sigma) for seed in range(3)]
    runs.append(theory_spectral_check(pts, 100, 20, 0, sigma, exhaustive=True))
    errs = ["%s,%s,%s,%s,%s" % (r["errW2"].hex(), r["errHat"].hex(), r["errTilde"].hex(),
                                r["frobW"].hex(), r["degenerate"]) for r in runs]
    cols = column_norm_diagnostic(pts, sigma)
    print("theory n=500 sigma=%s seeds0-2,exhaustive=%s cols=%s,%s,%s"
          % (sigma.hex(), ";".join(errs), cols["cmax"].hex(), cols["cmin"].hex(),
             cols["ratio"].hex()), flush=True)
    pts = synth_uniform(300, 50, 0).points
    sigma = estimate_sigma_nn(pts, 30)
    fields = []
    for mode in ("deterministic", "randomized"):
        out = exact_codes(pts, 20, sigma, mode=mode, seed=0)
        fields.append("%s=%s,%s" % (mode, _sha(out.codes), _sha(out.eigenvalues)))
    print("exact n=300 k=20 %s" % " ".join(fields), flush=True)


if __name__ == "__main__":
    main()
