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
* include-train: `ssbc run --include-train` codes at seed 1000, k = 30
  for ssbc_streaming and ssbc_online and k = 32 for lsh, computed by
  cli._encode: the sha256 of the test codes and of the training points'
  codes;
* theory: `theory_spectral_check` (m = 100, ell = 20) at seeds 0-2 and
  exhaustive, then `column_norm_diagnostic`, on synth_uniform(500, 50, 0)
  with sigma_nn30, as hex floats;
* exact: `exact_codes` at n = 300, k = 20 and at n = 2000, k = 32
  (synth_uniform(n, 50, 0), sigma_nn30), deterministic and randomized
  (seed 0): the sha256 of the codes and of the eigenvalues;
* asym: the truth of the seed-1000 test points against its training points
  (no self-exclusion), and the report of the test points' LSH codes (k=32)
  against the training points' codes;
* far: the truth of the seed-1000 test points shifted by 1e6 in every
  coordinate, where the Gram form cancels most digits and every candidate
  pair goes to cdist, and the report of the unshifted points' LSH codes
  (k=32) against it;
* wide: synth_uniform(6000, 10, 21), the first 3000 points training at
  sigma_nn30 and k = 5 and the other 3000 encoded by ssbc_encode_batch, a
  shape where blocks of affinity and distance rows are held to 2**18
  pairs: the sha256 of the codes and of the final buffer, and
  estimate_sigma_nn (t = 30) and estimate_sigma_all of the training
  points as hex floats;
* tall: synth_uniform(2100, 50, 1000) split as above into 100 training
  and 2000 test points, trained at k = 50, so ell = 150 exceeds the
  affinity width m = 100, and the test points encoded by
  ssbc_encode_batch: the sha256 of the codes, the shrink_count and the
  sha256 of the final buffer;
* cli: 13 `ssbc` commands run by cli.main in an empty temporary directory
  with relative paths, so no absolute path enters a config echo: synth,
  run with each of the five methods, run with --include-train --packed,
  run on the synthesized CSV with --zscore --sigma-mode all, run at a
  sigma so small that it fails, three sweeps (one completed, one aborted
  by --exact-guard, one whose ground truth fails) and theory-check. It
  prints their exit codes, the number of files they leave other than the
  .timings.json sidecars, and one sha256 over those files' names and
  bytes;
* cli-portable: the same sha256 without the .theory.json files, whose
  floats depend on the BLAS kernel; the other files printed the same
  under every OpenBLAS kernel tried;
* lossy: the seed-1000 split trained and encoded by ssbc_encode_batch at
  k = 30, epsilon = 1.0 (ell = 60) and a sigma of sigma_nn30 / 16, where
  the shrinks discard enough mass that the codes differ from the exact
  ones in some bits: the sha256 of
  the codes, the shrink_count, the shrinkage as a hex float and the
  sha256 of the final buffer.

A ground truth's digest hashes its sets as int64, so it does not depend
on the integer type that holds them.

Run it against each checkout's sources and compare:

    PYTHONPATH=src python tools/code_digests.py > after.txt
    PYTHONPATH=../parent/src python tools/code_digests.py > before.txt
    diff before.txt after.txt
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import tempfile

import numpy as np

from ssbc import (SsbcParams, TrainSet, column_norm_diagnostic, estimate_sigma_all,
                  estimate_sigma_nn, evaluate_retrieval, exact_codes, ground_truth,
                  lsh_encode_batch, lsh_train, ssbc_encode_batch, ssbc_process_online,
                  ssbc_train, theory_spectral_check)
from ssbc import cli
from ssbc.data import synth_uniform


def _split(seed, n=2500, n_train=500):
    pts = synth_uniform(n, 50, seed).points
    perm = np.random.default_rng(seed).permutation(n)
    train = pts[perm[:n_train]]
    return TrainSet(train, estimate_sigma_nn(train, 30)), pts[perm[n_train:]]


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


CLI_RUN = ["run", "--uniform", "400", "--dim", "8", "--train", "100", "--test", "300",
           "--k", "12", "--seed", "5"]
CLI_SWEEP = ["sweep", "--uniform", "300", "--dim", "6", "--train", "100",
             "--test", "200", "--seed", "2", "--k-list", "8,12"]
CLI_COMMANDS = (
    ["synth", "--n", "300", "--d", "8", "--seed", "3", "--out", "u.csv"],
    *(CLI_RUN + ["--method", method, "--out-prefix", method]
      for method in ("ssbc_online", "ssbc_streaming", "lsh", "exact_d", "exact_r")),
    CLI_RUN + ["--include-train", "--packed", "--out-prefix", "packed"],
    ["run", "--data", "u.csv", "--zscore", "--sigma-mode", "all", "--train", "100",
     "--test", "200", "--k", "10", "--out-prefix", "csv"],
    ["run", "--uniform", "300", "--dim", "10", "--train", "60", "--test", "100",
     "--k", "4", "--method", "ssbc_online", "--sigma-mode", "fixed",
     "--sigma-value", "1e-6", "--out-prefix", "zero"],
    CLI_SWEEP + ["--methods", "ssbc_streaming,lsh", "--out-prefix", "sweep"],
    CLI_SWEEP + ["--methods", "lsh,exact_d", "--exact-guard", "5",
                 "--out-prefix", "guarded"],
    CLI_SWEEP + ["--methods", "lsh", "--truth-threshold", "0", "--out-prefix", "truth"],
    ["theory-check", "--uniform", "150", "--dim", "6", "--m", "30", "--ell", "10",
     "--seeds", "3", "--out-prefix", "theory"],
)


def _cli_line():
    start = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                exits = [cli.main(argv) for argv in CLI_COMMANDS]
        finally:
            os.chdir(start)
        names = sorted(name for name in os.listdir(tmp)
                       if not name.endswith(".timings.json"))
        digest = hashlib.sha256()
        portable = hashlib.sha256()
        for name in names:
            with open(os.path.join(tmp, name), "rb") as handle:
                entry = name.encode() + b"\0" + handle.read() + b"\0"
            digest.update(entry)
            if not name.endswith(".theory.json"):
                portable.update(entry)
    print("cli commands=%d exits=%s files=%d sha256=%s"
          % (len(exits), ",".join(map(str, exits)), len(names), digest.hexdigest()),
          flush=True)
    print("cli-portable files=%d sha256=%s"
          % (sum(not name.endswith(".theory.json") for name in names),
             portable.hexdigest()), flush=True)


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
    for method, k in (("ssbc_streaming", 30), ("ssbc_online", 30), ("lsh", 32)):
        args = argparse.Namespace(method=method, k=k, epsilon=0.5, seed=1000,
                                  exact_guard=5000)
        test_codes, train_codes = cli._encode(args, train, test, True)
        print("include-train seed=1000 k=%d method=%s test=%s train=%s"
              % (k, method, _sha(test_codes), _sha(train_codes)), flush=True)
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
    for n, k in ((300, 20), (2000, 32)):
        pts = synth_uniform(n, 50, 0).points
        sigma = estimate_sigma_nn(pts, 30)
        fields = []
        for mode in ("deterministic", "randomized"):
            out = exact_codes(pts, k, sigma, mode=mode, seed=0)
            fields.append("%s=%s,%s" % (mode, _sha(out.codes), _sha(out.eigenvalues)))
        print("exact n=%d k=%d %s" % (n, k, " ".join(fields)), flush=True)
    train, test = _split(1000)
    model = lsh_train(50, 32, 1000)
    codes = lsh_encode_batch(model, test)
    truth = ground_truth(test, train.points, train.sigma)
    report = evaluate_retrieval("lsh", codes, lsh_encode_batch(model, train.points), truth)
    print("asym seed=1000 k=32 truth=%s report=%s" % (_truth_sha(truth), _report_sha(report)),
          flush=True)
    truth = ground_truth(test + 1e6, test + 1e6, train.sigma)
    report = evaluate_retrieval("lsh", codes, codes, truth)
    print("far seed=1000 shift=1e6 k=32 truth=%s report=%s"
          % (_truth_sha(truth), _report_sha(report)), flush=True)
    pts = synth_uniform(6000, 10, 21).points
    train = TrainSet(pts[:3000], estimate_sigma_nn(pts[:3000], 30))
    model = ssbc_train(train, SsbcParams(5, 0.5))
    codes = ssbc_encode_batch(model, pts[3000:])
    print("wide m=3000 n=3000 k=5 codes=%s buffer=%s nn30=%s all=%s"
          % (_sha(codes), _sha(model.sketch.buffer), train.sigma.hex(),
             estimate_sigma_all(train.points).hex()), flush=True)
    train, test = _split(1000, 2100, 100)
    model = ssbc_train(train, SsbcParams(50, 0.5))
    codes = ssbc_encode_batch(model, test)
    print("tall m=100 ell=%d n=2000 k=50 codes=%s shrink_count=%d buffer=%s"
          % (model.sketch.ell, _sha(codes), model.sketch.shrink_count,
             _sha(model.sketch.buffer)), flush=True)
    _cli_line()
    train, test = _split(1000)
    model = ssbc_train(TrainSet(train.points, train.sigma / 16), SsbcParams(30, 1.0))
    codes = ssbc_encode_batch(model, test)
    print("lossy seed=1000 sigma=nn30/16 k=30 ell=%d codes=%s shrink_count=%d "
          "shrinkage=%s buffer=%s"
          % (model.sketch.ell, _sha(codes), model.sketch.shrink_count,
             model.sketch.shrinkage.hex(), _sha(model.sketch.buffer)), flush=True)


if __name__ == "__main__":
    main()
