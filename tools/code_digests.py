"""Print digests of the codes and final sketch of fixed SSBC runs.

One line per run: the sha256 of its codes, the sketch's shrink_count and
next_zero_row, and the sha256 of the final sketch buffer. Two checkouts
that print the same lines give bit-identical codes and sketches on these
runs. The runs share acceptance criterion 5's data: synth_uniform points
(d=50) split into 500 training and 2000 test points, data and split both
seeded by the run's seed.

* batch: ssbc_encode_batch on criterion 5's 20 cells, seeds 1000-1004 and
  k = 20, 30, 40, 50;
* online: ssbc_process_online over the test points at k=30, seeds 1000, 1
  and 3.

Run it against each checkout's sources and compare:

    PYTHONPATH=src python tools/code_digests.py > after.txt
    PYTHONPATH=../parent/src python tools/code_digests.py > before.txt
    diff before.txt after.txt
"""

import hashlib

import numpy as np

from ssbc import (SsbcParams, TrainSet, estimate_sigma_nn, ssbc_encode_batch,
                  ssbc_process_online, ssbc_train)
from ssbc.data import synth_uniform


def _split(seed):
    pts = synth_uniform(2500, 50, seed).points
    perm = np.random.default_rng(seed).permutation(2500)
    train = pts[perm[:500]]
    return TrainSet(train, estimate_sigma_nn(train, 30)), pts[perm[500:]]


def _sha(a):
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()


def _report(label, codes, sketch):
    print("%s codes=%s shrink_count=%d next_zero_row=%d buffer=%s"
          % (label, _sha(codes), sketch.shrink_count, sketch.next_zero_row,
             _sha(sketch.buffer)), flush=True)


def main():
    for seed in range(1000, 1005):
        train, test = _split(seed)
        for k in (20, 30, 40, 50):
            model = ssbc_train(train, SsbcParams(k, 0.5))
            codes = ssbc_encode_batch(model, test)
            _report("batch seed=%d k=%d" % (seed, k), codes, model.sketch)
    for seed in (1000, 1, 3):
        train, test = _split(seed)
        model = ssbc_train(train, SsbcParams(30, 0.5))
        codes = np.stack([ssbc_process_online(model, p) for p in test])
        _report("online seed=%d k=30" % seed, codes, model.sketch)


if __name__ == "__main__":
    main()
