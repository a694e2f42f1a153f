"""The three workloads: what each sets up, runs in one round, and checks.

Every workload draws synth_uniform points (d = 50) from the run's seed,
splits them with the same seed, and estimates sigma as sigma_nn30 on the
training split, as `ssbc run --uniform N --seed S` does. A round is the
whole user-facing pass of the workload and always does the same
operations; run.py repeats rounds until the run's seconds are used.

The round functions call ssbc only through module attributes
(``enc.ssbc_train``), so that a traced run sees every call. The checks run
after the last round, with tracing removed, outside every timed interval.
Every output a round produces is checked, including those of calls that
are repeated only to time them; each checked call is one operation.
"""

import copy
import os
import statistics
import time

import numpy as np

import checks

DIM = 50
NN = 30


class Prepared:
    """Train and test points, sigma and the TrainSet built from them."""

    def __init__(self, train, test, sigma, train_set):
        self.train = train
        self.test = test
        self.sigma = sigma
        self.train_set = train_set
        self.model = None


class Workload:
    """Set-up, one round, and the checks of one workload."""

    # set-up takes milliseconds, so it is timed this many times
    setups = 9
    # ground truth and evaluation take about a second on 2000 points, and
    # single timings of that length spread by a third on a shared 2-core
    # host, so they are timed this many times
    eval_repeats = 9

    def __init__(self, ssbc, seed, out_dir):
        self.ssbc = ssbc
        self.seed = seed
        self.out_dir = out_dir
        self.prep = None
        self.fd_ratio = 0.0
        self._truth = None

    def prepare(self):
        data, aff = self.ssbc.data, self.ssbc.affinity
        ds = data.synth_uniform(self.n_train + self.n_test, DIM, self.seed)
        train, test = data.split(ds, data.SplitSpec(self.n_train, self.n_test, self.seed))
        sigma = aff.estimate_sigma_nn(train.points, NN)
        return Prepared(train.points, test.points, sigma,
                        aff.TrainSet(train.points, sigma))

    def setup(self):
        self.prep = self.prepare()

    def evaluate_and_write(self, codes, index):
        """ground_truth and evaluate_retrieval, eval_repeats times, then the
        `ssbc run` output files. Returns the round's result so far."""
        ev, fmt = self.ssbc.evaluation, self.ssbc.formats
        test, sigma, k = self.prep.test, self.prep.sigma, self.k
        config = {"workload": self.name, "method": self.method, "k": k,
                  "seed": self.seed, "resolved_sigma": sigma, "radius": k // 4}
        prefix = os.path.join(self.out_dir, "%s_round%d" % (self.name, index))
        times, evals = [], []
        for _ in range(self.eval_repeats):
            t0 = time.perf_counter()
            truth = ev.ground_truth(test, test, sigma, threshold=sigma)
            report = ev.evaluate_retrieval(self.method, codes, codes, truth, k // 4,
                                           params=config)
            times.append(time.perf_counter() - t0)
            evals.append((truth.similar, report))
        t1 = time.perf_counter()
        fmt.write_codes(prefix + ".codes", codes, self.method, config=config)
        fmt.write_json(prefix + ".report.json", fmt.report_payload([report], config))
        fmt.write_reports_csv(prefix + ".report.csv", [report], config)
        return {"eval_s": statistics.median(times), "write_s": time.perf_counter() - t1,
                "codes": codes, "evals": evals, "report": report, "prefix": prefix}

    def finish(self, res, encode_s, rows):
        res["encode_s"] = encode_s
        res["rows"] = rows
        res["pipeline_s"] = encode_s + res["eval_s"] + res["write_s"]
        return res

    def check_evaluation(self, res):
        """Ground truth and report of every evaluation repeat, and the output
        files. Returns (problems, failed operations)."""
        ref, unsure = self.reference_truth()
        problems, failed = [], 0
        figures = None
        for similar, report in res["evals"]:
            truth_problems = checks.check_truth(similar, ref, unsure)
            # where the reference is unsure ssbc's verdict stands; elsewhere
            # the two were just found equal
            truth = similar if not truth_problems else ref
            if figures is None:
                figures = checks.retrieval_figures(res["codes"], truth, self.k // 4)
                extra = self.check_figures(res, figures, truth)
            eval_problems = checks.check_report(report, figures) + extra
            problems += truth_problems + eval_problems
            failed += bool(truth_problems) + bool(eval_problems)
        write_problems = (checks.check_codes_file(res["prefix"] + ".codes", res["codes"])
                          + checks.check_report_json(res["prefix"] + ".report.json",
                                                     res["report"]))
        return problems + write_problems, failed + bool(write_problems)

    def check_figures(self, res, figures, truth):
        """Workload-specific checks of the recomputed figures."""
        return []

    def reference_truth(self):
        if self._truth is None:
            self._truth = checks.truth_sets(self.prep.test, self.prep.sigma)
        return self._truth

    def stream_rows(self):
        """The benchmark's own affinity rows of every point the sketch saw."""
        prep = self.prep
        return checks.affinity_rows(np.vstack([prep.train, prep.test]), prep.train,
                                    prep.sigma)


class StreamBatch(Workload):
    """`ssbc run --method ssbc_streaming` at the criterion-5 shape."""

    name = "stream-batch"
    method = "ssbc_streaming"
    n_train, n_test, k, epsilon = 500, 2000, 50, 0.5

    def round(self, index):
        enc = self.ssbc.encoder
        params = enc.SsbcParams(self.k, self.epsilon)
        t0 = time.perf_counter()
        model = enc.ssbc_train(self.prep.train_set, params)
        codes = enc.ssbc_encode_batch(model, self.prep.test)
        encode_s = time.perf_counter() - t0
        res = self.finish(self.evaluate_and_write(codes, index), encode_s,
                          self.n_train + self.n_test)
        res["model"] = model
        return res

    def operations(self):
        # train+encode, truth and evaluation, writing
        return 1 + 2 * self.eval_repeats + 1

    def check(self, res):
        rows = self.stream_rows()
        sketch = res["model"].sketch
        buf = sketch.buffer
        problems, self.fd_ratio = checks.check_fd(rows, buf)
        problems += checks.check_codes(res["codes"], rows[self.n_train:], buf, self.k,
                                       "batch codes")[0]
        problems += checks.check_basis(buf, sketch.basis(self.k), self.k)
        found, failed = self.check_evaluation(res)
        return problems + found, bool(problems) + failed

    def check_figures(self, res, figures, truth):
        lsh = self.ssbc.baselines
        model = lsh.lsh_train(DIM, self.k, self.seed)
        lsh_codes = lsh.lsh_encode_batch(model, self.prep.test)
        lsh_figures = checks.retrieval_figures(lsh_codes, truth, self.k // 4)
        return checks.check_beats(figures, lsh_figures, "SSBC against LSH:")


class StreamOnline(Workload):
    """The sketch trained on 500 points, then 2000 ssbc_process_online calls."""

    name = "stream-online"
    method = "ssbc_online"
    n_train, n_test, k, epsilon = 500, 2000, 30, 0.5
    setups = 3
    # stream positions whose buffer is kept for the check, besides the last
    snapshots = 20

    def setup(self):
        prep = self.prepare()
        enc = self.ssbc.encoder
        prep.model = enc.ssbc_train(prep.train_set, enc.SsbcParams(self.k, self.epsilon))
        self.prep = prep

    def round(self, index):
        enc = self.ssbc.encoder
        model = copy.deepcopy(self.prep.model)
        rng = np.random.default_rng(self.seed)
        keep = set(rng.choice(self.n_test - 1, self.snapshots, replace=False).tolist())
        keep.add(self.n_test - 1)
        codes = np.empty((self.n_test, self.k), dtype=np.int8)
        lat = np.empty(self.n_test)
        buffers = {}
        for i, point in enumerate(self.prep.test):
            t0 = time.perf_counter()
            codes[i] = enc.ssbc_process_online(model, point)
            lat[i] = time.perf_counter() - t0
            if i in keep:
                buffers[i] = model.sketch.buffer.copy()
        res = self.finish(self.evaluate_and_write(codes, index), float(lat.sum()),
                          self.n_test)
        res["latencies"] = lat
        res["buffers"] = buffers
        res["model"] = model
        return res

    def operations(self):
        # one per test point, truth and evaluation, writing, the final sketch
        return self.n_test + 2 * self.eval_repeats + 2

    def check(self, res):
        rows = self.stream_rows()
        test_rows = rows[self.n_train:]
        problems, bad_points = [], 0
        for i, buf in sorted(res["buffers"].items()):
            found, bad = checks.check_codes(res["codes"][i], test_rows[i], buf, self.k,
                                            "online code %d" % i)
            problems += found
            bad_points += bad
        sketch = res["model"].sketch
        final_problems, self.fd_ratio = checks.check_fd(rows, sketch.buffer)
        found, _ = checks.check_signs(res["codes"][-1], test_rows[-1],
                                      sketch.basis(self.k), "last online code")
        final_problems += found
        found, failed = self.check_evaluation(res)
        return (problems + final_problems + found,
                bad_points + bool(final_problems) + failed)


class EvalDense(Workload):
    """LSH codes of 10 000 test points, evaluated densely; no sketch."""

    name = "eval-dense"
    method = "lsh"
    n_train, n_test, k = 500, 10000, 32
    # evaluating 10 000 queries takes about 20 s: once is enough
    eval_repeats = 1
    # the batch encode takes milliseconds, so its time is the median of this
    # many encodes before the evaluation and as many after it
    encode_repeats = 15
    # queries whose ssbc Hamming row is compared with XOR-popcount
    hamming_sample = 1000

    def round(self, index):
        base = self.ssbc.baselines
        test = self.prep.test
        t0 = time.perf_counter()
        model = base.lsh_train(DIM, self.k, self.seed)
        train_s = time.perf_counter() - t0
        times, batches = [], []

        def encode_batches():
            for _ in range(self.encode_repeats):
                t0 = time.perf_counter()
                batches.append(base.lsh_encode_batch(model, test))
                times.append(time.perf_counter() - t0)

        encode_batches()
        res = self.evaluate_and_write(batches[-1], index)
        encode_batches()
        res = self.finish(res, train_s + statistics.median(times), self.n_test)
        res["batches"] = batches
        res["model"] = model
        return res

    def operations(self):
        # the batch encodes, truth and evaluation, writing
        return 2 * self.encode_repeats + 2 * self.eval_repeats + 1

    def check(self, res):
        test, proj = self.prep.test, res["model"].projections
        found = [checks.check_signs(c, test, proj, "LSH codes")[0] for c in res["batches"]]
        problems = [p for batch in found for p in batch]
        bad_batches = sum(1 for batch in found if batch)
        drawn = np.random.default_rng(self.seed).standard_normal((DIM, self.k))
        if not np.array_equal(proj, drawn):
            problems.append("LSH projections are not the seed's standard normals")
            bad_batches = len(res["batches"])
        found, failed = self.check_evaluation(res)
        return problems + found, bad_batches + failed

    def check_figures(self, res, figures, truth):
        rng = np.random.default_rng(self.seed)
        sample = np.sort(rng.choice(self.n_test, self.hamming_sample, replace=False))
        codes = res["codes"]
        ham = self.ssbc.evaluation.hamming_matrix(codes[sample], codes)
        return (checks.check_hamming(ham, codes[sample], codes)
                + checks.check_full_radius(res["report"], truth, self.n_test))


WORKLOADS = {w.name: w for w in (StreamBatch, StreamOnline, EvalDense)}
