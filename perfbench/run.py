"""Benchmark of ssbc: three workloads, timed end to end or traced by layer.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload stream-batch --seed 1000 --seconds 20 --trace 0

The ssbc package is imported from the checkout's src/ directory. The last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics with --trace 0, the
per-layer metrics with --trace 1. The lines before it give the machine
record and each metric by name and unit. See perfbench/README.md.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
import time

import numpy as np

from spans import LayerStats, Tracer, targets
from workloads import WORKLOADS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def import_ssbc():
    """The ssbc package of this checkout, never an installed copy."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "ssbc", "__init__.py")):
        raise ImportError("no ssbc package under %s" % src)
    sys.path.insert(0, src)
    import ssbc
    import ssbc.formats
    if not os.path.abspath(ssbc.__file__).startswith(src + os.sep):
        raise ImportError("ssbc was imported from %s, not %s" % (ssbc.__file__, src))
    return ssbc


def git_sha():
    """The checkout's commit, read from .git without running git."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as handle:
            ref = handle.read().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = os.path.join(ROOT, ".git", name)
        if os.path.isfile(loose):
            with open(loose) as handle:
                return handle.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs")) as handle:
            for line in handle:
                if line.strip().endswith(" " + name):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def machine():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = {var: os.environ.get(var, "default")
               for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    return {"cores": os.cpu_count(), "usable_cores": len(os.sched_getaffinity(0)),
            "machine": platform.machine(), "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": "%s %s" % (blas.get("name"), blas.get("version")),
            "blas_threads": threads, "git_sha": git_sha()}


def end_to_end(wl, setup_times, rounds, peak_mb):
    med = statistics.median
    return {
        "setup_s": (med(setup_times), "s"),
        "pipeline_s": (med(r["pipeline_s"] for r in rounds), "s"),
        "encode_rows_per_s": (med(r["rows"] / r["encode_s"] for r in rounds), "rows/s"),
        "eval_queries_per_s": (med(wl.n_test / r["eval_s"] for r in rounds), "queries/s"),
        "peak_rss_mb": (peak_mb, "MB"),
    }


def latency(rounds):
    """p50 and p99 of the ssbc_process_online latency, with the sample
    count, printed for information: see the README for why they are not
    metrics of the result line."""
    if "latencies" not in rounds[0]:
        return ""
    lat = np.concatenate([r["latencies"] for r in rounds])
    return "online_p50_ms %.6g online_p99_ms %.6g samples %d" % (
        1e3 * np.percentile(lat, 50), 1e3 * np.percentile(lat, 99), lat.size)


def per_layer(wl, tracer, setups, rounds):
    st = LayerStats(tracer.summary(), setups, len(rounds))
    return {
        "data.synth_s": (st.self_s("data.synth_uniform", "data.split"), "s"),
        "affinity.sigma_s": (st.self_s("affinity.estimate_sigma_nn"), "s"),
        "affinity.matrix_s": (st.self_s("affinity.affinity_matrix"), "s"),
        "affinity.vector_us": (1e3 * st.median_ms("affinity.affinity_vector"), "us"),
        "sketch.insert_calls": (st.calls("sketch.insert"), "count"),
        "sketch.shrink_count": (st.calls("sketch.shrink"), "count"),
        "sketch.shrink_s": (st.self_s("sketch.shrink"), "s"),
        "sketch.shrink_ms": (st.median_ms("sketch.shrink"), "ms"),
        "sketch.insert_self_s": (st.self_s("sketch.insert"), "s"),
        "sketch.basis_calls": (st.calls("sketch.basis"), "count"),
        "sketch.basis_s": (st.self_s("sketch.basis"), "s"),
        "sketch.basis_ms": (st.median_ms("sketch.basis"), "ms"),
        "sketch.fd_err_ratio": (wl.fd_ratio, "ratio"),
        "encoder.train_s": (st.self_s("encoder.ssbc_train"), "s"),
        "encoder.encode_batch_s": (st.self_s("encoder.ssbc_encode_batch"), "s"),
        "encoder.online_s": (st.self_s("encoder.ssbc_process_online"), "s"),
        "encoder.sign_s": (st.self_s("encoder.signs", "encoder.sign_project"), "s"),
        "baselines.lsh_encode_s": (st.self_s("baselines.lsh_train",
                                             "baselines.lsh_encode_batch"), "s"),
        "evaluation.ground_truth_s": (st.self_s("evaluation.ground_truth"), "s"),
        "evaluation.hamming_calls": (st.calls("evaluation.hamming_matrix"), "count"),
        "evaluation.hamming_s": (st.self_s("evaluation.hamming_matrix"), "s"),
        "evaluation.pr_curve_s": (st.self_s("evaluation.pr_curve"), "s"),
        "evaluation.rank_s": (st.self_s("evaluation.rank_by_hamming"), "s"),
        "evaluation.map_s": (st.self_s("evaluation.mean_average_precision"), "s"),
        "evaluation.evaluate_s": (st.self_s("evaluation.evaluate_retrieval"), "s"),
        "evaluation.map": (rounds[0]["report"].map, "ratio"),
        "evaluation.precision": (rounds[0]["report"].precision, "ratio"),
        "formats.write_s": (st.self_s("formats.write_codes", "formats.write_json",
                                      "formats.write_reports_csv"), "s"),
        "trace.pipeline_s": (statistics.median(r["pipeline_s"] for r in rounds), "s"),
    }


def run(args, ssbc, out_dir):
    wl = WORKLOADS[args.workload](ssbc, args.seed, out_dir)
    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install(targets(ssbc))
    setup_times = []
    for _ in range(wl.setups):
        if tracer:
            tracer.begin("bench.setup")
        t0 = time.perf_counter()
        wl.setup()
        setup_times.append(time.perf_counter() - t0)
        if tracer:
            tracer.end()
    # whole rounds while another round of the mean length still fits
    rounds = []
    spent = 0.0
    while not rounds or spent + spent / len(rounds) <= args.seconds:
        if tracer:
            tracer.begin("bench.round")
        t0 = time.perf_counter()
        rounds.append(wl.round(len(rounds)))
        spent += time.perf_counter() - t0
        if tracer:
            tracer.end()
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer:
        tracer.uninstall()

    problems, failed = [], 0
    for res in rounds:
        found, bad = wl.check(res)
        problems += found
        failed += bad
    if args.trace:
        metrics = per_layer(wl, tracer, wl.setups, rounds)
    else:
        metrics = end_to_end(wl, setup_times, rounds, peak_mb)
    return problems, failed, len(rounds) * wl.operations(), metrics, rounds


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1000)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        ssbc = import_ssbc()
    except ImportError as exc:
        sys.stderr.write("perfbench: cannot import ssbc: %s\n" % exc)
        return 2

    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as out_dir:
        problems, failed, attempted, metrics, rounds = run(args, ssbc, out_dir)
    for problem in problems:
        sys.stderr.write("perfbench: check failed: %s\n" % problem)

    print("# machine %s" % json.dumps(machine(), sort_keys=True))
    print("# workload %s seed %d rounds %d trace %d %s"
          % (args.workload, args.seed, len(rounds), args.trace, latency(rounds)))
    for name, (value, unit) in metrics.items():
        print("# %-28s %14.6g %s" % (name, value, unit))
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
