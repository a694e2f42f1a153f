"""Command-line front door: synth, run, sweep, theory-check.

Exit codes: 0 success, 1 usage or parameter problems, 2 data problems,
3 numerical failures or size-guard violations. Every seeded command is
reproducible byte for byte; wall-clock timings go to a .timings.json
sidecar so the primary outputs stay deterministic. The SSBC_OUT_DIR
environment variable sets the default output directory.
"""

import argparse
import itertools
import os
import sys
import time
from dataclasses import dataclass, asdict, replace

import numpy as np

from . import baselines, data, encoder, evaluation, formats
from .affinity import TrainSet, affinity_matrix, estimate_sigma_all, estimate_sigma_nn
from .errors import DataError, GuardError, NumericalError, ParameterError

METHODS = ("ssbc_online", "ssbc_streaming", "lsh", "exact_d", "exact_r")
SIGMA_MODES = ("nn30", "all", "nn30_div4", "fixed")


@dataclass
class RunConfig:
    """Fully-resolved run settings; echoed into every output file."""
    method: str = "ssbc_streaming"
    k: int = 30
    epsilon: float = 0.5
    sigma_mode: str = "nn30"
    sigma_value: float = None
    truth_threshold: float = None
    hamming_radius: str = "sweep"
    seed: int = 0
    data: str = None
    uniform: int = None
    dim: int = 50
    data_seed: int = None
    delimiter: str = ","
    has_header: bool = False
    drop_columns: str = ""
    drop_missing_rows: bool = False
    zscore: bool = False
    train: int = 500
    test: int = 2000
    split_seed: int = None
    packed: bool = False
    include_train: bool = False
    exact_guard: int = 5000

    def resolved(self):
        cfg = replace(self)
        if cfg.data_seed is None:
            cfg.data_seed = cfg.seed
        if cfg.split_seed is None:
            cfg.split_seed = cfg.seed
        return cfg


class _Parser(argparse.ArgumentParser):
    """argparse variant whose usage failures exit 1 instead of 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write("%s: error: %s\n" % (self.prog, message))
        raise SystemExit(1)


def _radius_arg(text):
    if text == "sweep":
        return "sweep"
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError("expected an integer or 'sweep'")


def _int_list(text):
    try:
        return [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError("expected comma-separated integers")


def _out_prefix(args, default_name):
    prefix = getattr(args, "out_prefix", None)
    if not prefix:
        root = os.environ.get("SSBC_OUT_DIR", ".")
        prefix = os.path.join(root, default_name)
    parent = os.path.dirname(prefix)
    if parent:
        try:
            os.makedirs(parent, exist_ok=True)
        except OSError as exc:
            raise DataError("cannot create output directory %s: %s"
                            % (parent, exc)) from exc
    return prefix


def _add_data_args(sub, with_split):
    sub.add_argument("--data", help="CSV file of points")
    sub.add_argument("--uniform", type=int,
                     help="generate this many synthetic uniform points instead")
    sub.add_argument("--dim", type=int, default=50,
                     help="dimension for synthetic data (default 50)")
    sub.add_argument("--data-seed", type=int, default=None,
                     help="seed for synthetic data (default: --seed)")
    sub.add_argument("--delimiter", default=",")
    sub.add_argument("--has-header", action="store_true")
    sub.add_argument("--drop-columns", default="",
                     help="comma-separated 0-based column indices to drop")
    sub.add_argument("--drop-missing-rows", action="store_true",
                     help="drop rows with missing or non-numeric cells")
    sub.add_argument("--zscore", action="store_true",
                     help="z-score columns after loading (off for benchmark runs)")
    if with_split:
        sub.add_argument("--train", type=int, default=500)
        sub.add_argument("--test", type=int, default=2000)
        sub.add_argument("--split-seed", type=int, default=None,
                         help="seed for the train/test split (default: --seed)")


def _add_sigma_args(sub):
    sub.add_argument("--sigma-mode", choices=SIGMA_MODES, default="nn30")
    sub.add_argument("--sigma-value", type=float, default=None,
                     help="bandwidth for --sigma-mode fixed")
    sub.add_argument("--truth-threshold", type=float, default=None,
                     help="override the Euclidean similarity threshold (default: sigma)")


def build_parser():
    parser = _Parser(prog="ssbc", description=__doc__)
    subs = parser.add_subparsers(dest="command", parser_class=_Parser)
    subs.required = True

    p = subs.add_parser("synth", help="generate a synthetic uniform dataset")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--name", default="uniform")
    p.add_argument("--out", required=True, help="CSV output path")
    p.set_defaults(func=cmd_synth)

    p = subs.add_parser("run", help="train one method, encode, evaluate")
    p.add_argument("--method", choices=METHODS, default="ssbc_streaming")
    p.add_argument("--k", type=int, default=30)
    p.add_argument("--epsilon", type=float, default=0.5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--radius", type=_radius_arg, default="sweep",
                   help="headline Hamming radius, or 'sweep' for floor(k/4)")
    p.add_argument("--packed", action="store_true",
                   help="write codes hex-packed instead of +/- strings")
    p.add_argument("--include-train", action="store_true",
                   help="also write codes for the training points")
    p.add_argument("--exact-guard", type=int, default=5000)
    _add_data_args(p, with_split=True)
    _add_sigma_args(p)
    p.add_argument("--out-prefix", default=None)
    p.set_defaults(func=cmd_run)

    p = subs.add_parser("sweep", help="run several methods over several k")
    p.add_argument("--methods", default="ssbc_streaming,lsh",
                   help="comma-separated subset of: %s" % ",".join(METHODS))
    p.add_argument("--k-list", type=_int_list, default=[20, 25, 30, 35, 40, 45, 50])
    p.add_argument("--epsilon", type=float, default=0.5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--radius", type=_radius_arg, default="sweep")
    p.add_argument("--exact-guard", type=int, default=5000)
    _add_data_args(p, with_split=True)
    _add_sigma_args(p)
    p.add_argument("--out-prefix", default=None)
    p.set_defaults(func=cmd_sweep)

    p = subs.add_parser("theory-check", help="empirical spectral error report")
    p.add_argument("--m", type=int, default=100,
                   help="sampled column count (ignored with --exhaustive)")
    p.add_argument("--ell", type=int, default=20)
    p.add_argument("--seeds", type=int, default=20,
                   help="number of consecutive seeds to run")
    p.add_argument("--seed", type=int, default=0, help="first seed")
    p.add_argument("--exhaustive", action="store_true",
                   help="take every column exactly once instead of sampling")
    p.add_argument("--rcond", type=float, default=1e-10)
    p.add_argument("--guard", type=int, default=2000)
    _add_data_args(p, with_split=False)
    _add_sigma_args(p)
    p.add_argument("--out-prefix", default=None)
    p.set_defaults(func=cmd_theory_check)

    return parser


def _load_dataset(cfg):
    if (cfg.data is None) == (cfg.uniform is None):
        raise ParameterError("exactly one of --data and --uniform is required")
    if cfg.data is not None:
        drops = [int(tok) for tok in cfg.drop_columns.split(",") if tok.strip()]
        ds = data.load_csv(cfg.data, delimiter=cfg.delimiter,
                           has_header=cfg.has_header, drop_columns=drops,
                           drop_rows_with_missing=cfg.drop_missing_rows)
    else:
        ds = data.synth_uniform(cfg.uniform, cfg.dim, cfg.data_seed)
    if cfg.zscore:
        ds = data.zscore(ds)
    return ds


def _resolve_sigma(points, cfg):
    if cfg.sigma_mode == "nn30":
        return estimate_sigma_nn(points, 30), "nn30"
    if cfg.sigma_mode == "all":
        return estimate_sigma_all(points), "all"
    if cfg.sigma_mode == "nn30_div4":
        return estimate_sigma_nn(points, 30) / 4.0, "nn30_div4"
    if cfg.sigma_value is None or not (cfg.sigma_value > 0):
        raise ParameterError("--sigma-mode fixed requires a positive --sigma-value")
    return float(cfg.sigma_value), "fixed"


def _encode(cfg, train_set, test_points, k):
    """Codes for the test points (and optionally the training points)."""
    train_codes = None
    if cfg.method in ("ssbc_streaming", "ssbc_online"):
        params = encoder.SsbcParams(k, cfg.epsilon)
        model = encoder.ssbc_train(train_set, params)
        if cfg.method == "ssbc_streaming":
            test_codes = encoder.ssbc_encode_batch(model, test_points)
        else:
            test_codes = np.stack([encoder.ssbc_process_online(model, p)
                                   for p in test_points])
        if cfg.include_train:
            basis = model.sketch.basis(k)
            rows = affinity_matrix(train_set.points, train_set)
            train_codes = encoder.signs(rows @ basis)
    elif cfg.method == "lsh":
        model = baselines.lsh_train(test_points.shape[1], k, cfg.seed)
        test_codes = baselines.lsh_encode_batch(model, test_points)
        if cfg.include_train:
            train_codes = baselines.lsh_encode_batch(model, train_set.points)
    elif cfg.method in ("exact_d", "exact_r"):
        mode = "deterministic" if cfg.method == "exact_d" else "randomized"
        test_codes = baselines.exact_codes(test_points, k, train_set.sigma,
                                           mode=mode, seed=cfg.seed,
                                           guard=cfg.exact_guard).codes
        if cfg.include_train:
            train_codes = baselines.exact_codes(train_set.points, k,
                                                train_set.sigma, mode=mode,
                                                seed=cfg.seed,
                                                guard=cfg.exact_guard).codes
    else:
        raise ParameterError("unknown method %r" % cfg.method)
    return test_codes, train_codes


def _ground_truth(cfg, test_ds, sigma, note, timings):
    """Similar pairs among the test points, shared by every (method, k) cell."""
    t0 = time.perf_counter()
    truth = evaluation.ground_truth(test_ds.points, test_ds.points, sigma,
                                    threshold=cfg.truth_threshold or sigma,
                                    threshold_note=note)
    timings["truth"] = time.perf_counter() - t0
    return truth


def _run_once(cfg, train_ds, test_ds, sigma, truth, timings):
    k = cfg.k
    train_set = TrainSet(train_ds.points, sigma)
    t0 = time.perf_counter()
    test_codes, train_codes = _encode(cfg, train_set, test_ds.points, k)
    t1 = time.perf_counter()
    radius = k // 4 if cfg.hamming_radius == "sweep" else int(cfg.hamming_radius)
    config_echo = dict(asdict(cfg), resolved_sigma=sigma,
                       resolved_threshold=truth.threshold, resolved_radius=radius)
    report = evaluation.evaluate_retrieval(cfg.method, test_codes, test_codes,
                                           truth, radius, params=config_echo)
    t2 = time.perf_counter()
    timings["%s_k%d_encode" % (cfg.method, k)] = t1 - t0
    timings["%s_k%d_eval" % (cfg.method, k)] = t2 - t1
    return report, config_echo, test_codes, train_codes


def _config_from_args(args, method=None, k=None):
    cfg = RunConfig(
        method=method if method is not None else getattr(args, "method", "ssbc_streaming"),
        k=k if k is not None else getattr(args, "k", 30),
        epsilon=getattr(args, "epsilon", 0.5),
        sigma_mode=args.sigma_mode,
        sigma_value=args.sigma_value,
        truth_threshold=args.truth_threshold,
        hamming_radius=getattr(args, "radius", "sweep"),
        seed=args.seed,
        data=args.data,
        uniform=args.uniform,
        dim=args.dim,
        data_seed=args.data_seed,
        delimiter=args.delimiter,
        has_header=args.has_header,
        drop_columns=args.drop_columns,
        drop_missing_rows=args.drop_missing_rows,
        zscore=args.zscore,
        train=getattr(args, "train", 0),
        test=getattr(args, "test", 0),
        split_seed=getattr(args, "split_seed", None),
        packed=getattr(args, "packed", False),
        include_train=getattr(args, "include_train", False),
        exact_guard=getattr(args, "exact_guard", 5000),
    )
    return cfg.resolved()


def cmd_synth(args):
    ds = data.synth_uniform(args.n, args.d, args.seed, args.name)
    data.save_csv(ds.points, args.out)
    config = {"command": "synth", "n": args.n, "d": args.d,
              "seed": args.seed, "name": args.name, "out": args.out}
    formats.write_json(args.out + ".meta.json", formats.dataset_meta(ds, config,
                                                                     seed=args.seed))
    print("wrote %s (%d x %d)" % (args.out, ds.n, ds.d))
    return 0


def _prepared_split(cfg):
    ds = _load_dataset(cfg)
    spec = data.SplitSpec(cfg.train, cfg.test, cfg.split_seed)
    train_ds, test_ds = data.split(ds, spec)
    if train_ds.n < 1 or test_ds.n < 2:
        raise DataError("split left train=%d test=%d points; need at least 1 and 2"
                        % (train_ds.n, test_ds.n))
    sigma, note = _resolve_sigma(train_ds.points, cfg)
    if not (sigma > 0):
        raise DataError("estimated sigma is %r; data too degenerate" % sigma)
    return train_ds, test_ds, sigma, note


def cmd_run(args):
    cfg = _config_from_args(args)
    timings = {}
    t0 = time.perf_counter()
    train_ds, test_ds, sigma, note = _prepared_split(cfg)
    timings["prepare"] = time.perf_counter() - t0
    truth = _ground_truth(cfg, test_ds, sigma, note, timings)
    report, config_echo, test_codes, train_codes = _run_once(
        cfg, train_ds, test_ds, sigma, truth, timings)

    prefix = _out_prefix(args, "%s_k%d_seed%d" % (cfg.method, cfg.k, cfg.seed))
    formats.write_codes(prefix + ".codes", test_codes, cfg.method,
                        config=config_echo, packed=cfg.packed)
    if train_codes is not None:
        formats.write_codes(prefix + ".train.codes", train_codes, cfg.method,
                            config=config_echo, packed=cfg.packed)
    formats.write_json(prefix + ".report.json",
                       formats.report_payload([report], config_echo))
    formats.write_reports_csv(prefix + ".report.csv", [report], config_echo)
    formats.write_json(prefix + ".timings.json",
                       {"format_version": formats.FORMAT_VERSION,
                        "config": config_echo, "timings": timings})
    print("%s k=%d precision=%r recall=%r map=%r"
          % (cfg.method, cfg.k, report.precision, report.recall, report.map))
    print("wrote %s.codes %s.report.json %s.report.csv" % (prefix, prefix, prefix))
    return 0


def cmd_sweep(args):
    methods = [tok.strip() for tok in args.methods.split(",") if tok.strip()]
    if not methods:
        raise ParameterError("--methods must name at least one method")
    for method in methods:
        if method not in METHODS:
            raise ParameterError("unknown method %r; choose from %s"
                                 % (method, ",".join(METHODS)))
    if not args.k_list:
        raise ParameterError("--k-list must name at least one k")

    base_cfg = _config_from_args(args, method=methods[0], k=args.k_list[0])
    timings = {}
    t0 = time.perf_counter()
    train_ds, test_ds, sigma, note = _prepared_split(base_cfg)
    timings["prepare"] = time.perf_counter() - t0

    prefix = _out_prefix(args, "sweep_seed%d" % base_cfg.seed)
    reports = []
    failures = []
    sweep_echo = dict(asdict(base_cfg), methods=methods, k_list=args.k_list,
                      resolved_sigma=sigma,
                      resolved_threshold=base_cfg.truth_threshold or sigma)
    exit_code = 0
    truth = None
    for method, k in itertools.product(methods, args.k_list):
        cfg = replace(base_cfg, method=method, k=k)
        try:
            if truth is None:
                truth = _ground_truth(cfg, test_ds, sigma, note, timings)
            report, _, _, _ = _run_once(cfg, train_ds, test_ds, sigma, truth,
                                        timings)
            reports.append(report)
        except (ParameterError, DataError, NumericalError, GuardError) as exc:
            failures.append((method, k, type(exc).__name__))
            sys.stderr.write("sweep aborted at %s k=%d: %s\n" % (method, k, exc))
            exit_code = _exit_code_for(exc)
            break

    formats.write_json(prefix + ".report.json",
                       dict(formats.report_payload(reports, sweep_echo),
                            failures=[list(f) for f in failures]))
    formats.write_reports_csv(prefix + ".report.csv", reports, sweep_echo,
                              failures=failures)
    formats.write_json(prefix + ".timings.json",
                       {"format_version": formats.FORMAT_VERSION,
                        "config": sweep_echo, "timings": timings})
    for rep in reports:
        print("%s k=%d precision=%r recall=%r map=%r"
              % (rep.method, rep.k, rep.precision, rep.recall, rep.map))
    print("wrote %s.report.json %s.report.csv" % (prefix, prefix))
    return exit_code


def cmd_theory_check(args):
    cfg = _config_from_args(args)
    ds = _load_dataset(cfg)
    if ds.n > args.guard:
        raise GuardError("n=%d exceeds guard %d" % (ds.n, args.guard))
    sigma, note = _resolve_sigma(ds.points, cfg)
    if not (sigma > 0):
        raise DataError("estimated sigma is %r; data too degenerate" % sigma)

    config_echo = dict(asdict(cfg), command="theory-check", m=args.m, ell=args.ell,
                       seeds=args.seeds, exhaustive=args.exhaustive,
                       rcond=args.rcond, guard=args.guard,
                       resolved_sigma=sigma, sigma_note=note, n=ds.n)
    runs = []
    timings = {}
    t0 = time.perf_counter()
    for seed in range(args.seed, args.seed + args.seeds):
        runs.append(evaluation.theory_spectral_check(
            ds.points, args.m, args.ell, seed, sigma,
            exhaustive=args.exhaustive, rcond=args.rcond, guard=args.guard))
    timings["checks"] = time.perf_counter() - t0
    cols = evaluation.column_norm_diagnostic(ds.points, sigma, guard=args.guard)
    medians = {key: float(np.median([r[key] for r in runs]))
               for key in ("errW2", "errHat", "errTilde")}

    prefix = _out_prefix(args, "theory_n%d_m%d_ell%d" % (ds.n, args.m, args.ell))
    formats.write_json(prefix + ".theory.json",
                       {"format_version": formats.FORMAT_VERSION,
                        "config": config_echo, "column_norms": cols,
                        "medians": medians, "runs": runs})
    formats.write_json(prefix + ".timings.json",
                       {"format_version": formats.FORMAT_VERSION,
                        "config": config_echo, "timings": timings})
    print("medians errW2=%r errHat=%r errTilde=%r"
          % (medians["errW2"], medians["errHat"], medians["errTilde"]))
    print("column norms cmax=%r cmin=%r ratio=%r"
          % (cols["cmax"], cols["cmin"], cols["ratio"]))
    print("wrote %s.theory.json" % prefix)
    return 0


def _exit_code_for(exc):
    if isinstance(exc, ParameterError):
        return 1
    if isinstance(exc, DataError):
        return 2
    return 3


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return args.func(args)
    except (ParameterError, DataError, NumericalError, GuardError) as exc:
        sys.stderr.write("ssbc: %s: %s\n" % (type(exc).__name__, exc))
        return _exit_code_for(exc)


if __name__ == "__main__":
    sys.exit(main())
