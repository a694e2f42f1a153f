"""Command-line front door: synth, run, sweep, theory-check.

Each setting is declared once, by its argparse option, and the parsed
arguments are the configuration: every output file echoes under "config"
the settings its command reads (--data-seed and --split-seed resolved to
--seed when unset) and the values it derived from them (resolved_*).

Exit codes: 0 success, 1 usage or parameter problems, 2 data problems,
3 numerical failures or size-guard violations. Every seeded command is
reproducible byte for byte; wall-clock timings go to a .timings.json
sidecar so the primary outputs stay deterministic. The SSBC_OUT_DIR
environment variable sets the default output directory.
"""

import argparse
import functools
import itertools
import os
import sys
import time

import numpy as np

from . import baselines, data, encoder, evaluation, formats
from .affinity import TrainSet, estimate_sigma_all, estimate_sigma_nn
from .errors import DataError, GuardError, NumericalError, ParameterError, check_int

METHODS = ("ssbc_online", "ssbc_streaming", "lsh", "exact_d", "exact_r")
SIGMA_MODES = ("nn30", "all", "nn30_div4", "fixed")


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
        values = [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError("expected comma-separated integers")
    if not values:
        raise argparse.ArgumentTypeError("expected at least one integer")
    return values


def _method_list(text):
    methods = [tok.strip() for tok in text.split(",") if tok.strip()]
    if not methods or set(methods) - set(METHODS):
        raise argparse.ArgumentTypeError("expected a subset of %s, got %r"
                                         % (",".join(METHODS), text))
    return methods


def _out_prefix(args, default_name):
    prefix = args.out_prefix
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


def _add_seed(sub):
    sub.add_argument("--seed", type=int, default=0, help="random seed")


def _add_dim(sub, flag):
    sub.add_argument(flag, type=int, default=50,
                     help="dimension of synthetic points (default %(default)s)")


def _add_input_args(sub):
    """The seed, dataset, sigma and output options of run, sweep and theory-check."""
    _add_seed(sub)
    sub.add_argument("--data", help="CSV file of points")
    sub.add_argument("--uniform", type=int,
                     help="generate this many synthetic uniform points instead")
    _add_dim(sub, "--dim")
    sub.add_argument("--data-seed", type=int,
                     help="seed for synthetic data (default: --seed)")
    sub.add_argument("--delimiter", default=",")
    sub.add_argument("--has-header", action="store_true")
    sub.add_argument("--drop-columns", default="",
                     help="comma-separated 0-based column indices to drop")
    sub.add_argument("--drop-missing-rows", action="store_true",
                     help="drop rows with missing or non-numeric cells")
    sub.add_argument("--zscore", action="store_true",
                     help="z-score columns after loading (off for benchmark runs)")
    sub.add_argument("--sigma-mode", choices=SIGMA_MODES, default="nn30")
    sub.add_argument("--sigma-value", type=float,
                     help="bandwidth for --sigma-mode fixed")
    sub.add_argument("--out-prefix")


def _add_retrieval_args(sub):
    """The split, encoding and evaluation options run and sweep share."""
    sub.add_argument("--train", type=int, default=500)
    sub.add_argument("--test", type=int, default=2000)
    sub.add_argument("--split-seed", type=int,
                     help="seed for the train/test split (default: --seed)")
    sub.add_argument("--epsilon", type=float, default=0.5)
    sub.add_argument("--radius", dest="hamming_radius", metavar="RADIUS",
                     type=_radius_arg, default="sweep",
                     help="headline Hamming radius, or 'sweep' for floor(k/4)")
    sub.add_argument("--truth-threshold", type=float,
                     help="override the Euclidean similarity threshold (default: sigma)")
    sub.add_argument("--exact-guard", type=int, default=5000)


def build_parser():
    parser = _Parser(prog="ssbc", description=__doc__)
    subs = parser.add_subparsers(dest="command", parser_class=_Parser)
    subs.required = True

    p = subs.add_parser("synth", help="generate a synthetic uniform dataset")
    p.add_argument("--n", type=int, required=True)
    _add_dim(p, "--d")
    _add_seed(p)
    p.add_argument("--name", default="uniform")
    p.add_argument("--out", required=True, help="CSV output path")
    p.set_defaults(func=cmd_synth)

    p = subs.add_parser("run", help="train one method, encode, evaluate")
    p.add_argument("--method", choices=METHODS, default="ssbc_streaming")
    p.add_argument("--k", type=int, default=30)
    p.add_argument("--packed", action="store_true",
                   help="write codes hex-packed instead of +/- strings")
    p.add_argument("--include-train", action="store_true",
                   help="also write codes for the training points")
    _add_retrieval_args(p)
    _add_input_args(p)
    p.set_defaults(func=cmd_run)

    p = subs.add_parser("sweep", help="run several methods over several k")
    p.add_argument("--methods", type=_method_list, default="ssbc_streaming,lsh",
                   help="comma-separated subset of: %s" % ",".join(METHODS))
    p.add_argument("--k-list", type=_int_list, default="20,25,30,35,40,45,50")
    _add_retrieval_args(p)
    _add_input_args(p)
    p.set_defaults(func=cmd_sweep)

    p = subs.add_parser("theory-check", help="empirical spectral error report")
    p.add_argument("--m", type=int, default=100,
                   help="sampled column count (ignored with --exhaustive)")
    p.add_argument("--ell", type=int, default=20)
    p.add_argument("--seeds", type=int, default=20,
                   help="number of consecutive seeds to run, from --seed")
    p.add_argument("--exhaustive", action="store_true",
                   help="take every column exactly once instead of sampling")
    p.add_argument("--rcond", type=float, default=1e-10)
    p.add_argument("--guard", type=int, default=2000)
    _add_input_args(p)
    p.set_defaults(func=cmd_theory_check)

    return parser


def _echo(args, **resolved):
    """The settings a command read, as parsed, plus the values it resolved."""
    settings = {key: val for key, val in vars(args).items()
                if key not in ("command", "func", "out_prefix")}
    return dict(settings, **resolved)


def _load_dataset(args):
    """The points --data or --uniform names; unset seeds take --seed first."""
    for name in ("data_seed", "split_seed"):
        if name in vars(args) and vars(args)[name] is None:
            setattr(args, name, args.seed)
    if (args.data is None) == (args.uniform is None):
        raise ParameterError("exactly one of --data and --uniform is required")
    if args.data is not None:
        try:
            drops = [int(tok) for tok in args.drop_columns.split(",") if tok.strip()]
        except ValueError as exc:
            raise ParameterError("--drop-columns takes comma-separated integers, got %r"
                                 % args.drop_columns) from exc
        ds = data.load_csv(args.data, delimiter=args.delimiter,
                           has_header=args.has_header, drop_columns=drops,
                           drop_rows_with_missing=args.drop_missing_rows)
    else:
        ds = data.synth_uniform(args.uniform, args.dim, args.data_seed)
    if args.zscore:
        ds = data.zscore(ds)
    return ds


def _resolve_sigma(points, args):
    """sigma as --sigma-mode asks, estimated on points where it is not fixed."""
    mode = args.sigma_mode
    if mode == "fixed":
        if args.sigma_value is None or not (args.sigma_value > 0):
            raise ParameterError("--sigma-mode fixed requires a positive --sigma-value")
        return float(args.sigma_value)
    if mode == "all":
        sigma = estimate_sigma_all(points)
    else:
        sigma = estimate_sigma_nn(points, 30)
        if mode == "nn30_div4":
            sigma /= 4.0
    if not (sigma > 0):
        raise DataError("estimated sigma is %r; data too degenerate" % sigma)
    return sigma


def _prepared_split(args):
    ds = _load_dataset(args)
    spec = data.SplitSpec(args.train, args.test, args.split_seed)
    train_ds, test_ds = data.split(ds, spec)
    if train_ds.n < 1 or test_ds.n < 2:
        raise DataError("split left train=%d test=%d points; need at least 1 and 2"
                        % (train_ds.n, test_ds.n))
    return train_ds, test_ds, _resolve_sigma(train_ds.points, args)


def _encode(args, train_set, test_points, include_train):
    """Codes for the test points, and for the training points if asked (else None)."""
    k = args.k
    if args.method == "lsh":
        model = baselines.lsh_train(test_points.shape[1], k, args.seed)
        encode = functools.partial(baselines.lsh_encode_batch, model)
    elif args.method in ("exact_d", "exact_r"):
        mode = "deterministic" if args.method == "exact_d" else "randomized"

        def encode(points):
            return baselines.exact_codes(points, k, train_set.sigma, mode=mode,
                                         seed=args.seed, guard=args.exact_guard).codes
    else:
        model = encoder.ssbc_train(train_set, encoder.SsbcParams(k, args.epsilon))
        if args.method == "ssbc_streaming":
            test_codes = encoder.ssbc_encode_batch(model, test_points)
        else:
            test_codes = np.stack([encoder.ssbc_process_online(model, p)
                                   for p in test_points])
        train_codes = None
        if include_train:
            train_codes = encoder.project_codes(train_set.points, train_set,
                                                model.sketch.basis(k))
        return test_codes, train_codes
    return encode(test_points), encode(train_set.points) if include_train else None


def _ground_truth(args, test_ds, sigma, timings):
    """Similar pairs among the test points, shared by every (method, k) cell."""
    t0 = time.perf_counter()
    truth = evaluation.ground_truth(test_ds.points, test_ds.points, sigma,
                                    threshold=args.truth_threshold)
    timings["truth"] = time.perf_counter() - t0
    return truth


def _run_once(args, train_ds, test_ds, sigma, truth, timings, include_train=False):
    k = args.k
    train_set = TrainSet(train_ds.points, sigma)
    t0 = time.perf_counter()
    test_codes, train_codes = _encode(args, train_set, test_ds.points, include_train)
    t1 = time.perf_counter()
    radius = k // 4 if args.hamming_radius == "sweep" else args.hamming_radius
    config = _echo(args, resolved_sigma=sigma, resolved_threshold=truth.threshold,
                   resolved_radius=radius)
    report = evaluation.evaluate_retrieval(args.method, test_codes, test_codes,
                                           truth, radius, params=config)
    t2 = time.perf_counter()
    timings["%s_k%d_encode" % (args.method, k)] = t1 - t0
    timings["%s_k%d_eval" % (args.method, k)] = t2 - t1
    return report, config, test_codes, train_codes


def _write_outputs(prefix, config, timings, reports=(), failures=None, theory=None):
    """Every file but the codes, each carrying config.

    run and sweep write .report.json and .report.csv (a sweep's with its
    failed cells), theory-check writes .theory.json; each command writes
    the .timings.json sidecar.
    """
    if theory is not None:
        formats.write_json(prefix + ".theory.json",
                           dict(theory, format_version=formats.FORMAT_VERSION,
                                config=config))
    else:
        payload = formats.report_payload(reports, config)
        if failures is not None:
            payload["failures"] = [list(f) for f in failures]
        formats.write_json(prefix + ".report.json", payload)
        formats.write_reports_csv(prefix + ".report.csv", reports, config,
                                  failures=failures or ())
    formats.write_json(prefix + ".timings.json",
                       {"format_version": formats.FORMAT_VERSION,
                        "config": config, "timings": timings})


def _print_report(report):
    print("%s k=%d precision=%r recall=%r map=%r"
          % (report.method, report.k, report.precision, report.recall, report.map))


def cmd_synth(args):
    ds = data.synth_uniform(args.n, args.d, args.seed, args.name)
    data.save_csv(ds.points, args.out)
    meta = formats.dataset_meta(ds, _echo(args, command=args.command), seed=args.seed)
    formats.write_json(args.out + ".meta.json", meta)
    print("wrote %s (%d x %d)" % (args.out, ds.n, ds.d))
    return 0


def cmd_run(args):
    timings = {}
    t0 = time.perf_counter()
    train_ds, test_ds, sigma = _prepared_split(args)
    timings["prepare"] = time.perf_counter() - t0
    truth = _ground_truth(args, test_ds, sigma, timings)
    report, config, test_codes, train_codes = _run_once(
        args, train_ds, test_ds, sigma, truth, timings, args.include_train)

    prefix = _out_prefix(args, "%s_k%d_seed%d" % (args.method, args.k, args.seed))
    for suffix, codes in ((".codes", test_codes), (".train.codes", train_codes)):
        if codes is not None:
            formats.write_codes(prefix + suffix, codes, args.method,
                                config=config, packed=args.packed)
    _write_outputs(prefix, config, timings, [report])
    _print_report(report)
    print("wrote %s.codes %s.report.json %s.report.csv" % (prefix, prefix, prefix))
    return 0


def cmd_sweep(args):
    timings = {}
    t0 = time.perf_counter()
    train_ds, test_ds, sigma = _prepared_split(args)
    timings["prepare"] = time.perf_counter() - t0

    prefix = _out_prefix(args, "sweep_seed%d" % args.seed)
    threshold = sigma if args.truth_threshold is None else args.truth_threshold
    config = _echo(args, resolved_sigma=sigma, resolved_threshold=threshold)
    # a cell reads the sweep's settings with its own method and k
    shared = {key: val for key, val in vars(args).items()
              if key not in ("methods", "k_list")}
    reports = []
    failures = []
    exit_code = 0
    truth = None
    for method, k in itertools.product(args.methods, args.k_list):
        cell = argparse.Namespace(**shared, method=method, k=k)
        try:
            if truth is None:
                truth = _ground_truth(cell, test_ds, sigma, timings)
            reports.append(_run_once(cell, train_ds, test_ds, sigma, truth,
                                     timings)[0])
        except (ParameterError, DataError, NumericalError, GuardError) as exc:
            failures.append((method, k, type(exc).__name__))
            sys.stderr.write("sweep aborted at %s k=%d: %s\n" % (method, k, exc))
            exit_code = _exit_code_for(exc)
            break

    _write_outputs(prefix, config, timings, reports, failures)
    for report in reports:
        _print_report(report)
    print("wrote %s.report.json %s.report.csv" % (prefix, prefix))
    return exit_code


def cmd_theory_check(args):
    check_int(args.seeds, "seeds", 1)
    ds = _load_dataset(args)
    if ds.n > args.guard:
        raise GuardError("n=%d exceeds guard %d" % (ds.n, args.guard))
    sigma = _resolve_sigma(ds.points, args)

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

    config = _echo(args, command=args.command, resolved_sigma=sigma,
                   sigma_note=args.sigma_mode, n=ds.n)
    prefix = _out_prefix(args, "theory_n%d_m%d_ell%d" % (ds.n, args.m, args.ell))
    _write_outputs(prefix, config, timings, theory={
        "column_norms": cols, "medians": medians, "runs": runs})
    print("medians errW2=%r errHat=%r errTilde=%r"
          % (medians["errW2"], medians["errHat"], medians["errTilde"]))
    print("column norms cmax=%r cmin=%r ratio=%r"
          % (cols["cmax"], cols["cmin"], cols["ratio"]))
    print("wrote %s.theory.json" % prefix)
    return 0


def _exit_code_for(exc):
    return {ParameterError: 1, DataError: 2}.get(type(exc), 3)


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
