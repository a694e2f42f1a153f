import json
import os
import platform
import subprocess
import sys

import numpy as np
import pytest

import ssbc
from ssbc import (estimate_sigma_all, estimate_sigma_nn, evaluation, lsh_encode_batch,
                  lsh_train)
from ssbc.cli import main
from ssbc.data import load_csv, synth_uniform, zscore
from ssbc.formats import read_codes


def run_args(tmp_path, tag, *extra):
    return ["run", "--uniform", "80", "--dim", "6", "--train", "40",
            "--test", "40", "--k", "6", "--seed", "3",
            "--out-prefix", str(tmp_path / tag)] + list(extra)


def test_synth_writes_csv_and_meta(tmp_path, capsys):
    out = tmp_path / "u.csv"
    code = main(["synth", "--n", "25", "--d", "4", "--seed", "7",
                 "--out", str(out)])
    assert code == 0
    assert "wrote" in capsys.readouterr().out
    ds = load_csv(out)
    assert np.array_equal(ds.points, synth_uniform(25, 4, 7).points)
    meta = json.loads((tmp_path / "u.csv.meta.json").read_text())
    assert (meta["n"], meta["d"], meta["seed"]) == (25, 4, 7)
    assert meta["provenance"] == "synthetic"


def test_synth_requires_n(tmp_path):
    assert main(["synth", "--out", str(tmp_path / "x.csv")]) == 1


def test_run_lsh_outputs(tmp_path, capsys):
    code = main(run_args(tmp_path, "r", "--method", "lsh"))
    assert code == 0
    out = capsys.readouterr().out
    assert "precision=" in out and "map=" in out
    for suffix in (".codes", ".report.json", ".report.csv", ".timings.json"):
        assert (tmp_path / ("r" + suffix)).exists()

    codes, meta = read_codes(tmp_path / "r.codes")
    assert codes.shape == (40, 6)
    assert meta["method"] == "lsh"
    assert meta["config"]["resolved_sigma"] > 0

    # the codes follow the documented protocol: synthesize, permute, project
    ds = synth_uniform(80, 6, 3)
    perm = np.random.default_rng(3).permutation(80)
    test_pts = ds.points[perm[40:80]]
    model = lsh_train(6, 6, 3)
    assert np.array_equal(codes, lsh_encode_batch(model, test_pts))

    payload = json.loads((tmp_path / "r.report.json").read_text())
    rep = payload["reports"][0]
    assert rep["method"] == "lsh"
    assert rep["pr_curve"][rep["params"]["resolved_radius"]] == [
        rep["precision"], rep["recall"]]
    csv_lines = (tmp_path / "r.report.csv").read_text().splitlines()
    assert csv_lines[0].startswith("# config ")
    assert csv_lines[2].startswith("lsh,6,summary,")


def test_run_is_byte_deterministic(tmp_path):
    assert main(run_args(tmp_path, "a")) == 0
    assert main(run_args(tmp_path, "b")) == 0
    for suffix in (".codes", ".report.json", ".report.csv"):
        a = (tmp_path / ("a" + suffix)).read_bytes()
        b = (tmp_path / ("b" + suffix)).read_bytes()
        assert a == b, suffix


def test_run_all_methods_complete(tmp_path):
    for method in ("ssbc_streaming", "ssbc_online", "lsh", "exact_d", "exact_r"):
        assert main(run_args(tmp_path, method, "--method", method)) == 0
        codes, _ = read_codes(tmp_path / (method + ".codes"))
        assert codes.shape == (40, 6)


def test_run_include_train_and_packed(tmp_path):
    assert main(run_args(tmp_path, "p", "--method", "lsh", "--packed",
                         "--include-train")) == 0
    codes, meta = read_codes(tmp_path / "p.codes")
    assert meta["encoding"] == "hex"
    assert codes.shape == (40, 6)
    train_codes, _ = read_codes(tmp_path / "p.train.codes")
    assert train_codes.shape == (40, 6)


def test_run_refuses_include_train_for_the_exact_methods(tmp_path, capsys):
    # an exact method codes only the points it decomposes, so it has no
    # code for a training point that is not also a test point
    for method in ("exact_d", "exact_r"):
        assert main(run_args(tmp_path, method, "--method", method,
                             "--include-train")) == 1
        err = capsys.readouterr().err
        assert err.startswith("ssbc: ParameterError: ") and method in err, err
    assert list(tmp_path.iterdir()) == []


def _split_points(n, dim, seed, train, test, transform=lambda ds: ds):
    """The train and test points of a run on --uniform n --dim dim --seed seed."""
    points = transform(synth_uniform(n, dim, seed)).points
    perm = np.random.default_rng(seed).permutation(n)
    return points[perm[:train]], points[perm[train:train + test]]


def test_run_zscore_codes_the_z_scored_split(tmp_path):
    assert main(run_args(tmp_path, "z", "--method", "lsh", "--zscore")) == 0
    codes, meta = read_codes(tmp_path / "z.codes")
    assert meta["config"]["zscore"] is True
    model = lsh_train(6, 6, 3)
    _, test_pts = _split_points(80, 6, 3, 40, 40, zscore)
    assert np.array_equal(codes, lsh_encode_batch(model, test_pts))
    _, raw = _split_points(80, 6, 3, 40, 40)
    assert not np.array_equal(codes, lsh_encode_batch(model, raw))


@pytest.mark.parametrize("mode", ["all", "nn30_div4"])
def test_run_resolves_sigma_as_its_mode_asks(tmp_path, mode):
    assert main(run_args(tmp_path, mode, "--method", "lsh", "--sigma-mode", mode)) == 0
    _, meta = read_codes(tmp_path / (mode + ".codes"))
    train, _ = _split_points(80, 6, 3, 40, 40)
    want = (estimate_sigma_all(train) if mode == "all"
            else estimate_sigma_nn(train, 30) / 4.0)
    assert meta["config"]["resolved_sigma"] == want


def test_run_radius_and_threshold_options(tmp_path):
    assert main(run_args(tmp_path, "r2", "--radius", "2",
                         "--truth-threshold", "0.25")) == 0
    payload = json.loads((tmp_path / "r2.report.json").read_text())
    params = payload["reports"][0]["params"]
    assert params["resolved_radius"] == 2
    assert params["resolved_threshold"] == 0.25
    assert main(run_args(tmp_path, "bad", "--radius", "soon")) == 1
    assert main(run_args(tmp_path, "big", "--radius", "7")) == 1  # > k


def test_run_exit_codes(tmp_path, capsys):
    assert main(run_args(tmp_path, "m", "--method", "bogus")) == 1
    assert main(run_args(tmp_path, "g", "--method", "exact_d",
                         "--exact-guard", "5")) == 3
    assert main(["run", "--data", str(tmp_path / "absent.csv"),
                 "--out-prefix", str(tmp_path / "d")]) == 2
    both = run_args(tmp_path, "x", "--data", str(tmp_path / "absent.csv"))
    assert main(both) == 1  # --data and --uniform together
    assert main(["run", "--out-prefix", str(tmp_path / "none")]) == 1
    assert main(run_args(tmp_path, "s", "--sigma-mode", "fixed")) == 1
    assert main(run_args(tmp_path, "s2", "--sigma-mode", "fixed",
                         "--sigma-value", "0.5")) == 0
    too_big = ["run", "--uniform", "50", "--dim", "4", "--train", "40",
               "--test", "40", "--out-prefix", str(tmp_path / "o")]
    assert main(too_big) == 2  # split wants more points than exist
    # with a tiny sigma each training affinity row is a unit vector, so the
    # shrinks annihilate the sketch, and every test row underflows to zero
    zero = ["run", "--uniform", "300", "--train", "60", "--test", "100",
            "--dim", "10", "--k", "4", "--method", "ssbc_online",
            "--sigma-mode", "fixed", "--sigma-value", "1e-6",
            "--out-prefix", str(tmp_path / "zero")]
    capsys.readouterr()
    assert main(zero) == 3
    assert capsys.readouterr().err.startswith("ssbc: NumericalError: ")


def test_sigma_value_without_fixed_mode_is_refused(tmp_path, capsys):
    # an estimated sigma would be used while the config echoed the value
    inputs = ["--uniform", "80", "--dim", "6", "--train", "40", "--test", "40"]
    for argv in (run_args(tmp_path, "r", "--method", "lsh", "--sigma-value", "0.3"),
                 ["sweep"] + inputs + ["--methods", "lsh", "--k-list", "6",
                                       "--sigma-value", "0.3",
                                       "--out-prefix", str(tmp_path / "w")],
                 ["theory-check", "--uniform", "40", "--dim", "4", "--m", "15",
                  "--ell", "8", "--seeds", "1", "--sigma-mode", "all",
                  "--sigma-value", "0.3", "--out-prefix", str(tmp_path / "t")]):
        capsys.readouterr()
        assert main(argv) == 1, argv[0]
        assert "--sigma-value needs --sigma-mode fixed" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_data_seed_with_data_is_refused(tmp_path, capsys):
    # the seed would draw nothing while the config echoed it
    csv = tmp_path / "p.csv"
    csv.write_text("".join("%d,%d,%d\n" % (i, i * i % 7, i % 5) for i in range(80)))
    inputs = ["--data", str(csv), "--data-seed", "77"]
    split = ["--train", "40", "--test", "40"]
    for argv in (["run", "--method", "lsh", "--k", "4"] + split + inputs
                 + ["--out-prefix", str(tmp_path / "r")],
                 ["sweep", "--methods", "lsh", "--k-list", "4"] + split + inputs
                 + ["--out-prefix", str(tmp_path / "w")],
                 ["theory-check", "--m", "15", "--ell", "8", "--seeds", "1"] + inputs
                 + ["--out-prefix", str(tmp_path / "t")]):
        capsys.readouterr()
        assert main(argv) == 1, argv[0]
        assert "--data-seed seeds --uniform points, not --data" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [csv]


def test_options_of_the_other_data_source_are_refused(tmp_path, capsys):
    # each would be echoed in the config while the loaded points ignore it
    csv = tmp_path / "p.csv"
    csv.write_text("".join("%d,%d,%d\n" % (i, i * i % 7, i % 5) for i in range(80)))
    commands = (["run", "--method", "lsh", "--k", "4", "--train", "40", "--test", "40"],
                ["sweep", "--methods", "lsh", "--k-list", "4", "--train", "40",
                 "--test", "40"],
                ["theory-check", "--m", "15", "--ell", "8", "--seeds", "1"])
    refused = ((["--uniform", "80", "--delimiter", ";"], "--delimiter splits --data rows"),
               (["--uniform", "80", "--has-header"], "--has-header skips a --data header"),
               (["--uniform", "80", "--drop-columns", "3"],
                "--drop-columns drops --data columns"),
               (["--uniform", "80", "--drop-missing-rows"],
                "--drop-missing-rows drops --data rows"),
               (["--data", str(csv), "--dim", "999"], "--dim sizes --uniform points"))
    for command in commands:
        for inputs, message in refused:
            argv = command + inputs + ["--out-prefix", str(tmp_path / "x")]
            capsys.readouterr()
            assert main(argv) == 1, argv
            err = capsys.readouterr().err
            assert err.startswith("ssbc: ParameterError: ") and message in err, err
    assert list(tmp_path.iterdir()) == [csv]
    # a value equal to the default cannot be told from no value
    assert main(commands[0] + ["--data", str(csv), "--dim", "50",
                               "--out-prefix", str(tmp_path / "d")]) == 0


def test_timings_keep_one_entry_per_phase(tmp_path):
    assert main(run_args(tmp_path, "r", "--method", "lsh")) == 0
    timings = json.loads((tmp_path / "r.timings.json").read_text())["timings"]
    assert set(timings) == {"prepare", "truth", "lsh_k6_encode", "lsh_k6_eval"}
    assert all(seconds >= 0.0 for seconds in timings.values())

    # a phase that raises records nothing: exact_d fails its guard while encoding
    assert main(["sweep", "--uniform", "80", "--dim", "6", "--train", "40",
                 "--test", "40", "--methods", "lsh,exact_d", "--k-list", "4,6",
                 "--exact-guard", "5", "--out-prefix", str(tmp_path / "sw")]) == 3
    timings = json.loads((tmp_path / "sw.timings.json").read_text())["timings"]
    assert set(timings) == {"prepare", "truth", "lsh_k4_encode", "lsh_k4_eval",
                            "lsh_k6_encode", "lsh_k6_eval"}

    assert main(["theory-check", "--uniform", "40", "--dim", "4", "--m", "15",
                 "--ell", "8", "--seeds", "2",
                 "--out-prefix", str(tmp_path / "t")]) == 0
    timings = json.loads((tmp_path / "t.timings.json").read_text())["timings"]
    assert set(timings) == {"checks"}


def test_run_data_problems_exit_two_with_a_message(tmp_path, capsys):
    same = tmp_path / "same.csv"
    same.write_text("1,2,3\n" * 12)
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    for argv, message in (
            (["run", "--data", str(same), "--train", "4", "--test", "4", "--k", "2",
              "--method", "lsh", "--sigma-mode", "all",
              "--out-prefix", str(tmp_path / "same")], "estimated sigma is 0.0"),
            (run_args(tmp_path, "one", "--test", "1"), "split left"),
            (run_args(tmp_path, "blocker/r", "--method", "lsh"),
             "cannot create output directory")):
        assert main(argv) == 2, message
        err = capsys.readouterr().err
        assert err.startswith("ssbc: DataError: ") and message in err, err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["blocker", "same.csv"]


def test_out_dir_env_default(tmp_path, monkeypatch):
    monkeypatch.setenv("SSBC_OUT_DIR", str(tmp_path / "outs" / "deep"))
    args = run_args(tmp_path, "unused", "--method", "lsh")
    args = [a for a in args if not str(a).startswith(str(tmp_path / "unused"))]
    args.remove("--out-prefix")
    assert main(args) == 0
    assert (tmp_path / "outs" / "deep" / "lsh_k6_seed3.codes").exists()


def test_sweep_outputs(tmp_path):
    code = main(["sweep", "--uniform", "80", "--dim", "6", "--train", "40",
                 "--test", "40", "--seed", "1", "--methods", "lsh,exact_d",
                 "--k-list", "4,6", "--out-prefix", str(tmp_path / "sw")])
    assert code == 0
    payload = json.loads((tmp_path / "sw.report.json").read_text())
    got = [(r["method"], r["k"]) for r in payload["reports"]]
    assert got == [("lsh", 4), ("lsh", 6), ("exact_d", 4), ("exact_d", 6)]
    assert payload["failures"] == []
    lines = (tmp_path / "sw.report.csv").read_text().splitlines()
    summaries = [l for l in lines if ",summary," in l]
    assert len(summaries) == 4
    pr_rows = [l for l in lines if ",pr," in l]
    assert len(pr_rows) == (4 + 1) + (6 + 1) + (4 + 1) + (6 + 1)


def test_sweep_builds_ground_truth_once(tmp_path, monkeypatch):
    # every (method, k) cell is scored against the same test set and threshold
    calls = []
    truth = evaluation.ground_truth
    monkeypatch.setattr(evaluation, "ground_truth",
                        lambda *a, **kw: calls.append(a) or truth(*a, **kw))
    code = main(["sweep", "--uniform", "80", "--dim", "6", "--train", "40",
                 "--test", "40", "--seed", "1", "--methods", "ssbc_streaming,lsh",
                 "--k-list", "4,6", "--out-prefix", str(tmp_path / "sw")])
    assert code == 0
    assert len(calls) == 1
    payload = json.loads((tmp_path / "sw.report.json").read_text())
    assert len(payload["reports"]) == 4
    timings = json.loads((tmp_path / "sw.timings.json").read_text())["timings"]
    assert timings["truth"] >= 0.0


def test_sweep_aborts_on_failure_but_keeps_partial_results(tmp_path, capsys):
    code = main(["sweep", "--uniform", "80", "--dim", "6", "--train", "40",
                 "--test", "40", "--methods", "lsh,exact_d", "--k-list", "4",
                 "--exact-guard", "5", "--out-prefix", str(tmp_path / "sf")])
    assert code == 3
    assert "sweep aborted" in capsys.readouterr().err
    payload = json.loads((tmp_path / "sf.report.json").read_text())
    assert [(r["method"], r["k"]) for r in payload["reports"]] == [("lsh", 4)]
    assert payload["failures"] == [["exact_d", 4, "GuardError"]]
    lines = (tmp_path / "sf.report.csv").read_text().splitlines()
    assert any(l.endswith("failed:GuardError") for l in lines)


def test_a_radius_above_k_is_refused_before_the_data_is_read(tmp_path, capsys):
    # the data file does not exist, so any work before the check exits 2
    data = ["--data", str(tmp_path / "absent.csv"), "--out-prefix", str(tmp_path / "o")]
    for argv, k in ((["run", "--k", "8", "--radius", "9"], 8),
                    (["sweep", "--k-list", "30,8", "--radius", "9"], 8),
                    (["sweep", "--k-list", "8,30", "--radius", "-1"], 8)):
        assert main(argv + data) == 1, argv
        radius = argv[-1]
        assert capsys.readouterr().err == (
            "ssbc: ParameterError: radius must be an integer in [0, %d], got %s\n"
            % (k, radius))
    assert list(tmp_path.iterdir()) == []


def test_sweep_rejects_unknown_method(tmp_path):
    assert main(["sweep", "--uniform", "80", "--methods", "lsh,nope",
                 "--out-prefix", str(tmp_path / "x")]) == 1


def test_sweep_rejects_a_bad_k_list(tmp_path, capsys):
    for value, message in (("4,x", "expected comma-separated integers"),
                           (",", "expected at least one integer")):
        assert main(["sweep", "--uniform", "80", "--k-list", value,
                     "--out-prefix", str(tmp_path / "x")]) == 1
        assert message in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_theory_check_outputs_and_determinism(tmp_path):
    args = ["theory-check", "--uniform", "40", "--dim", "4", "--m", "15",
            "--ell", "8", "--seeds", "3", "--sigma-mode", "fixed",
            "--sigma-value", "0.4"]
    assert main(args + ["--out-prefix", str(tmp_path / "t1")]) == 0
    assert main(args + ["--out-prefix", str(tmp_path / "t2")]) == 0
    b1 = (tmp_path / "t1.theory.json").read_bytes()
    b2 = (tmp_path / "t2.theory.json").read_bytes()
    assert b1 == b2
    payload = json.loads(b1)
    assert len(payload["runs"]) == 3
    assert set(payload["medians"]) == {"errW2", "errHat", "errTilde"}
    assert payload["column_norms"]["cmin"] >= 1.0
    for run in payload["runs"]:
        assert run["errTilde"] <= run["errW2"] + run["errHat"] + 1e-9


def test_theory_check_exhaustive_and_guard(tmp_path, capsys):
    args = ["theory-check", "--uniform", "30", "--dim", "4", "--ell", "31",
            "--seeds", "1", "--exhaustive", "--sigma-mode", "fixed",
            "--sigma-value", "0.1", "--out-prefix", str(tmp_path / "ex")]
    assert main(args) == 0
    capsys.readouterr()
    payload = json.loads((tmp_path / "ex.theory.json").read_text())
    assert payload["runs"][0]["errTilde"] <= 1e-8
    guard_args = ["theory-check", "--uniform", "30", "--dim", "4",
                  "--guard", "29", "--out-prefix", str(tmp_path / "gg")]
    assert main(guard_args) == 3


def test_cli_usage_errors_exit_one():
    assert main([]) == 1
    assert main(["frobnicate"]) == 1


def test_bad_csv_options_exit_one_with_a_message(tmp_path, capsys):
    path = tmp_path / "p.csv"
    path.write_text("".join("%d,%d,%d\n" % (i, i * i, 7 - i) for i in range(8)))
    for option, value, message in (("--drop-columns", "a", "comma-separated integers"),
                                   ("--drop-columns", "-1", "drop column index"),
                                   ("--delimiter", "", "one character"),
                                   ("--delimiter", ";;", "one character")):
        argv = ["run", "--data", str(path), "--train", "3", "--test", "4",
                "--k", "2", "--method", "lsh", "--out-prefix",
                str(tmp_path / "bad"), option, value]
        assert main(argv) == 1, (option, value)
        err = capsys.readouterr().err
        assert err.startswith("ssbc: ParameterError: ") and message in err, err
    assert not list(tmp_path.glob("bad.*"))


def test_truth_threshold_zero_is_rejected_not_replaced_by_sigma(tmp_path, capsys):
    assert main(run_args(tmp_path, "z", "--truth-threshold", "0")) == 1
    assert "threshold must be positive" in capsys.readouterr().err
    assert not (tmp_path / "z.report.json").exists()
    code = main(["sweep", "--uniform", "80", "--dim", "6", "--train", "40",
                 "--test", "40", "--methods", "lsh", "--k-list", "4",
                 "--truth-threshold", "0", "--out-prefix", str(tmp_path / "zs")])
    assert code == 1
    payload = json.loads((tmp_path / "zs.report.json").read_text())
    assert payload["reports"] == []
    assert payload["failures"] == [["lsh", 4, "ParameterError"]]
    assert payload["config"]["resolved_threshold"] == 0.0


def test_theory_check_rejects_zero_seeds(tmp_path, capsys):
    args = ["theory-check", "--uniform", "40", "--dim", "4", "--seeds", "0",
            "--sigma-mode", "fixed", "--sigma-value", "0.4",
            "--out-prefix", str(tmp_path / "t0")]
    assert main(args) == 1
    assert "seeds must be an integer >= 1" in capsys.readouterr().err
    assert not (tmp_path / "t0.theory.json").exists()


# the settings every run/sweep cell reads, as echoed under "config"
CELL_KEYS = {"method", "k", "epsilon", "sigma_mode", "sigma_value",
             "truth_threshold", "hamming_radius", "seed", "data", "uniform",
             "dim", "data_seed", "delimiter", "has_header", "drop_columns",
             "drop_missing_rows", "zscore", "train", "test", "split_seed",
             "exact_guard"}
RESOLVED = {"resolved_sigma", "resolved_threshold", "resolved_radius"}


def test_each_config_echo_names_what_its_command_reads(tmp_path):
    assert main(run_args(tmp_path, "r", "--radius", "2")) == 0
    _, meta = read_codes(tmp_path / "r.codes")
    config = meta["config"]
    assert set(config) == CELL_KEYS | {"packed", "include_train"} | RESOLVED
    assert (config["hamming_radius"], config["resolved_radius"]) == (2, 2)
    assert config["data_seed"] == config["split_seed"] == config["seed"] == 3
    payload = json.loads((tmp_path / "r.report.json").read_text())
    assert payload["config"] == config
    assert payload["reports"][0]["params"] == dict(config, radius=2)

    assert main(["sweep", "--uniform", "80", "--dim", "6", "--train", "40",
                 "--test", "40", "--seed", "1", "--data-seed", "5",
                 "--methods", "lsh", "--k-list", "4",
                 "--out-prefix", str(tmp_path / "sw")]) == 0
    payload = json.loads((tmp_path / "sw.report.json").read_text())
    config = payload["config"]
    assert set(config) == ((CELL_KEYS - {"method", "k"}) | {"methods", "k_list"}
                           | RESOLVED) - {"resolved_radius"}
    assert (config["methods"], config["k_list"]) == (["lsh"], [4])
    assert (config["data_seed"], config["split_seed"]) == (5, 1)
    params = payload["reports"][0]["params"]
    assert set(params) == CELL_KEYS | RESOLVED | {"radius"}
    assert (params["method"], params["k"]) == ("lsh", 4)

    theory = ["theory-check", "--uniform", "40", "--dim", "4", "--m", "15",
              "--ell", "8", "--seeds", "1", "--sigma-mode", "fixed",
              "--sigma-value", "0.4"]
    assert main(theory + ["--out-prefix", str(tmp_path / "t")]) == 0
    config = json.loads((tmp_path / "t.theory.json").read_text())["config"]
    assert set(config) == {
        "command", "m", "ell", "seeds", "seed", "exhaustive", "rcond", "guard",
        "data", "uniform", "dim", "data_seed", "delimiter", "has_header",
        "drop_columns", "drop_missing_rows", "zscore", "sigma_mode",
        "sigma_value", "resolved_sigma", "sigma_note", "n"}
    timings = json.loads((tmp_path / "t.timings.json").read_text())
    assert timings["config"] == config
    # the threshold only matters to ground truth, which theory-check never builds
    assert main(theory + ["--truth-threshold", "0.3",
                          "--out-prefix", str(tmp_path / "tt")]) == 1


def _run_in_subprocess(tmp_path, tag, command, **env_vars):
    """Run one ssbc command in a fresh interpreter with env_vars set (a value
    of None unsets the variable). Returns the output prefix and everything
    the process printed."""
    paths = [os.path.dirname(os.path.dirname(ssbc.__file__)),
             os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    for name, value in env_vars.items():
        env.pop(name, None)
        if value is not None:
            env[name] = value
    prefix = str(tmp_path / tag)
    done = subprocess.run([sys.executable, "-m", "ssbc.cli"] + command
                          + ["--uniform", "1000", "--train", "200", "--test", "800",
                             "--seed", "7", "--out-prefix", prefix],
                          env=env, check=True, capture_output=True, text=True,
                          timeout=300)
    return prefix, done.stdout + done.stderr


def _assert_same_bytes(one, two, suffixes):
    for suffix in suffixes:
        with open(one + suffix, "rb") as a, open(two + suffix, "rb") as b:
            assert a.read() == b.read(), suffix


def _assert_same_under_one_and_two_threads(tmp_path, tag, command, suffixes):
    one, _ = _run_in_subprocess(tmp_path, tag + "_t1", command, OPENBLAS_NUM_THREADS="1")
    two, _ = _run_in_subprocess(tmp_path, tag + "_t2", command, OPENBLAS_NUM_THREADS="2")
    _assert_same_bytes(one, two, suffixes)


@pytest.mark.parametrize("method", ["ssbc_streaming", "ssbc_online", "lsh",
                                    "exact_d", "exact_r"])
def test_run_outputs_do_not_depend_on_blas_threads(tmp_path, method):
    _assert_same_under_one_and_two_threads(
        tmp_path, method, ["run", "--k", "20", "--method", method],
        (".codes", ".report.json", ".report.csv"))


def test_sweep_outputs_do_not_depend_on_blas_threads(tmp_path):
    _assert_same_under_one_and_two_threads(
        tmp_path, "sweep",
        ["sweep", "--methods", "ssbc_streaming,lsh", "--k-list", "8,16"],
        (".report.json", ".report.csv"))


def _cores(printed):
    """The kernels named by the Core lines OPENBLAS_VERBOSE=2 prints, one per
    OpenBLAS that numpy and scipy load."""
    return [line.split()[1] for line in printed.splitlines()
            if line.startswith("Core: ")]


def test_outputs_do_not_depend_on_the_blas_kernel(tmp_path):
    # OPENBLAS_CORETYPE picks another kernel only in a DYNAMIC_ARCH OpenBLAS,
    # the one build whose Core line says which kernel it took
    if platform.machine() not in ("x86_64", "AMD64"):
        pytest.skip("the forced kernels are x86-64 ones")
    commands = {
        "run": (["run", "--k", "20", "--method", "ssbc_online"],
                (".codes", ".report.json", ".report.csv")),
        "sweep": (["sweep", "--methods", "ssbc_streaming,lsh,exact_r", "--k-list", "8,16"],
                  (".report.json", ".report.csv")),
    }
    default = {}
    for name, (command, _) in commands.items():
        default[name], printed = _run_in_subprocess(
            tmp_path, name, command, OPENBLAS_VERBOSE="2", OPENBLAS_CORETYPE=None)
        if not _cores(printed):
            pytest.skip("the BLAS is not a DYNAMIC_ARCH OpenBLAS: "
                        "OPENBLAS_VERBOSE=2 named no kernel")
    # Prescott runs the kernels OpenBLAS names Katmai
    for kernel, core in (("Haswell", "Haswell"), ("Prescott", "Katmai")):
        for name, (command, suffixes) in commands.items():
            prefix, printed = _run_in_subprocess(
                tmp_path, name + "_" + kernel, command, OPENBLAS_VERBOSE="2",
                OPENBLAS_CORETYPE=kernel)
            cores = _cores(printed)
            assert cores and set(cores) == {core}, (kernel, printed)
            _assert_same_bytes(default[name], prefix, suffixes)
