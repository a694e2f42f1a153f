"""tools/bench_pairs.py alternates which checkout runs first in a pair and
says whether a gain is resolved."""

import importlib.util
import json
import pathlib

TOOL = pathlib.Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"


def _tool():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_side_that_runs_first_alternates_and_is_recorded(tmp_path, monkeypatch):
    tool = _tool()
    parent, change = tmp_path / "parent", tmp_path / "change"
    parent.mkdir()
    change.mkdir()
    (change / "BENCHMARK.json").write_text(json.dumps(
        {"end_to_end": [{"name": "pipeline_s", "better": "lower"}]}))
    calls = []

    def fake_run_once(checkout, workload, seed):
        calls.append(pathlib.Path(checkout).name)
        # the change is faster in every pair, by a margin smaller than the
        # drift between pairs, so a misaligned pairing would lose pairs
        value = 10.0 * ((len(calls) - 1) // 2) + (0.0 if calls[-1] == "change" else 1.0)
        return ({"metrics": {"pipeline_s": value}, "failed": 0, "attempted": 1,
                 "correct": True, "rounds": 1}, {"cores": 2})

    monkeypatch.setattr(tool, "run_once", fake_run_once)
    monkeypatch.setattr(tool, "tree_state", lambda checkout: None)
    monkeypatch.chdir(tmp_path)
    assert tool.main(["--parent", str(parent), "--change", str(change),
                      "--workload", "stream-batch", "--pairs", "4",
                      "--label", "t"]) == 0
    assert calls == ["parent", "change", "change", "parent",
                     "parent", "change", "change", "parent"]
    record = json.loads((tmp_path / "bench" / "BENCH_t.json").read_text())
    assert record["first"] == ["parent", "change", "parent", "change"]
    assert record["summary"]["pipeline_s"]["change_wins"] == 4


def test_a_gain_is_resolved_only_with_nine_tenths_of_the_pairs_and_the_spread(
        tmp_path, monkeypatch):
    tool = _tool()
    parent, change = tmp_path / "parent", tmp_path / "change"
    parent.mkdir()
    change.mkdir()
    (change / "BENCHMARK.json").write_text(json.dumps({"end_to_end": [
        {"name": "pipeline_s", "better": "lower"},
        {"name": "encode_rows_per_s", "better": "higher"},
        {"name": "peak_rss_mb", "better": "lower"}]}))
    done = {"parent": 0, "change": 0}

    def fake_run_once(checkout, workload, seed):
        side = pathlib.Path(checkout).name
        i = done[side]
        done[side] += 1
        if side == "parent":
            metrics = {"pipeline_s": 10.0 + 0.1 * i, "encode_rows_per_s": 100.0 + i,
                       "peak_rss_mb": 200.0 + i}
        else:
            metrics = {
                # nine wins by more than the parent's quartile spread of 0.45
                "pipeline_s": 20.0 if i == 9 else 9.0 + 0.1 * i,
                # ten wins, by less than the parent's spread of 4.5
                "encode_rows_per_s": 100.5 + i,
                # a far lower median, but only eight wins
                "peak_rss_mb": 300.0 if i < 2 else 100.0,
            }
        return ({"metrics": metrics, "failed": 0, "attempted": 1, "correct": True,
                 "rounds": 7 if side == "parent" else 8 + i % 2}, {"cores": 2})

    monkeypatch.setattr(tool, "run_once", fake_run_once)
    monkeypatch.setattr(tool, "tree_state", lambda checkout: None)
    monkeypatch.chdir(tmp_path)
    assert tool.main(["--parent", str(parent), "--change", str(change),
                      "--workload", "stream-batch", "--pairs", "10",
                      "--label", "t"]) == 0
    summary = json.loads((tmp_path / "bench" / "BENCH_t.json").read_text())["summary"]
    assert [(summary[name]["change_wins"], summary[name]["gain_resolved"])
            for name in ("pipeline_s", "encode_rows_per_s", "peak_rss_mb")] == [
        (9, True), (10, False), (8, False)]
    assert summary["rounds"] == {"parent": {"median": 7, "q1": 7, "q3": 7},
                                 "change": {"median": 8.5, "q1": 8.0, "q3": 9.0}}
