"""tools/bench_pairs.py alternates which checkout runs first in a pair."""

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
