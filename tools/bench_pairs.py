"""Alternate perfbench runs of two checkouts and write the record as JSON.

Runs `perfbench/run.py` of one workload and seed N times in each of a
parent and a change checkout, alternating, each run in its own process
with the checkout as working directory and perfbench's own run length.
Pair i runs the parent first when i is even and the change first when it
is odd, so neither side always runs on a host the other has just warmed.
Writes bench/BENCH_<label>.json under the current directory:

* per side: every run's end-to-end metrics, failed and attempted counts,
  correctness flag and round count, and the `# machine` record of its
  first run (cores, BLAS and its threads, git sha), and the checkout's
  HEAD with whether its working tree is dirty;
* per metric: each side's median and quartiles, the change/parent ratio
  of the medians, and how many pairs the change won, with "better" read
  from the change checkout's BENCHMARK.json.

    python tools/bench_pairs.py --parent ../parent --change . \\
        --workload stream-batch --seed 1000 --pairs 10 --label stream-batch

Both checkouts run under the interpreter that runs this script. A run
that exits non-zero or prints no result line stops the script.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def run_once(checkout, workload, seed):
    """One perfbench run: its result line, machine record and round count."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        raise SystemExit("bench_pairs: %s in %s exited %d:\n%s"
                         % (" ".join(cmd), checkout, proc.returncode, proc.stderr))
    result = json.loads(lines[-1])
    machine, rounds = None, None
    for line in lines:
        if line.startswith("# machine "):
            machine = json.loads(line[len("# machine "):])
        elif line.startswith("# workload "):
            words = line.split()
            rounds = int(words[words.index("rounds") + 1])
    return {"metrics": {name: m["value"] for name, m in result["metrics"].items()},
            "failed": result["failed"], "attempted": result["attempted"],
            "correct": result["correct"], "rounds": rounds}, machine


def tree_state(checkout):
    """HEAD and whether the working tree differs from it, or None without git.

    perfbench records HEAD only, so a change measured before it is
    committed shows its parent's sha; "dirty" marks that case.
    """
    try:
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=checkout,
                              capture_output=True, text=True, check=True)
        status = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"],
                                cwd=checkout, capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return {"head": head.stdout.strip(), "dirty": bool(status.stdout.strip())}


def spread(values):
    """Median and quartiles (inclusive method; equal to the median for one value)."""
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarise(parent_runs, change_runs, better):
    summary = {}
    for name, direction in better.items():
        before = [run["metrics"][name] for run in parent_runs]
        after = [run["metrics"][name] for run in change_runs]
        sign = 1.0 if direction == "higher" else -1.0
        p, c = spread(before), spread(after)
        summary[name] = {
            "better": direction, "parent": p, "change": c,
            "ratio": c["median"] / p["median"] if p["median"] else None,
            "change_wins": sum(sign * (a - b) > 0 for a, b in zip(after, before)),
        }
    return summary


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="parent checkout")
    parser.add_argument("--change", required=True, help="changed checkout")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1000)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--label", required=True, help="file name is bench/BENCH_<label>.json")
    args = parser.parse_args(argv)

    with open(os.path.join(args.change, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}

    sides = {"parent": args.parent, "change": args.change}
    runs = {side: [] for side in sides}
    machines = {}
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            run, machine = run_once(sides[side], args.workload, args.seed)
            runs[side].append(run)
            machines.setdefault(side, machine)
            sys.stderr.write("pair %d %s: %s\n" % (i, side, json.dumps(run["metrics"])))

    record = {
        "workload": args.workload, "seed": args.seed, "pairs": args.pairs,
        "sides": {side: {"machine": machines[side], "tree": tree_state(sides[side]),
                         "runs": runs[side]} for side in sides},
        "summary": summarise(runs["parent"], runs["change"], better),
    }
    os.makedirs("bench", exist_ok=True)
    path = os.path.join("bench", "BENCH_%s.json" % args.label)
    with open(path, "w") as handle:
        json.dump(record, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
