#!/usr/bin/env python3
"""Benchmark a parent revision against the working tree, in alternating runs.

    python3 scripts/bench_compare.py --parent REV --seed N --out BENCH.json
        [--pairs denom-e7=10,radius-e8=10,coarse-oracle=10]

Run from the root of a checkout.  REV is exported with
``git archive REV | tar -x`` into a temporary directory (no worktree, nothing
written under ``.git``).  For each workload, ``python3 perfbench/run.py
--workload W --seed N --seconds S --trace 0``, with S the ``run_seconds`` of
this tree's ``BENCHMARK.json``, then runs in the parent's copy
and in this tree, one after the other, for the given number of pairs; the
side that goes first alternates from pair to pair.  The benchmark is only
run as a command, never imported.

The output JSON holds every run (its exit code, its output lines and its
result line) and, per workload and metric, the median of each side, the
change in per cent, the parent's quartiles, whether the change's median lies
between them and the number of pairs in which the change was lower; a median
between the parent's quartiles is printed as "inside the parent's spread".  The exit code is 0 when every run exited 0 with
``"correct": true`` and both sides printed the same notes (the lines above
the result that report what the checks saw, apart from the timings), and 1
otherwise.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile

DEFAULT_PAIRS = "denom-e7=10,radius-e8=10,coarse-oracle=10"


def run_bench(tree, workload, seed, seconds):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, stdout=subprocess.PIPE, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return {"exit": proc.returncode, "lines": lines[:-1], "result": result}


def notes(run):
    """What the checks reported, without the timing line."""
    return [line for line in run["lines"] if ": as measured:" not in line]


def compare(before, after):
    """The medians of one metric on each side, the change in per cent, the
    parent's quartiles, whether the change's median lies between them (then
    the runs cannot tell the two sides apart), and the number of pairs in
    which the change was lower."""
    med_b, med_a = statistics.median(before), statistics.median(after)
    quartiles = statistics.quantiles(before, n=4) if len(before) > 1 else None
    return {
        "parent": med_b,
        "change": med_a,
        "change_pct": 100 * (med_a - med_b) / med_b if med_b else None,
        "parent_quartiles": quartiles,
        "inside_parent_quartiles": quartiles[0] <= med_a <= quartiles[2] if quartiles else None,
        "pairs_lower": f"{sum(a < b for a, b in zip(after, before))}/{len(before)}",
    }


def describe(label, m):
    """One line for a metric compared by ``compare``."""
    pct = "" if m["change_pct"] is None else f"{m['change_pct']:+.1f} %, "
    spread = ", inside the parent's spread" if m["inside_parent_quartiles"] else ""
    return (f"{label}: {m['parent']:.4g} -> {m['change']:.4g} "
            f"({pct}lower in {m['pairs_lower']}{spread})")


def summary(runs):
    sides = {s: [r for r in runs if r["side"] == s] for s in ("parent", "change")}
    values = {
        s: {name: [r["result"]["metrics"][name]["value"] for r in rs]
            for name in rs[0]["result"]["metrics"]}
        for s, rs in sides.items()
    }
    return {name: compare(before, values["change"][name])
            for name, before in values["parent"].items()}


def revisions(parent):
    """The full hash of the parent revision and a description of the change:
    HEAD, marked when tracked files have uncommitted changes."""
    def git(*argv):
        return subprocess.run(["git", *argv], check=True, stdout=subprocess.PIPE,
                              text=True).stdout.strip()

    dirty = bool(git("status", "--porcelain", "--untracked-files=no"))
    return git("rev-parse", parent), git("rev-parse", "HEAD") + (
        " with uncommitted changes" if dirty else "")


def export(rev, dest):
    """Write the files of a revision into dest with ``git archive`` (no
    worktree, nothing written under ``.git``)."""
    archive = subprocess.Popen(["git", "archive", rev], stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", dest], stdin=archive.stdout, check=True)
    if archive.wait():
        sys.exit(f"git archive {rev} failed")


def order(k):
    """The sides of pair k in the order they run: the first alternates."""
    return ("parent", "change") if k % 2 == 0 else ("change", "parent")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="git revision to compare with")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True, help="JSON file to write")
    ap.add_argument("--pairs", default=DEFAULT_PAIRS, help="workload=pairs,...")
    args = ap.parse_args()
    pairs = {w: int(n) for w, n in (item.split("=") for item in args.pairs.split(","))}
    with open("BENCHMARK.json") as fh:
        seconds = json.load(fh)["run_seconds"]

    rev, change = revisions(args.parent)
    report = {"parent": rev, "change": change,
              "seed": args.seed, "seconds": seconds, "workloads": {}}
    ok = True
    with tempfile.TemporaryDirectory(prefix="bench-parent-") as parent_tree:
        export(rev, parent_tree)
        trees = {"parent": parent_tree, "change": os.getcwd()}
        for workload, n in pairs.items():
            runs = []
            for k in range(n):
                for side in order(k):
                    run = run_bench(trees[side], workload, args.seed, seconds)
                    runs.append({"side": side, "pair": k, **run})
                    wall = run["result"]["metrics"]["wall_s"]["value"] if run["result"] else None
                    print(f"{workload} pair {k} {side}: exit {run['exit']}, wall_s {wall}",
                          flush=True)
            correct = all(r["exit"] == 0 and r["result"] and r["result"]["correct"]
                          for r in runs)
            same_notes = len({tuple(notes(r)) for r in runs}) == 1
            ok = ok and correct and same_notes
            report["workloads"][workload] = {
                "all_correct": correct,
                "same_notes": same_notes,
                "medians": summary(runs) if correct else None,
                "runs": runs,
            }
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    for workload, entry in report["workloads"].items():
        for name, m in (entry["medians"] or {}).items():
            print(describe(f"{workload} {name}", m))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
