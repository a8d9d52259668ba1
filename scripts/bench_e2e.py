#!/usr/bin/env python3
"""Time end-to-end CLI runs of a parent revision against the working tree, in
alternating runs.

    python3 scripts/bench_e2e.py --parent REV --out BENCH_e2e.json [--pairs 3]

Run from the root of a checkout.  REV is exported as by
``scripts/bench_compare.py`` (``git archive``, no worktree).  Each command
below runs as its own process with ``PYTHONPATH=src``, in the parent's copy
and in this tree, one after the other, for the given number of pairs; the
side that goes first alternates from pair to pair:

- ``rootseq verify rds-mul --type E8 --all-orientations --format json``
- ``rootseq denom table --type E8 --all-orientations``
- ``scripts/verify_all.py``

Each run records its wall time, the peak RSS of the child (``ru_maxrss`` of
the rusage that ``wait4`` returns for it, its own share of
``RUSAGE_CHILDREN``), its exit code and the sha256 of its stdout.  The
output JSON holds every run and, per command, the medians of wall time and
peak RSS on each side with the parent's quartiles and the number of pairs
in which the change was lower.  The exit code is 0 when every run of a
command, on both sides, printed the same stdout and exited with the same
code, and 1 otherwise.  (``verify rds-mul`` exits 1 on E8 on both sides:
the radius differs from the multiplicity there, a finding of the library.)
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
import time

from bench_compare import compare, export, order, revisions

CLI = ["-m", "rootseq.cli"]
COMMANDS = {
    "verify rds-mul E8": CLI + ["verify", "rds-mul", "--type", "E8",
                                "--all-orientations", "--format", "json"],
    "denom table E8": CLI + ["denom", "table", "--type", "E8", "--all-orientations"],
    "verify_all": ["scripts/verify_all.py"],
}


def run(tree, argv):
    """Run python with argv in the tree, its src first on the path."""
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"))
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, *argv], cwd=tree, env=env,
                            stdout=subprocess.PIPE)
    out = proc.stdout.read()
    proc.stdout.close()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall_s": wall, "peak_rss_mb": usage.ru_maxrss / 1024,
            "exit": proc.returncode, "stdout_sha256": hashlib.sha256(out).hexdigest()}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="git revision to compare with")
    ap.add_argument("--out", required=True, help="JSON file to write")
    ap.add_argument("--pairs", type=int, default=3, help="pairs of runs per command")
    args = ap.parse_args()

    rev, change = revisions(args.parent)
    report = {"parent": rev, "change": change, "pairs": args.pairs, "workloads": {}}
    ok = True
    with tempfile.TemporaryDirectory(prefix="bench-parent-") as parent_tree:
        export(rev, parent_tree)
        trees = {"parent": parent_tree, "change": os.getcwd()}
        for name, argv in COMMANDS.items():
            runs = []
            for k in range(args.pairs):
                for side in order(k):
                    runs.append({"side": side, "pair": k, **run(trees[side], argv)})
                    r = runs[-1]
                    print(f"{name} pair {k} {side}: exit {r['exit']}, "
                          f"wall_s {r['wall_s']:.3f}, peak_rss_mb {r['peak_rss_mb']:.1f}",
                          flush=True)
            identical = len({(r["exit"], r["stdout_sha256"]) for r in runs}) == 1
            ok = ok and identical
            by_side = {s: [r for r in runs if r["side"] == s] for s in ("parent", "change")}
            report["workloads"][name] = {
                "argv": argv,
                "identical": identical,
                "medians": {
                    metric: compare([r[metric] for r in by_side["parent"]],
                                    [r[metric] for r in by_side["change"]])
                    for metric in ("wall_s", "peak_rss_mb")
                },
                "runs": runs,
            }
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    for name, entry in report["workloads"].items():
        for metric, m in entry["medians"].items():
            pct = "" if m["change_pct"] is None else f"{m['change_pct']:+.1f} %, "
            print(f"{name} {metric}: {m['parent']:.4g} -> {m['change']:.4g} "
                  f"({pct}lower in {m['pairs_lower']})")
        print(f"{name}: {'identical' if entry['identical'] else 'OUTPUTS DIFFER'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
