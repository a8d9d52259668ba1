#!/usr/bin/env python3
"""Time end-to-end CLI runs of a parent revision against the working tree, in
alternating runs.

    python3 scripts/bench_e2e.py --parent REV --out BENCH_e2e.json [--pairs 3]

Run from the root of a checkout.  REV is exported as by
``scripts/bench_compare.py`` (``git archive``, no worktree).  Each command
below runs as its own process with ``PYTHONPATH=src``, in the parent's copy
and in this tree, one after the other, for the given number of pairs; the
side that goes first alternates from pair to pair:

- ``rootseq verify rds-mul --type E8 --format json``, every orientation
- ``rootseq denom table --type E8 --all-orientations``
- ``rootseq denom table --type E8 --all-orientations --check-all`` (about
  1 s, as the table without it)
- ``rootseq denom table --type E8 --orient 3>1,3>4,4>2,4>5,5>6,6>7,7>8
  --check-all``: one orientation, while ``--check-all`` checks the whole
  system whatever ``--orient`` says (the premise of all 672 E8 reflections
  and one gdist per ordered slot, 952, on every Gamma_Q)
- ``rootseq denom table --type E7 --all-orientations``: the CLI form of the
  denom-e7 workload, less bound by start-up than the E6 row
- ``rootseq denom table --type E6``, one orientation: bound by start-up
- ``rootseq arq show --type E8 --orient 3>1,3>4,4>2,4>5,5>6,6>7,7>8``:
  bound by start-up; the root system, one Gamma_Q and its print
- ``scripts/verify_all.py``
- ``scripts/radius_survey.py --systems E6,E7,E8`` (it prints the time of
  each survey rounded to 0.1 s, about 0.01 s each, so a run slowed past
  0.05 s shows as a differing output)

Each run records its wall time, the peak RSS of the child, its exit code and
two sha256 digests of its stdout: one over the echo lines, the lines that
start with ``rootseq `` (``verify_all.py`` prints the argv of each CLI run
before running it), and one over the result lines, all the others.  The
child starts through ``LAUNCHER``, which runs
the command with ``runpy`` and at exit writes its own ``VmHWM`` from
``/proc/self/status`` to a file that this script reads.  (``ru_maxrss`` would
start at this script's resident set at the fork, which Linux keeps across
``exec``.)  Each side reads its bytecode from a cache of its own, compiled
before the first run (``PYTHONPYCACHEPREFIX``): otherwise a tree that holds
``__pycache__`` would start faster and smaller than the fresh export, by
about 30 ms and 1 MB, whenever ``PYTHONDONTWRITEBYTECODE`` is set.

The output JSON holds every run and, per command, the medians of wall time
and peak RSS on each side with the parent's quartiles, whether the change's
median lies between them (printed as "inside the parent's spread": the runs
cannot tell such a change from noise) and the number of pairs in which the
change was lower.  The exit code is 0 when every run of a
command, on both sides, printed the same result lines and exited with the
same code, and 1 otherwise.  Echo lines that differ (a change to how the
sweep spells a command) are reported as a note and do not change the exit
code.  (``verify rds-mul`` exits 1 on E8 on both sides: the radius differs
from the multiplicity there, a finding of the library.)
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
import time

from bench_compare import compare, describe, export, order, revisions

CLI = ["-m", "rootseq.cli"]
COMMANDS = {
    "verify rds-mul E8": CLI + ["verify", "rds-mul", "--type", "E8", "--format", "json"],
    "denom table E8": CLI + ["denom", "table", "--type", "E8", "--all-orientations"],
    "denom table E8 check-all": CLI + ["denom", "table", "--type", "E8",
                                       "--all-orientations", "--check-all"],
    "denom table E8 reference check-all": CLI + [
        "denom", "table", "--type", "E8", "--orient", "3>1,3>4,4>2,4>5,5>6,6>7,7>8",
        "--check-all"],
    "denom table E7": CLI + ["denom", "table", "--type", "E7", "--all-orientations"],
    "denom table E6": CLI + ["denom", "table", "--type", "E6"],
    "arq show E8": CLI + ["arq", "show", "--type", "E8",
                          "--orient", "3>1,3>4,4>2,4>5,5>6,6>7,7>8"],
    "verify_all": ["scripts/verify_all.py"],
    "radius_survey": ["scripts/radius_survey.py", "--systems", "E6,E7,E8"],
}

# the start of an echo line: scripts/verify_all.py prints "rootseq ARGV..."
# before each CLI run
ECHO = b"rootseq "


# python -c LAUNCHER FILE ARGV...: runs ARGV (a script, or -m and a module)
# as python would and, at exit, writes its own peak resident set in kB
# (VmHWM) to FILE
LAUNCHER = """
import atexit, os, runpy, sys
out, argv = sys.argv[1], sys.argv[2:]

def peak():
    with open('/proc/self/status') as fh:
        kb = next(line.split()[1] for line in fh if line.startswith('VmHWM:'))
    with open(out, 'w') as fh:
        fh.write(kb)

atexit.register(peak)
if argv[0] == '-m':
    sys.argv, sys.path[0] = argv[1:], os.getcwd()
    runpy.run_module(argv[1], run_name='__main__', alter_sys=True)
else:
    sys.argv, sys.path[0] = argv, os.path.dirname(os.path.abspath(argv[0]))
    runpy.run_path(argv[0], run_name='__main__')
"""


def environment(tree, pycache):
    """The environment of a run in the tree: its src first on the path, and
    bytecode read from and written to pycache alone."""
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"),
               PYTHONPYCACHEPREFIX=pycache)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def digests(stdout):
    """The sha256 of the echo lines of stdout and of its result lines."""
    lines = stdout.splitlines(keepends=True)
    echo = b"".join(line for line in lines if line.startswith(ECHO))
    result = b"".join(line for line in lines if not line.startswith(ECHO))
    return {"echo_sha256": hashlib.sha256(echo).hexdigest(),
            "result_sha256": hashlib.sha256(result).hexdigest()}


def run(tree, argv, env):
    """Run python with argv in the tree."""
    with tempfile.TemporaryDirectory(prefix="bench-e2e-") as tmp:
        peak = os.path.join(tmp, "vmhwm_kb")
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", LAUNCHER, peak, *argv],
                              cwd=tree, env=env, stdout=subprocess.PIPE)
        wall = time.perf_counter() - start
        with open(peak) as fh:
            peak_kb = int(fh.read())
    return {"wall_s": wall, "peak_rss_mb": peak_kb / 1024, "exit": proc.returncode,
            **digests(proc.stdout)}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="git revision to compare with")
    ap.add_argument("--out", required=True, help="JSON file to write")
    ap.add_argument("--pairs", type=int, default=3, help="pairs of runs per command")
    args = ap.parse_args()

    rev, change = revisions(args.parent)
    report = {"parent": rev, "change": change, "pairs": args.pairs, "workloads": {}}
    ok = True
    with tempfile.TemporaryDirectory(prefix="bench-parent-") as parent_tree, \
            tempfile.TemporaryDirectory(prefix="bench-pycache-") as pycache:
        export(rev, parent_tree)
        trees = {"parent": parent_tree, "change": os.getcwd()}
        envs = {side: environment(tree, os.path.join(pycache, side))
                for side, tree in trees.items()}
        for side, tree in trees.items():
            subprocess.run([sys.executable, "-m", "compileall", "-q", "src"],
                           cwd=tree, env=envs[side], check=True)
        for name, argv in COMMANDS.items():
            runs = []
            for k in range(args.pairs):
                for side in order(k):
                    runs.append({"side": side, "pair": k,
                                 **run(trees[side], argv, envs[side])})
                    r = runs[-1]
                    print(f"{name} pair {k} {side}: exit {r['exit']}, "
                          f"wall_s {r['wall_s']:.3f}, peak_rss_mb {r['peak_rss_mb']:.1f}",
                          flush=True)
            identical = len({(r["exit"], r["result_sha256"]) for r in runs}) == 1
            ok = ok and identical
            by_side = {s: [r for r in runs if r["side"] == s] for s in ("parent", "change")}
            report["workloads"][name] = {
                "argv": argv,
                "identical": identical,
                "echo_identical": len({r["echo_sha256"] for r in runs}) == 1,
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
            print(describe(f"{name} {metric}", m))
        print(f"{name}: {'identical' if entry['identical'] else 'OUTPUTS DIFFER'}")
        if not entry["echo_identical"]:
            print(f"{name}: note: the echoed command lines differ")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
