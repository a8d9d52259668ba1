#!/usr/bin/env python3
"""Benchmark of rootseq: run one workload and print its metrics as the last
line of standard output.

    python3 perfbench/run.py --workload {denom-e7,radius-e8,coarse-oracle}
                             --seed N --seconds S --trace {0,1}

Run from the root of a checkout.  With ``--trace 0`` one untimed set-up
process warms the file cache, the set-up is timed in SETUP_RUNS fresh
processes, then whole rounds (each in a fresh process with cold caches) run
one after another until S seconds have passed.  Every time is scaled to the
reference host speed (``hostspeed``); the end-to-end metrics are medians
over the run, and the times as measured are printed on the line above the
result.  With ``--trace 1`` one untraced and one traced round run, and the
per-layer counts and times of the traced round are printed as measured
(``trace.overhead_s`` at reference speed).
The exit code is 0 only if every check accepted every output.
"""

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
import time

import hostspeed
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_RUNS = 3
PROCESS_TIMEOUT_S = 170


def worker(args, items, mode, deadline):
    """One workload process; a round's results are checked here."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), args.workload, mode],
        input=json.dumps(items),
        stdout=subprocess.PIPE,
        env=dict(os.environ, PYTHONHASHSEED="0"),
        timeout=max(1.0, deadline - time.monotonic()),
        check=True,
        text=True,
    )
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    if mode != "setup":
        out["errors"], out["notes"] = workloads.check(args.workload, items, out.pop("results"))
    return out


def setup_at_ref(r):
    """A set-up time scaled by the median of the slices after it."""
    return hostspeed.at_ref(r["setup_s"], statistics.median(r["setup_slices"]))


def round_slices(r):
    """The slices of a round process: after its set-up and after each item."""
    return r["setup_slices"] + [t for ts in r["item_slices"] for t in ts]


def at_ref(r, key):
    """A round's item times scaled by the mean slice of the round."""
    mean_slice = statistics.fmean(round_slices(r))
    return [hostspeed.at_ref(t, mean_slice) for t in r[key]]


def items_at_ref(r):
    """Each item's time scaled by the slices next to it in time: the last
    one before it and those after it (more after a longer item)."""
    before = r["setup_slices"][-1:] + [ts[-1] for ts in r["item_slices"][:-1]]
    return [
        hostspeed.at_ref(t, statistics.fmean([b] + after))
        for t, b, after in zip(r["item_s"], before, r["item_slices"])
    ]


def result_line(rounds, metrics):
    return {
        "correct": not any(r["errors"] for r in rounds),
        "attempted": sum(len(r["item_s"]) for r in rounds),
        "failed": sum(len(r["failures"]) for r in rounds),
        "metrics": metrics,
    }


def end_to_end(args, inputs, deadline):
    worker(args, inputs[0], "setup", deadline)  # warm-up, not timed
    setups = [worker(args, inputs[0], "setup", deadline) for _ in range(SETUP_RUNS)]
    rounds = []
    start = time.monotonic()
    while not rounds or time.monotonic() - start < args.seconds:
        rounds.append(worker(args, inputs[len(rounds) % len(inputs)], "round", deadline))
    med = statistics.median
    metrics = {
        "wall_s": (med(sum(at_ref(r, "item_s")) for r in rounds), "s"),
        "item_p50_ms": (1000 * med(t for r in rounds for t in items_at_ref(r)), "ms"),
        "cpu_s": (med(sum(at_ref(r, "item_cpu_s")) for r in rounds), "s"),
        "setup_s": (med(setup_at_ref(r) for r in setups + rounds), "s"),
        "peak_rss_mb": (med(r["peak_rss_mb"] for r in rounds), "MB"),
    }
    slices = [t for r in rounds for t in round_slices(r)]
    measured = (
        f"as measured: wall_s {med(sum(r['item_s']) for r in rounds):.4g}, "
        f"item_p50_ms {1000 * med(t for r in rounds for t in r['item_s']):.4g}, "
        f"setup_s {med(r['setup_s'] for r in setups + rounds):.4g}; "
        f"host slice median {1000 * med(slices):.4g} ms, "
        f"reference {1000 * hostspeed.REF_SLICE_S:.4g} ms; {len(rounds)} round(s)"
    )
    return rounds, metrics, [measured]


def per_layer(args, inputs, deadline):
    plain = worker(args, inputs[0], "round", deadline)
    traced = worker(args, inputs[0], "trace", deadline)
    metrics = {
        name: (value, "s" if name.endswith("_s") or name.endswith(".s") else "count")
        for name, value in traced["layers"].items()
    }
    # both at reference speed, so that the host's drift between them cancels
    overhead = sum(at_ref(traced, "item_s")) - sum(at_ref(plain, "item_s"))
    metrics["trace.overhead_s"] = (overhead, "s")
    return [plain, traced], metrics, []


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join("src", "rootseq", "__init__.py")):
        print("perfbench: run from the root of a rootseq checkout "
              "(src/rootseq not found)", file=sys.stderr)
        return 2
    # byte-compile once, so no set-up pays for compilation
    compileall.compile_dir("src", quiet=1)
    compileall.compile_dir(HERE, quiet=1)

    deadline = time.monotonic() + PROCESS_TIMEOUT_S
    run = per_layer if args.trace else end_to_end
    rounds, metrics, lines = run(args, workloads.make_inputs(args.workload, args.seed), deadline)
    for line in dict.fromkeys(m for r in rounds for m in r["failures"] + r["notes"]):
        print(f"{args.workload}: {line}")
    for r in rounds:
        for line in r["errors"]:
            print(f"{args.workload}: REJECTED {line}")
    for line in lines:
        print(f"{args.workload}: {line}")
    result = result_line(rounds, {
        name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
    })
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
