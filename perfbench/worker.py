"""One workload process: read one round's items, set up, optionally run every
item once, and print one JSON line.

    python3 perfbench/worker.py WORKLOAD {setup,round,trace} < items.json

Run from the root of a checkout.  ``setup`` stops after the set-up;
``round`` times every item with tracing off; ``trace`` installs the tracer
before the set-up and also reports the per-layer counts and times.  After
the set-up and after every item the process times a slice of fixed work
(``hostspeed``), from which ``run.py`` reads the host's speed at that moment.
"""

import time

PROCESS_START = time.perf_counter()  # set-up is timed from here

import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

SETUP_SLICES = 3


def status_mb(field):
    """A memory figure of this process from /proc/self/status, in MB.
    (``ru_maxrss`` would also hold the parent's resident set at the time of
    the fork, which Linux keeps across ``exec``.)"""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith(field + ":"):
                return int(line.split()[1]) / 1024
    raise LookupError(field)


def main(argv):
    name, mode = argv
    inputs = json.load(sys.stdin)
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    from workloads import WORKLOADS

    tracer = None
    if mode == "trace":
        import rootseq.denom  # noqa: F401  (loads every module the workloads use)
        import spans

        tracer = spans.Tracer()
        spans.install(tracer)
    workload = WORKLOADS[name](inputs)
    out = {"setup_s": time.perf_counter() - PROCESS_START}
    import hostspeed  # after the set-up is timed

    # the slice's table is not the workload's memory: take it out of the peak
    hwm0, rss0 = status_mb("VmHWM"), status_mb("VmRSS")
    hostspeed.build()
    table_mb = status_mb("VmRSS") - rss0
    out["setup_slices"] = [hostspeed.slice_s() for _ in range(SETUP_SLICES)]
    if mode == "setup":
        print(json.dumps(out))
        return 0

    results, item_s, item_cpu_s, item_slices, failures = [], [], [], [], []
    for item in workload.items:
        c0, t0 = time.process_time(), time.perf_counter()
        try:
            results.append(workload.run(item))
        except Exception as exc:  # an item that raises is counted as failed
            results.append(None)
            failures.append(f"{type(exc).__name__}: {exc}")
        item_s.append(time.perf_counter() - t0)
        item_cpu_s.append(time.process_time() - c0)
        item_slices.append(hostspeed.slices_after(item_s[-1]))
    out.update(
        item_s=item_s,
        item_cpu_s=item_cpu_s,
        item_slices=item_slices,
        peak_rss_mb=max(hwm0, status_mb("VmHWM") - table_mb),
        results=results,
        failures=failures,
    )
    if tracer is not None:
        out["layers"] = spans.metrics(tracer)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
