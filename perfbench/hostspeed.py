"""The host's speed, read from a fixed piece of pure-Python work.

The benchmark runs on a shared host whose speed drifts by 20-50 % over
seconds to minutes: other tenants contend for the cores and their caches.
Process CPU time follows wall time, so it is the CPU that slows, not the
scheduler.  So each workload process times a *slice* of fixed work after
its set-up and after each of its items (more than one after a long item),
and ``run.py`` scales each measured time by ``REF_SLICE_S`` over the mean
slice of its process.  A time "at reference
speed" is what the measurement would have read had the host run a slice in
``REF_SLICE_S``.  The slice never touches the library, so a change to the
library moves the scaled times as it moves the measured ones.

The slice has two parts, because the host's slow spells hit compact code and
memory-bound code by different amounts and the library is a mix of both:
tuples of small integers summed into dicts of lists (like the partition
enumeration), and lookups in scattered order in a dict too large for the
caches.  The slice runs in the workload process itself: a slice timed in
another process did not follow the workload's speed (two coarse-oracle runs
1.44 x apart in item time saw the same median slice).
"""

import gc
import itertools
import time

# median slice time on the reference VM (2 shared cores, Intel Xeon reported
# at 2.0 GHz)
REF_SLICE_S = 0.0170
COMPACT_CALLS = 4
LOOKUP_CALLS = 4
LOOKUPS = 1500
SLICE_SHARE = 0.03

_VECS = [tuple((i * 7 + j * 3) % 4 for j in range(8)) for i in range(40)]
_KEYS = None
_TABLE = None
_STRIDE = 40503  # prime, so it visits every key before repeating
_pos = 0


def _compact():
    table = {}
    for a, u in enumerate(_VECS):
        for b in range(a, len(_VECS)):
            s = tuple(x + y for x, y in zip(u, _VECS[b]))
            table.setdefault(s, []).append({"pair": (a, b), "sum": s})
    return len(table)


def _lookups():
    global _pos
    keys, table = _KEYS, _TABLE
    n = len(keys)
    acc = 0
    out = []
    for j in range(_pos, _pos + LOOKUPS):
        k = keys[j * _STRIDE % n]
        acc += table[k]
        if acc & 3 == 0:
            out.append((k, acc))
    _pos = (_pos + LOOKUPS) % n
    return acc + len(out)


def build() -> None:
    """Build the lookup table (about 13 MB).  Its keys are a tuple, not a
    list, so that the collector soon stops visiting them."""
    global _KEYS, _TABLE
    _KEYS = tuple(itertools.product(range(5), repeat=7))  # 78,125 keys
    _TABLE = {k: i for i, k in enumerate(_KEYS)}


def slice_s() -> float:
    """Time one slice; ``build()`` first.  The collector is off meanwhile;
    everything the slice allocates is freed by reference counting before it
    returns."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        for _ in range(COMPACT_CALLS):
            _compact()
        for _ in range(LOOKUP_CALLS):
            _lookups()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def slices_after(busy_s: float) -> list[float]:
    """Slices after ``busy_s`` seconds of work: at least one, and together
    at least SLICE_SHARE of it, so that the slices of a round sample the
    host about in proportion to time."""
    times = [slice_s()]
    while sum(times) < SLICE_SHARE * busy_s:
        times.append(slice_s())
    return times


def at_ref(t: float, slice_time: float) -> float:
    """``t`` scaled to reference speed, the host having run a slice in
    ``slice_time`` when ``t`` was measured."""
    return t * REF_SLICE_S / slice_time
