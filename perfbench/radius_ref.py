#!/usr/bin/env python3
"""Print the E8 radius table in canonical root order, in the format of
``scripts/radius_survey.py --systems E8``.  radius-e8 checks its shuffled
queries against the committed copy, which is remade with

    PYTHONPATH=src python3 perfbench/radius_ref.py > perfbench/radius_e8.txt
"""

import sys
import time

from rootseq.arquiver import DynkinQuiver, build_ar_quiver
from rootseq.rootsys import build_root_system
from rootseq.seqcalc import radius

from workloads import E8_REFERENCE_ARROWS


def main():
    e8 = build_root_system("E", 8)
    Q = DynkinQuiver.from_arrows(e8, E8_REFERENCE_ARROWS)
    cls = build_ar_quiver(Q).comm_class()
    t0 = time.time()
    rows = []
    for g in e8.positive_roots:
        if g.height == 1:
            continue
        rows.append((e8.format_root(g), max(g.coeffs), radius(cls, g)))
    print(f"\nE8  (orientation {Q.orientation_str()}, {time.time() - t0:.1f}s)")
    print(f"{'root':<14} mul radius")
    for name, m, r in rows:
        mark = "" if m == r else "   <-- radius != mul"
        print(f"{name:<14} {m:>3} {r:>6}{mark}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
