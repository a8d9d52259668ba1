#!/usr/bin/env python3
"""Sweep every orientation of the small A/D systems and check the computed
denominators against the closed forms, plus the radius = multiplicity and
distance-bound properties.  Exits non-zero on any mismatch."""

import argparse
import sys
import time

from rootseq.arquiver import all_orientations, build_ar_quiver
from rootseq.denom import verify_denominator
from rootseq.orders import RootSequence
from rootseq.rootsys import build_root_system
from rootseq.seqcalc import dist, radius

DENOM_CASES = [("A", n) for n in range(2, 7)] + [("D", n) for n in range(4, 7)]
RADIUS_CASES = [("A", n) for n in range(2, 6)] + [("D", 4), ("D", 5), ("E", 6)]


def sweep_denominators(check_all):
    bad = 0
    for kind, rank in DENOM_CASES:
        t0 = time.time()
        sys_ = build_root_system(kind, rank)
        for Q in all_orientations(sys_):
            rep = verify_denominator(Q, check_all=check_all)
            if not rep.ok:
                bad += 1
                print(f"MISMATCH {kind}{rank} {rep.quiver}: {rep.mismatches}")
        print(f"denominators {kind}{rank}: all orientations "
              f"({time.time() - t0:.1f}s)")
    return bad


def sweep_radius():
    bad = 0
    for kind, rank in RADIUS_CASES:
        sys_ = build_root_system(kind, rank)
        for Q in all_orientations(sys_):
            cls = build_ar_quiver(Q).comm_class()
            for g in sys_.positive_roots:
                if g.height == 1:
                    continue
                r = radius(cls, g)
                if r != g.mul:
                    bad += 1
                    print(f"MISMATCH radius {kind}{rank} {Q.orientation_str()} "
                          f"{sys_.format_root(g)}: radius {r} != mul {g.mul}")
        print(f"radius = mul {kind}{rank}: all orientations")
    return bad


def sweep_dist_bound():
    bad = 0
    for kind, bound in (("A", 1), ("D", 2)):
        for rank in range(4 if kind == "D" else 2, 6):
            sys_ = build_root_system(kind, rank)
            for Q in all_orientations(sys_):
                cls = build_ar_quiver(Q).comm_class()
                for i in range(len(cls)):
                    for j in range(i + 1, len(cls)):
                        counts = [0] * len(cls)
                        counts[i] = counts[j] = 1
                        d = dist(RootSequence(cls, tuple(counts)))
                        if d > bound:
                            bad += 1
                            print(f"VIOLATION dist {kind}{rank} "
                                  f"{Q.orientation_str()} positions {i},{j}: "
                                  f"{d} > {bound}")
            print(f"dist <= {bound} in {kind}{rank}: all orientations")
    return bad


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--check-all", action="store_true",
                    help="verify slot well-definedness over every pair")
    args = ap.parse_args()
    bad = sweep_denominators(args.check_all) + sweep_radius() + sweep_dist_bound()
    print("ALL OK" if not bad else f"{bad} mismatches")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
