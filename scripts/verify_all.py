#!/usr/bin/env python3
"""Sweep every orientation of the small systems through the ``rootseq`` CLI,
in-process: the computed denominators against the inverse quantum Cartan
matrix read off Gamma_Q (A2-A6, D4-D6, E6), one E7 denominator table from
all 64 orientations and one E8 table from all 128, radius = multiplicity
(A2-A5, D4, D5, E6) and the type-A/D distance bounds (A2-A5, D4, D5).
Exits non-zero unless every run exits 0; if the reader of stdout closes it
(as ``| head -1`` does), stops at once and exits 141, as the CLI does.

Of each E7 and E8 orientation only the root of the derivation tree
(``denom._derivation_tree``) has its o-table computed from its class alone;
every other table is derived along a reflection at a sink or source, whose
premise is checked on every edge (63 in E7, 127 in E8), and the sweep fails
unless every orientation gives one table.  With --check-all the
denominator sweeps and the E7 table compute the gdist of every pair of every
slot; in E7 that includes every alpha_i pair across each of the 63 edges of
the tree.  The E8 table is run without it.  ``denom verify`` exits 1 on E7
and E8, where the computed table lies above the reading, so neither is
swept."""

import argparse
import sys

from rootseq.cli import main as cli_main, run_piped

DENOM_TYPES = ["A2", "A3", "A4", "A5", "A6", "D4", "D5", "D6", "E6"]
RADIUS_TYPES = ["A2", "A3", "A4", "A5", "D4", "D5", "E6"]
DIST_BOUND_TYPES = ["A2", "A3", "A4", "A5", "D4", "D5"]


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--check-all", action="store_true",
                    help="verify slot well-definedness over every pair")
    args = ap.parse_args()
    sweep = ["--all-orientations"] + (["--check-all"] if args.check_all else [])
    runs = (
        [["denom", "verify", "--type", t, *sweep] for t in DENOM_TYPES]
        + [["denom", "table", "--type", "E7", *sweep],
           ["denom", "table", "--type", "E8", "--all-orientations"]]
        + [["verify", "rds-mul", "--type", t, "--all-orientations"]
           for t in RADIUS_TYPES]
        + [["verify", "dist-bound", "--type", t, "--all-orientations"]
           for t in DIST_BOUND_TYPES]
    )
    failed = 0
    for argv in runs:
        print("rootseq " + " ".join(argv), flush=True)
        code = cli_main(argv)
        if code == 141:  # the reader closed stdout: stop, nothing failed
            return code
        failed += code != 0
    print("ALL OK" if not failed else f"{failed} runs failed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(run_piped(main))
