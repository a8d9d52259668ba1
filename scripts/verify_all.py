#!/usr/bin/env python3
"""Sweep every orientation of the small systems through the ``rootseq`` CLI,
in-process: the computed denominators against the inverse quantum Cartan
matrix read off Gamma_Q (A2-A6, D4-D6, E6), one E7 denominator table from
all 64 orientations and one E8 table from all 128, radius = multiplicity
(A2-A5, D4, D5, E6) and the type-A/D distance bounds (A2-A5, D4, D5).
Exits non-zero unless every run exits 0; if the reader of stdout closes it
(as ``| head -1`` does), stops at once and exits 141, as the CLI does.

Each E7 and E8 denominator table is read in one pass over the rows of the
AR quiver of its orientation Q alone (``denom._o_rows``): Q^rev's rows are
Q's relabelled by the w0 involution, the identity on E7 and E8.  Its gdists
come from a memo shared by the system's tables, one per slot (245 in E7),
and the sweep fails unless every orientation gives one table.  With
--check-all every denominator run,
the E8 table included, first checks its whole system, as ``rootseq denom
--check-all`` does whatever ``--orient`` says (``denom.check_well_defined``):
the premise of the reflection at every sink and source of every orientation
(304 in E7), since the memo trusts transport along all of them, then one
gdist per ordered slot (434 in E7), the two orders of every slot agreeing
wherever in the system they occur (189 slots in E7, 420 in E8).  ``denom
verify`` exits 1 on E7 and E8, where the computed table lies above the
reading, so neither is swept."""

import argparse
import sys

from rootseq.cli import main as cli_main, run_piped

DENOM_TYPES = ["A2", "A3", "A4", "A5", "A6", "D4", "D5", "D6", "E6"]
RADIUS_TYPES = ["A2", "A3", "A4", "A5", "D4", "D5", "E6"]
DIST_BOUND_TYPES = ["A2", "A3", "A4", "A5", "D4", "D5"]


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--check-all", action="store_true",
                    help="check the well-definedness of each system swept "
                         "(see rootseq denom table --help)")
    args = ap.parse_args()
    sweep = ["--all-orientations"] + (["--check-all"] if args.check_all else [])
    runs = (
        [["denom", "verify", "--type", t, *sweep] for t in DENOM_TYPES]
        + [["denom", "table", "--type", t, *sweep] for t in ("E7", "E8")]
        + [["verify", "rds-mul", "--type", t] for t in RADIUS_TYPES]
        + [["verify", "dist-bound", "--type", t] for t in DIST_BOUND_TYPES]
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
