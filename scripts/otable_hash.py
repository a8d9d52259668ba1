#!/usr/bin/env python3
"""Hash the o-tables (the gdist of every (k, l, t) slot) of every orientation
of A2-A8, D4-D8, E6 and E7, and of the E8 reference orientation
3>1,3>4,4>2,4>5,5>6,6>7,7>8.

Prints two lines.  The first gives the number of tables, the sum of o_t over
the E8 table and a sha256 over all tables.  The second gives a sha256 over
the AR quiver and commutation class of every orientation hashed: the labels
in insertion order, mQ, the arrows, the class's roots and its heap covers.
Two versions of the library that print the same first line compute the same
o-tables; the same second line, the same AR quivers and heaps.  Run with
``PYTHONPATH=src``.

Each o-table is read off the rows of its own AR quiver, its gdists taken
from a memo shared by the tables of the system (``denom._o_table``, the
flat view of ``denom._o_rows``, the one reader of that memo; a denominator
table reads Q's rows alone, Q^rev's being Q's relabelled by the w0
involution).  The
hash is the one printed when every table was computed from its own class,
each slot's gdist from the slot's first pair, so it certifies the reading
on every table and the sharing of the memo.  The tables are asked without
``--check-all``; that option runs ``denom.check_well_defined`` on the whole
system, whatever ``--orient`` says, which fills the same memo with the same
values (``tests/test_denom.py`` checks this on E6).
"""

import hashlib
import sys

from rootseq import arquiver, denom
from rootseq.rootsys import build_root_system

SYSTEMS = [("A", n) for n in range(2, 9)] + [("D", n) for n in range(4, 9)] + [
    ("E", 6),
    ("E", 7),
]
E8_REFERENCE = ((3, 1), (3, 4), (4, 2), (4, 5), (5, 6), (6, 7), (7, 8))


def _table_text(Q) -> str:
    table = denom._o_table(Q)
    body = ";".join(f"{k},{l},{t}:{o}" for (k, l, t), o in sorted(table.items()))
    return f"{Q.system.kind}{Q.system.rank} {Q.orientation_str()} {body}\n"


def _structure_text(Q) -> str:
    arq = arquiver.build_ar_quiver(Q)
    cls = arq.comm_class()
    labels = ";".join(f"{i},{p}:{r.coeffs}" for (i, p), r in arq.label.items())
    roots = ";".join(str(r.coeffs) for r in cls.roots)
    return (f"{Q.system.kind}{Q.system.rank} {Q.orientation_str()} {labels} "
            f"{sorted(arq.mQ.items())} {arq.arrows} {roots} {cls.heap_covers}\n")


def main():
    digest = hashlib.sha256()
    structures = hashlib.sha256()
    count = 0
    for kind, rank in SYSTEMS:
        for Q in arquiver.all_orientations(build_root_system(kind, rank)):
            digest.update(_table_text(Q).encode())
            structures.update(_structure_text(Q).encode())
            count += 1
        # the AR quivers and the gdist memo of one system are not needed
        # again; the class caches were emptied as each table was finished
        denom._memo.cache_clear()
        arquiver.build_ar_quiver.cache_clear()
    e8 = arquiver.DynkinQuiver.from_arrows(build_root_system("E", 8), E8_REFERENCE)
    digest.update(_table_text(e8).encode())
    structures.update(_structure_text(e8).encode())
    count += 1
    e8_sum = sum(denom._o_table(e8).values())
    print(f"tables {count}  E8 sum o_t {e8_sum}  sha256 {digest.hexdigest()}")
    print(f"AR quivers and classes {count}  sha256 {structures.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
