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

Of each system only the root of the derivation tree (the first orientation
of ``all_orientations``) has its o-table computed from its class alone;
every other table is derived from its parent's along a reflection at a sink
or source (``denom._o_table``).  The hash is the one printed before any
table was derived, when every table was computed from its own class, so it
certifies the derivation on every table but the roots': every other
orientation of each system, and the E8 reference orientation, which is
derived from the E8 root along its path in the tree.
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
    table = denom._o_table(Q, False)[0]
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
        # the tables and AR quivers of one system are not needed again; the
        # class caches were emptied as each table was finished, so this
        # drops only the AR quivers and the finished tables with their counts
        denom._o_table.cache_clear()
        arquiver.build_ar_quiver.cache_clear()
    e8 = arquiver.DynkinQuiver.from_arrows(build_root_system("E", 8), E8_REFERENCE)
    digest.update(_table_text(e8).encode())
    structures.update(_structure_text(e8).encode())
    count += 1
    e8_sum = sum(denom._o_table(e8, False)[0].values())
    print(f"tables {count}  E8 sum o_t {e8_sum}  sha256 {digest.hexdigest()}")
    print(f"AR quivers and classes {count}  sha256 {structures.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
