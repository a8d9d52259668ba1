#!/usr/bin/env python3
"""Print the computed type-E6 denominator table next to the inverse quantum
Cartan matrix read off Gamma_Q (``denom.quantum_cartan_denominators``) and the
conjectured reference formulas, and show witnesses for the two entries where
the reference disagrees.

The computed values are identical for every orientation (verified here) and
equal the Gamma_Q reading on every entry.  The reference table differs from
both at (1,4) (equivalently (2,5)), where the reference formula has an extra
(z+q^9) factor, and at (3,3), where the computed multiplicity of (z-q^6) is
3 rather than the reference value 2.  Exits 1 while the reference differs.
"""

import sys

from rootseq.arquiver import DynkinQuiver, all_orientations, build_ar_quiver
from rootseq.cli import run_piped
from rootseq.denom import (
    DistancePolynomial,
    comparable_pairs,
    denominator_table,
    quantum_cartan_denominators,
)
from rootseq.orders import RootSequence
from rootseq.rootsys import build_root_system
from rootseq.seqcalc import gdist, gdist_chain, is_simple

REFERENCE = {
    (1, 1): {2: 1, 8: 1},
    (1, 2): {3: 1, 7: 1, 9: 1},
    (1, 3): {4: 1, 6: 1, 8: 1, 10: 1},
    (1, 4): {5: 1, 7: 1, 9: 1, 11: 1},
    (1, 5): {6: 1, 12: 1},
    (1, 6): {5: 1, 9: 1},
    (2, 2): {2: 1, 4: 1, 6: 1, 8: 2, 10: 1},
    (2, 3): {3: 1, 5: 2, 7: 2, 9: 2, 11: 1},
    (2, 4): {4: 1, 6: 2, 8: 1, 10: 1, 12: 1},
    (2, 6): {4: 1, 6: 1, 8: 1, 10: 1},
    (3, 3): {2: 1, 4: 2, 6: 2, 8: 3, 10: 2, 12: 1},
    (3, 6): {3: 1, 5: 1, 7: 2, 9: 1, 11: 1},
    (6, 6): {2: 1, 6: 1, 8: 1, 12: 1},
}


def main():
    sys6 = build_root_system("E", 6)
    Q = DynkinQuiver.from_arrows(sys6, [(1, 2), (2, 3), (3, 4), (4, 5), (6, 3)])

    reading = quantum_cartan_denominators(Q)
    table = {(e.k, e.l): e.poly for e in denominator_table(Q)}
    rows = [("entry", "computed", "Gamma_Q reading", "reference", "")]
    bad = []
    for (k, l), want in sorted(REFERENCE.items()):
        got = table[k, l]
        ref = DistancePolynomial.from_dict(want)
        flag = "" if got == ref else "   <-- reference DIFFERS"
        if flag:
            bad.append((k, l))
        if got != reading[k, l]:
            flag += "   <-- computed != reading"
        rows.append((f"d_{k},{l}", str(got), str(reading[k, l]), str(ref), flag))
    w = max(len(text) for row in rows for text in row[1:3]) + 1
    for entry, got, read, ref, flag in rows:
        print(f"{entry:<8} {got:<{w}} {read:<{w}} {ref}{flag}")

    print("\nchecking orientation independence over all 32 orientations ...")
    tables = {denominator_table(Q2) for Q2 in all_orientations(sys6)}
    print("identical" if len(tables) == 1 else "DIFFERS ACROSS ORIENTATIONS")

    arq = build_ar_quiver(Q)
    cls = arq.comm_class()
    by_slot = {(1, 4, 9): [], (3, 3, 6): []}
    for a, b, key in comparable_pairs(arq):
        if key in by_slot:
            by_slot[key].append((a, b))

    print("\nwitness for (1,4): every comparable pair at residue gap 9 is simple,")
    print("so no (z+q^9) factor can arise from the definitions:")
    for ab in by_slot[(1, 4, 9)]:
        p = RootSequence.from_positions(cls, ab)
        print(f"  {p}: simple={is_simple(p)}")

    print("\nwitness for (3,3): a pair at gap 6 with a length-3 chain of")
    print("non-simple equal-weight sequences below it:")
    for ab in by_slot[(3, 3, 6)][:1]:
        p = RootSequence.from_positions(cls, ab)
        print(f"  pair {p}: gdist = {gdist(p)}")
        for m in gdist_chain(p):
            print(f"    {m}")

    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(run_piped(main))
