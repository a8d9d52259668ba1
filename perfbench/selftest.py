#!/usr/bin/env python3
"""Self-test of the benchmark's checks (about 10 s).

    python3 perfbench/selftest.py

Run from the root of a checkout.  It shows that the inverse-quantum-Cartan
oracle equals ``denom.denominator`` on every entry of every orientation of
A5, D5 and E6, and that each workload's check rejects one wrong answer: an
E7 multiplicity lowered by one, one flipped coarse comparison and one radius
off by one.  Exits 1 if anything fails.
"""

import os
import sys

sys.path.insert(0, os.path.join(os.getcwd(), "src"))

import oracles  # noqa: E402
import workloads  # noqa: E402
from rootseq import arquiver, denom, rootsys  # noqa: E402

FAILURES = []


def expect(ok, what):
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        FAILURES.append(what)


def oracle_matches_library(kind, n):
    want = oracles.denominator_exponents(kind, n)
    system = rootsys.build_root_system(kind, n)
    wrong = checked = 0
    for Q in arquiver.all_orientations(system):
        for (k, l), mults in want.items():
            checked += 1
            wrong += denom.denominator(Q, k, l).poly.as_dict() != mults
    expect(checked and not wrong,
           f"oracle = denom.denominator on {checked} entries of {kind}{n} "
           f"({wrong} differ)")


def denominator_check_rejects():
    e7 = rootsys.build_root_system("E", 7)
    Q = arquiver.DynkinQuiver.from_arrows(e7, ((1, 3), (3, 4), (4, 5), (5, 6), (6, 7), (2, 4)))
    table = {(e.k, e.l): e.poly.as_dict() for e in denom.conjecture_table(Q)}
    oracle = oracles.denominator_exponents("E", 7)
    errors, notes = workloads.check_denominators([table, table], oracle)
    expect(not errors and len(notes) == 6,
           f"E7 table accepted, {len(notes)} entries above the oracle")
    equal = next(kl for kl in sorted(oracle) if table[kl] == oracle[kl])
    t = min(oracle[equal])
    wrong = {kl: dict(v) for kl, v in table.items()}
    wrong[equal][t] -= 1
    errors, _ = workloads.check_denominators([table, wrong], oracle)
    expect(bool(errors), f"two orientations that disagree on d{equal} rejected")
    errors, _ = workloads.check_denominators([wrong], oracle)
    expect(bool(errors), f"d{equal} at t={t} lowered by one rejected")


def coarse_check_rejects():
    members = next(c for c in oracles.commutation_classes("A", 4) if len(c) == 2)
    inputs = [{"word": min(members), "members": sorted(members)}]
    bench = workloads.CoarseOracle(inputs)
    result = dict(bench.run(bench.items[0]), expected=inputs[0]["members"])
    expect(not workloads.check_coarse([result]),
           f"{len(result['fast'])} coarse comparisons accepted")
    flipped = dict(result, fast=list(result["fast"]))
    flipped["fast"][len(flipped["fast"]) // 2] ^= True
    expect(bool(workloads.check_coarse([flipped])), "one flipped coarse comparison rejected")


def radius_check_rejects():
    reference = workloads.read_radius_table(workloads.RADIUS_REFERENCE)
    expect(len(reference) == 112 and not workloads.check_radii(dict(reference), reference),
           f"reference table of {len(reference)} radii accepted")
    name = sorted(reference)[len(reference) // 2]
    wrong = dict(reference, **{name: reference[name] + 1})
    expect(bool(workloads.check_radii(wrong, reference)), f"radius{name} off by one rejected")


def main():
    for kind, n in (("A", 5), ("D", 5), ("E", 6)):
        oracle_matches_library(kind, n)
    denominator_check_rejects()
    coarse_check_rejects()
    radius_check_rejects()
    print(f"{len(FAILURES)} failure(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
