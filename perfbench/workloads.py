"""The three workloads: inputs made from a seed, one timed library call per
item, and the checks of the results against independent references.

``make_inputs(name, seed)`` builds a workload's inputs without the library,
as plain JSON data: a list of rounds, each the list of its items' inputs.
That is all the library sees.  In the workload process,
``WORKLOADS[name](inputs)`` is the set-up of one round (root systems, AR
quivers and commutation classes of every item) and ``run(item)`` is one
item, returning JSON data.  ``check(name, inputs, results)`` returns ``(errors, notes)``: an
output that a check rejects is an error; a note reports what a check saw
without rejecting it.
"""

from __future__ import annotations

import itertools
import os
import random

import oracles

HERE = os.path.dirname(os.path.abspath(__file__))
RADIUS_REFERENCE = os.path.join(HERE, "radius_e8.txt")

E8_REFERENCE_ARROWS = ((1, 3), (3, 4), (4, 5), (5, 6), (6, 7), (7, 8), (2, 4))
# the paper's radius-5 example in E8: both candidate roots attain radius 5
E8_PAPER_RADII = {"(23465431)": 5, "(23465432)": 5}
# A coarse-oracle round checks one commutation class of w0 in A4; the rounds
# go through the A4_CLASS_SIZE-member classes (6 exist) in a seeded order, so
# every item does the same number of bi-lex comparisons and the median item
# does not depend on the seed.
A4_CLASS_SIZE = 12


def make_inputs(name: str, seed: int):
    rng = random.Random(seed)
    if name == "denom-e7":
        # one orientation of each pair {Q, Q^rev}, in a seeded order
        pairs = {}
        edges = oracles.dynkin_edges("E", 7)
        for flips in itertools.product((False, True), repeat=len(edges)):
            arrows = tuple(sorted((b, a) if f else (a, b) for (a, b), f in zip(edges, flips)))
            rev = tuple(sorted((b, a) for a, b in arrows))
            pairs.setdefault(min(arrows, rev), (arrows, rev))
        items = [list(pair[rng.random() < 0.5]) for _, pair in sorted(pairs.items())]
        rng.shuffle(items)
        return [items]
    if name == "radius-e8":
        items = sorted(read_radius_table(RADIUS_REFERENCE))
        rng.shuffle(items)
        return [items]
    if name == "coarse-oracle":
        classes = sorted(
            sorted(members)
            for members in oracles.commutation_classes("A", 4)
            if len(members) == A4_CLASS_SIZE
        )
        rng.shuffle(classes)
        return [
            [{"word": rng.choice(members), "members": members}]
            for members in classes
        ]
    raise KeyError(name)


# -- the library side: set-up and items ---------------------------------------


class DenomE7:
    """The 28-entry E7 denominator table of each orientation pair {Q, Q^rev};
    both o-tables of an item are computed from cold classes."""

    def __init__(self, inputs):
        from rootseq import arquiver, rootsys

        e7 = rootsys.build_root_system("E", 7)
        self.items = [arquiver.DynkinQuiver.from_arrows(e7, arrows) for arrows in inputs]
        for Q in self.items:
            arquiver.build_ar_quiver(Q).comm_class()
            arquiver.build_ar_quiver(Q.rev()).comm_class()

    def run(self, Q):
        from rootseq import denom

        return [[e.k, e.l, list(e.poly.factors)] for e in denom.conjecture_table(Q)]


class RadiusE8:
    """radius of every non-simple E8 root over the class of the reference
    orientation, queried in a seeded order."""

    def __init__(self, inputs):
        from rootseq import arquiver, rootsys

        e8 = rootsys.build_root_system("E", 8)
        Q = arquiver.DynkinQuiver.from_arrows(e8, E8_REFERENCE_ARROWS)
        self.cls = arquiver.build_ar_quiver(Q).comm_class()
        self.items = [e8.parse_root(name) for name in inputs]

    def run(self, gamma):
        from rootseq import seqcalc

        return seqcalc.radius(self.cls, gamma)


class CoarseOracle:
    """The fast coarse order against bi-lex over every member of the class,
    for every ordered pair of equal-weight sequences of every pair-sum weight."""

    def __init__(self, inputs):
        from rootseq import rootsys, words

        a4 = rootsys.build_root_system("A", 4)
        self.items = [words.CommClass(words.ReducedWord(tuple(c["word"]), a4)) for c in inputs]

    def run(self, cls):
        from rootseq import orders, seqcalc

        members = list(cls.linear_extensions())
        sums = {
            tuple(x + y for x, y in zip(a.coeffs, b.coeffs))
            for a in cls.roots
            for b in cls.roots
        }
        fast, brute = [], []
        for wt in sorted(sums):
            seqs = seqcalc.sequences_of_weight(cls, wt)
            for a in seqs:
                for b in seqs:
                    fast.append(orders.coarse_less(a, b))
                    # every member, without stopping early, so that the work
                    # does not depend on the order of the members
                    brute.append(all([orders.bilex_less(a, b, member=w) for w in members]))
        return {"members": sorted(w.letters for w in members), "fast": fast, "brute": brute}


WORKLOADS = {
    "denom-e7": DenomE7,
    "radius-e8": RadiusE8,
    "coarse-oracle": CoarseOracle,
}


# -- checks ---------------------------------------------------------------------


def check(name, inputs, results):
    """Check the results of one round; items that failed are None."""
    done = [(x, r) for x, r in zip(inputs, results) if r is not None]
    if not done:
        return ["no item completed"], []
    if name == "denom-e7":
        tables = [
            {(k, l): {t: m for t, m in factors} for k, l, factors in r} for _, r in done
        ]
        return check_denominators(tables, oracles.denominator_exponents("E", 7))
    if name == "radius-e8":
        if len(done) < len(inputs):
            return ["radius table incomplete"], []
        return check_radii(dict(done), read_radius_table(RADIUS_REFERENCE)), []
    return check_coarse([dict(r, expected=x["members"]) for x, r in done]), []


def check_denominators(tables, oracle):
    """Every orientation gives one table; every entry has exactly the
    oracle's exponents, each with a multiplicity at least the oracle's.
    Entries strictly above the oracle are reported as notes."""
    errors, notes = [], []
    first = tables[0]
    if any(t != first for t in tables[1:]):
        errors.append("orientations disagree on the E7 table")
    if set(first) != set(oracle):
        errors.append(f"entries {sorted(first)} != oracle {sorted(oracle)}")
        return errors, notes
    for kl in sorted(oracle):
        got, want = first[kl], oracle[kl]
        if set(got) != set(want):
            errors.append(f"d{kl}: exponents {sorted(got)} != oracle {sorted(want)}")
            continue
        low = {t: (got[t], want[t]) for t in sorted(want) if got[t] < want[t]}
        high = {t: (got[t], want[t]) for t in sorted(want) if got[t] > want[t]}
        if low:
            errors.append(f"d{kl}: multiplicity below the oracle (t: got, oracle) {low}")
        if high:
            notes.append(f"d{kl}: multiplicity above the oracle (t: got, oracle) {high}")
    return errors, notes


def read_radius_table(path):
    """{root: radius} from the rows of a radius-survey table."""
    table = {}
    with open(path) as fh:
        rows = False
        for line in fh:
            fields = line.split()
            if fields[:3] == ["root", "mul", "radius"]:
                rows = True
            elif rows and len(fields) >= 3:
                table[fields[0]] = int(fields[2])
    return table


def check_radii(got, reference):
    errors = []
    for name, want in E8_PAPER_RADII.items():
        if got.get(name) != want:
            errors.append(f"radius{name} = {got.get(name)}, the paper gives {want}")
    if set(got) != set(reference):
        errors.append(f"{len(got)} roots computed, {len(reference)} in the reference")
    for name in sorted(set(got) & set(reference)):
        if got[name] != reference[name]:
            errors.append(f"radius{name} = {got[name]}, reference {reference[name]}")
    return errors


def check_coarse(results):
    """Each result holds the class members from linear_extensions, the
    members enumerated apart from the library, and the fast and bi-lex
    answers of every comparison."""
    errors = []
    for n, r in enumerate(results):
        if sorted(map(list, r["members"])) != sorted(map(list, r["expected"])):
            errors.append(f"class {n}: linear_extensions gave {len(r['members'])} "
                          f"members, the class has {len(r['expected'])}")
        wrong = sum(f != b for f, b in zip(r["fast"], r["brute"]))
        if wrong or len(r["fast"]) != len(r["brute"]):
            errors.append(f"class {n}: coarse_less differs from bi-lex on {wrong} "
                          f"of {len(r['brute'])} comparisons")
    return errors
