"""Command-line front end.

Exit codes: 0 success, 1 verification mismatch, 2 usage error (bad input,
or a statistic asked outside its domain), 3 enumeration cap exceeded,
4 internal error (any other exception; its traceback goes to stderr),
141 stdout closed by its reader (128 + SIGPIPE, as a shell reports it).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import traceback

from .arquiver import (
    BadOrientation,
    DynkinQuiver,
    all_orientations,
    build_ar_quiver,
    find_quiver,
)
from .denom import (
    WellDefinednessViolation,
    check_well_defined,
    denominator_table,
    distance_polynomial,
    verify_denominator,
)
from .orders import RootSequence, bilex_less, coarse_less
from .rootsys import NotARoot, ParseError, UnsupportedType, build_root_system
from .seqcalc import (
    DEFAULT_CAP,
    NotInDomain,
    PartitionCap,
    dist_chain,
    gdist_chain,
    good_neighbors,
    is_simple,
    minimal_sequences,
    pair_dist,
    radius,
    socle,
    socle_candidates,
)
from .words import (
    ClassCache,
    ClassTooLarge,
    CommClass,
    LetterOutOfRange,
    NotReduced,
    ReducedWord,
    RootNotInWord,
    roots_of_word,
)


class UsageError(ValueError):
    pass


class FixtureMissing(FileNotFoundError):
    pass


class VerificationFailed(RuntimeError):
    pass


# errors in what the user asked for, as opposed to faults of the program
USER_ERRORS = (
    UsageError, FixtureMissing, UnsupportedType, ParseError, NotARoot, NotReduced,
    LetterOutOfRange, RootNotInWord, BadOrientation, NotInDomain,
)


# -- parsing helpers ----------------------------------------------------


def _int(text, what):
    try:
        return int(text)
    except ValueError:
        raise UsageError(f"bad {what} {text!r}, expected an integer") from None


def _type_rank(text):
    """--type as (kind, rank): a letter followed by the rank, such as D4."""
    t = text.strip()
    if len(t) > 1 and t[1:].isdecimal():
        return t[0].upper(), int(t[1:])
    raise argparse.ArgumentTypeError(
        f"expected a letter and a rank such as D4, got {text!r}")


def _cap(text):
    """A cap on what an enumeration may list: an integer >= 0."""
    if not text.strip().isdecimal():
        raise argparse.ArgumentTypeError(f"expected an integer >= 0, got {text!r}")
    return int(text)


def _system(args):
    return build_root_system(*args.type)


def _parse_orient(system, text):
    arrows = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if ">" not in part:
            raise UsageError(f"bad orientation edge {part!r}, expected 'a>b'")
        a, b = part.split(">", 1)
        arrows.append((_int(a, "node"), _int(b, "node")))
    return DynkinQuiver.from_arrows(system, arrows)


def _quiver(args):
    system = _system(args)
    if not args.orient:
        if not system.edges:  # rank 1: the empty orientation
            return DynkinQuiver.from_arrows(system, [])
        raise UsageError("--orient is required")
    return _parse_orient(system, args.orient)


def _sweep(args):
    """The quiver given by --orient, else every orientation of --type."""
    return [_quiver(args)] if args.orient else all_orientations(_system(args))


def _parse_word(system, text) -> ReducedWord:
    letters = tuple(
        _int(x, "letter") for x in text.replace(",", " ").split() if x.strip()
    )
    return ReducedWord(letters, system)


def _split_roots(text):
    """Split a comma-separated root list, ignoring commas inside brackets."""
    out, depth, cur = [], 0, []
    for ch in text:
        if ch in "[{(":
            depth += 1
        elif ch in "]})":
            depth -= 1
        if ch == "," and depth == 0:
            out.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    if cur:
        out.append("".join(cur))
    return [s.strip() for s in out if s.strip()]


def _class_of(args):
    """The commutation class selected by --orient or --word."""
    if args.word:
        system = _system(args)
        return CommClass(_parse_word(system, args.word))
    return build_ar_quiver(_quiver(args)).comm_class()


def _sequence(cls, text) -> RootSequence:
    return RootSequence.from_strings(cls, _split_roots(text))


def _show(args, payload, text):
    """Write payload as JSON under --format json and text otherwise, to
    --out or to stdout."""
    if args.format == "json":
        text = json.dumps(payload, indent=1, sort_keys=True)
    if args.out:
        try:
            fh = open(args.out, "w")
        except OSError as e:
            raise UsageError(f"cannot write --out {args.out}: {e.strerror}") from None
        with fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        print(text)


# -- fixtures -----------------------------------------------------------


def fixture_dir():
    env = os.environ.get("ARQ_FIXTURE_DIR")
    if env:
        return env
    return os.path.join(os.path.dirname(os.path.abspath(__file__)), "fixtures")


def load_fixture(name: str) -> dict:
    path = os.path.join(fixture_dir(), name + ".json")
    if not os.path.exists(path):
        raise FixtureMissing(f"no fixture {name!r}: {path} does not exist")
    with open(path) as fh:
        return json.load(fh)


def fixture_deltas(name: str) -> list[dict]:
    """Per-coordinate differences between the golden row grid of a fixture
    and the AR quiver computed for the fixture's orientation."""
    fixture = load_fixture(name)
    system = build_root_system(fixture["kind"], fixture["rank"])
    Q = DynkinQuiver.from_arrows(system, fixture["arrows"])
    rows = build_ar_quiver(Q).rows()
    out = []
    for i in range(1, system.rank + 1):
        want = fixture["rows"].get(str(i), [])
        got = rows.get(i, [])
        for k in range(max(len(want), len(got))):
            w = system.parse_root(want[k]) if k < len(want) else None
            g = got[k] if k < len(got) else None
            if w != g:
                out.append({
                    "residue": i,
                    "index": k,
                    "fixture": want[k] if k < len(want) else None,
                    "computed": system.format_root(g) if g else None,
                })
    return out


# -- word ---------------------------------------------------------------


def cmd_word(args):
    system = _system(args)
    word = _parse_word(system, args.word)
    if args.action == "roots":
        roots = [system.format_root(r) for r in roots_of_word(word)]
        _show(args, {"word": list(word.letters), "roots": roots}, " ".join(roots))
        return 0
    cls = CommClass(word)
    if args.action == "class":
        members = []
        for w in cls.linear_extensions():
            members.append(w.letters)
            if len(members) > args.cap_class:
                raise ClassTooLarge(len(members), args.cap_class)
        members.sort()
        _show(args, {"size": len(members), "members": [list(w) for w in members]},
              "\n".join(" ".join(map(str, w)) for w in members))
    elif args.action == "heap":
        fmt = system.format_root
        pred: dict[int, list[int]] = {}
        for p, q in cls.heap_covers:
            pred.setdefault(q, []).append(p)
        lines = []
        for k, r in enumerate(cls.roots):
            covers = [fmt(cls.roots[p]) for p in pred.get(k, [])]
            lines.append(fmt(r) + (f" <- {', '.join(covers)}" if covers else ""))
        _show(args, cls.to_json(), "\n".join(lines))
    elif args.action == "quiver":
        Q = find_quiver(cls)
        _show(args, {"adapted": Q is not None,
                     "orientation": Q.orientation_str() if Q else None},
              Q.orientation_str() if Q else "not adapted to any quiver")
    return 0


# -- order --------------------------------------------------------------


def cmd_order(args):
    cls = _class_of(args)
    a = _sequence(cls, args.seq_a)
    b = _sequence(cls, args.seq_b)
    rel = {
        "bilex_repr": bilex_less(a, b),
        "bilex_repr_rev": bilex_less(b, a),
        "coarse": coarse_less(a, b),
        "coarse_rev": coarse_less(b, a),
    }
    if a.size() == 1 and b.size() == 1:
        ra, rb = a.support()[0], b.support()[0]
        rel["total"] = cls.position(ra) < cls.position(rb)
        rel["partial"] = cls.prec(ra, rb)
        rel["partial_rev"] = cls.prec(rb, ra)
    _show(args, {"a": a.to_json(), "b": b.to_json(), "relations": rel},
          "\n".join(f"{k}: {v}" for k, v in sorted(rel.items())))
    return 0


# -- pair ---------------------------------------------------------------


def cmd_pair(args):
    cls = _class_of(args)
    fmt = cls.system.format_root
    if args.action == "radius":
        g = cls.system.parse_root(args.gamma)
        r = radius(cls, g)
        _show(args, {"gamma": fmt(g), "radius": r, "mul": g.mul},
              f"radius({fmt(g)}) = {r}")
        return 0
    seq = _sequence(cls, args.pair)
    if args.action == "socle":
        s = socle(seq, args.cap_partitions)
        cands = (s,) if s is not None else socle_candidates(seq, args.cap_partitions)
        text = str(s) if s is not None else (
            "undefined; candidates:\n" + "\n".join(str(c) for c in cands))
        _show(args, {"pair": seq.to_json(), "socle": s.to_json() if s else None,
                     "candidates": [c.to_json() for c in cands]}, text)
    elif args.action == "simple":
        val = is_simple(seq)
        _show(args, {"sequence": seq.to_json(), "simple": val}, str(val))
    elif args.action == "minimal":
        mins = minimal_sequences(seq, args.cap_partitions)
        _show(args, {"sequence": seq.to_json(), "minimal": [m.to_json() for m in mins]},
              "\n".join(str(m) for m in mins))
    elif args.action in ("dist", "gdist"):
        chain = (dist_chain(seq) if args.action == "dist"
                 else gdist_chain(seq, cap=args.cap_partitions))
        _show(args, {"pair": seq.to_json(), args.action: len(chain),
                     "chain": [c.to_json() for c in chain]}, str(len(chain)))
    elif args.action == "len":
        nbrs = good_neighbors(seq)
        _show(args, {"pair": seq.to_json(), "len": len(nbrs),
                     "neighbors": [n.to_json() for n in nbrs]}, str(len(nbrs)))
    return 0


# -- denom --------------------------------------------------------------


def _table_text(entries, latex=False):
    lines = []
    for e in entries:
        tag = " (conjectural)" if e.conjectural else ""
        if latex:
            lines.append(f"d_{{{e.k},{e.l}}}(z) &= {e.poly.format('latex')} \\\\")
        else:
            lines.append(f"d_{e.k},{e.l}(z) = {e.poly}{tag}")
    return "\n".join(lines)


def cmd_denom(args):
    if args.check_all:
        check_well_defined(_system(args))
    if args.action == "poly":
        Q = _quiver(args)
        rank = Q.system.rank
        for name, v in (("--k", args.k), ("--l", args.l)):
            if not 1 <= v <= rank:
                raise UsageError(f"{name} {v} is outside 1..{rank}, the rank")
        p = distance_polynomial(Q, args.k, args.l)
        _show(args, {"k": args.k, "l": args.l, "factors": p.to_json()},
              p.format(args.format))
        return 0
    quivers = iter(_sweep(args) if args.orient or args.all_orientations
                   else [next(all_orientations(_system(args)))])
    if args.action == "table":
        first = next(quivers)
        entries = denominator_table(first)
        for Q in quivers:
            table = denominator_table(Q)
            if table != entries:
                a, b = next((a, b) for a, b in zip(entries, table) if a != b)
                raise VerificationFailed(
                    f"distance polynomials differ across orientations: d_{a.k},{a.l} is"
                    f" {a.poly} on {first.orientation_str()} but {b.poly} on"
                    f" {Q.orientation_str()}")
        _show(args, [e.to_json() for e in entries],
              _table_text(entries, latex=args.format == "latex"))
        return 0
    # verify
    reports = [(Q.orientation_str(), verify_denominator(Q)) for Q in quivers]
    _show(args,
          [{"quiver": q, "ok": not bad, "mismatches": list(bad)} for q, bad in reports],
          "\n".join(f"{q}: {bad or 'ok'}" for q, bad in reports))
    return 1 if any(bad for _, bad in reports) else 0


# -- arq ----------------------------------------------------------------


def cmd_arq(args):
    arq = build_ar_quiver(_quiver(args))
    fmt = arq.system.format_root
    rows = sorted(arq.rows().items())
    if args.format == "dot":
        text = arq.to_dot()
    elif args.format == "latex":
        text = "\n".join(
            ["\\begin{array}{l}"]
            + [f"{i}: " + " & ".join(fmt(r) for r in roots) + " \\\\"
               for i, roots in rows]
            + ["\\end{array}"]
        )
    else:
        text = "\n".join(
            f"row {i}: " + " ".join(f"{fmt(r)}@{arq.vertex_of[r][1]}" for r in roots)
            for i, roots in rows
        )
    _show(args, arq.to_json(), text)
    return 0


# -- verify -------------------------------------------------------------


def _rds_mul(cls):
    """The failures of radius = mul over the non-simple roots of the class."""
    for g in cls.system.positive_roots:
        if g.height > 1:
            r = radius(cls, g)
            if r != g.mul:
                yield {"gamma": cls.system.format_root(g), "radius": r, "mul": g.mul}


def _dist_bound(cls):
    """The failures of dist <= 1 (A), 2 (D) over the pairs of the class."""
    bound = {"A": 1, "D": 2}.get(cls.system.kind)
    if bound is None:
        raise UsageError("dist-bound applies to types A and D")
    for i in range(len(cls)):
        for j in range(i + 1, len(cls)):
            d = pair_dist(cls, i, j)
            if d > bound:
                yield {"pair": str(RootSequence.from_positions(cls, (i, j))),
                       "dist": d, "bound": bound}


def cmd_verify(args):
    failures = []
    if args.property == "fixtures":
        for name in (args.fixture,) if args.fixture else ("e6", "e7", "e8"):
            deltas = fixture_deltas(name)
            if deltas:
                failures.append({"fixture": name, "diff": deltas})
    else:
        check = _rds_mul if args.property == "rds-mul" else _dist_bound
        for Q in _sweep(args):
            cls = build_ar_quiver(Q).comm_class()
            try:
                failures += ({"quiver": Q.orientation_str(), **f} for f in check(cls))
            finally:
                cls.cache = ClassCache()  # the sweep is done with this class
    _show(args, {"property": args.property, "ok": not failures, "failures": failures},
          "ok" if not failures else "\n".join(map(str, failures)))
    return 0 if not failures else 1


# -- argument wiring ----------------------------------------------------


def _add_output(p, formats=("text", "json")):
    p.add_argument("--format", choices=formats, default="text")
    p.add_argument("--out", help="write output to a file")


def _add_system(p):
    p.add_argument("--type", required=True, type=_type_rank,
                   help="root system, a letter and the rank: A3, D4, E6, ...")


def _add_quiver(p):
    """--type and --orient; returns the group of options that exclude --orient."""
    _add_system(p)
    group = p.add_mutually_exclusive_group()
    group.add_argument("--orient", help="directed Dynkin edges 'a>b,c>d'")
    return group


def _add_word(p, required=False):
    p.add_argument("--word", required=required, help="reduced word '1 3 2 ...'")


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="rootseq",
        description="Positive-root sequence combinatorics over AR quivers",
    )
    commands = top.add_subparsers(dest="command", required=True)

    def command(name, help, fn, dest="action"):
        """A subcommand run by fn; its actions are added to the sub-parsers
        returned."""
        p = commands.add_parser(name, help=help)
        p.set_defaults(fn=fn)
        return p.add_subparsers(dest=dest, required=True)

    word = command("word", "reduced-word utilities", cmd_word)
    for action in ("roots", "class", "heap", "quiver"):
        p = word.add_parser(action)
        _add_system(p)
        _add_word(p, required=True)
        _add_output(p)
        if action == "class":
            p.add_argument("--cap-class", type=_cap, default=DEFAULT_CAP,
                           help="most members that 'word class' may list")

    p = commands.add_parser("order", help="compare two root sequences")
    p.add_argument("--seq-a", required=True)
    p.add_argument("--seq-b", required=True)
    _add_word(_add_quiver(p))
    _add_output(p)
    p.set_defaults(fn=cmd_order)

    pair = command("pair", "socle / distance statistics", cmd_pair)
    for action in ("socle", "dist", "gdist", "len", "radius", "simple", "minimal"):
        p = pair.add_parser(action)
        if action == "radius":
            p.add_argument("--gamma", required=True, help="a non-simple root")
        else:
            p.add_argument("--pair", required=True, help="comma-separated roots")
        _add_word(_add_quiver(p))
        _add_output(p)
        if action in ("socle", "gdist", "minimal"):
            p.add_argument("--cap-partitions", type=_cap, default=DEFAULT_CAP,
                           help="most partitions one enumeration may list")

    denom = command("denom", "distance polynomials and denominators", cmd_denom)
    for action in ("poly", "table", "verify"):
        p = denom.add_parser(action)
        group = _add_quiver(p)
        if action == "poly":
            p.add_argument("--k", type=int, required=True)
            p.add_argument("--l", type=int, required=True)
        else:
            group.add_argument("--all-orientations", action="store_true",
                               help="every orientation; else --orient, else the first")
        p.add_argument("--check-all", action="store_true",
                       help="first check well-definedness on the whole system, "
                            "whatever --orient says: every reflection at a sink "
                            "or source has its premise checked, each ordered "
                            "slot (residues in heap order and their gap) takes "
                            "the gdist of its first pair, computed once, and the "
                            "two orders of every slot must agree")
        _add_output(p, ("text", "json") if action == "verify"
                    else ("text", "json", "latex"))

    p = command("arq", "AR quiver display", cmd_arq).add_parser("show")
    _add_quiver(p)
    _add_output(p, formats=("text", "json", "dot", "latex"))

    verify = command("verify", "property verification sweeps", cmd_verify, dest="property")
    for prop, what in (("rds-mul", "radius = multiplicity"),
                       ("dist-bound", "dist <= 1 (A), 2 (D)")):
        p = verify.add_parser(prop, help=f"{what} on --orient, else on every orientation")
        _add_quiver(p)
        _add_output(p)
    p = verify.add_parser("fixtures")
    p.add_argument("--fixture", help="fixture name, e.g. e6; default e6, e7 and e8")
    _add_output(p)

    return top


def run_piped(fn, *args) -> int:
    """fn(*args) with stdout flushed, or 141 with nothing more printed if
    the reader of stdout has closed it (as ``| head -1`` may)."""
    try:
        code = fn(*args)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader is gone: point stdout at devnull so that the flush at
        # interpreter exit cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    return code


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return run_piped(args.fn, args)
    except (ClassTooLarge, PartitionCap) as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except (VerificationFailed, WellDefinednessViolation) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except USER_ERRORS as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except Exception as e:  # a fault of the program, not of the input
        traceback.print_exc()
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
