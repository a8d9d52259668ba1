"""Command-line front end.

Exit codes: 0 success, 1 verification mismatch, 2 usage error (bad input,
or a statistic asked outside its domain), 3 enumeration cap exceeded,
4 internal error (any other exception; its traceback goes to stderr).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import traceback
from importlib import resources

from .arquiver import (
    BadOrientation,
    DynkinQuiver,
    all_orientations,
    build_ar_quiver,
    find_quiver,
)
from .denom import (
    DenominatorEntry,
    WellDefinednessViolation,
    conjecture_table,
    denominator,
    denominator_closed_form,
    distance_polynomial,
    verify_denominator,
)
from .orders import RootSequence, bilex_less, coarse_less, pair
from .rootsys import NotARoot, ParseError, UnsupportedType, build_root_system
from .seqcalc import (
    DEFAULT_CAP,
    NotInDomain,
    PartitionCap,
    dist,
    dist_chain,
    gdist,
    gdist_chain,
    good_neighbors,
    is_simple,
    length,
    minimal_sequences,
    radius,
    socle,
    socle_candidates,
)
from .words import (
    ClassTooLarge,
    CommClass,
    LetterOutOfRange,
    NotReduced,
    ReducedWord,
    RootNotInWord,
    enumerate_class,
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


def _parse_type_rank(args):
    t = args.type
    if t is None:
        raise UsageError("--type is required")
    t = t.strip()
    if len(t) > 1 and t[1:].isdigit():
        kind, rank = t[0].upper(), int(t[1:])
        if args.rank is not None and args.rank != rank:
            raise UsageError(f"--rank {args.rank} contradicts --type {t}")
        return kind, rank
    if args.rank is None:
        raise UsageError("--rank is required with a bare --type letter")
    return t.upper(), args.rank


def _system(args):
    kind, rank = _parse_type_rank(args)
    return build_root_system(kind, rank)


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
    if getattr(args, "quiver", None):
        spec = args.quiver
        if ":" not in spec:
            raise UsageError("--quiver expects 'TYPErank:a>b,c>d'")
        head, tail = spec.split(":", 1)
        head = head.strip()
        if not head:
            raise UsageError("--quiver expects 'TYPErank:a>b,c>d'")
        kind, rank = head[0].upper(), _int(head[1:], "rank")
        system = build_root_system(kind, rank)
        return _parse_orient(system, tail)
    system = _system(args)
    orient = getattr(args, "orient", None)
    if not orient:
        if not system.datum.edges:  # rank 1: the empty orientation
            return DynkinQuiver.from_arrows(system, [])
        raise UsageError("--orient (or --quiver) is required")
    return _parse_orient(system, orient)


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
    """The commutation class selected by --quiver/--orient or --word."""
    if getattr(args, "word", None):
        system = _system(args)
        return CommClass(_parse_word(system, args.word))
    return build_ar_quiver(_quiver(args)).comm_class()


def _sequence(cls, text) -> RootSequence:
    return RootSequence.from_strings(cls, _split_roots(text))


def _emit(args, text):
    if getattr(args, "out", None):
        with open(args.out, "w") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        print(text)


def _jdump(obj) -> str:
    return json.dumps(obj, indent=1, sort_keys=True)


# -- fixtures -----------------------------------------------------------


def fixture_dir():
    env = os.environ.get("ARQ_FIXTURE_DIR")
    if env:
        return env
    return str(resources.files("rootseq") / "fixtures")


def load_fixture(name: str) -> dict:
    path = os.path.join(fixture_dir(), name + ".json")
    if not os.path.exists(path):
        raise FixtureMissing(path)
    with open(path) as fh:
        return json.load(fh)


def diff_fixture(fixture: dict, arq) -> list[dict]:
    """Structural per-coordinate differences between a golden row grid and a
    computed AR quiver."""
    out = []
    system = arq.system
    rows = arq.rows()
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
        roots = roots_of_word(word)
        if args.format == "json":
            _emit(args, _jdump({"word": list(word.letters),
                                "roots": [system.format_root(r) for r in roots]}))
        else:
            _emit(args, " ".join(system.format_root(r) for r in roots))
    elif args.action == "class":
        cls = CommClass(word)
        members = enumerate_class(cls, cap=args.cap_class)
        if args.format == "json":
            _emit(args, _jdump({"size": len(members),
                                "members": [list(w.letters) for w in members]}))
        else:
            _emit(args, "\n".join(" ".join(map(str, w.letters)) for w in members))
    elif args.action == "heap":
        cls = CommClass(word)
        if args.format == "json":
            _emit(args, _jdump(cls.to_json()))
        else:
            fmt = system.format_root
            pred: dict[int, list[int]] = {}
            for p, q in cls.heap_covers:
                pred.setdefault(q, []).append(p)
            lines = []
            for k, r in enumerate(cls.roots):
                covers = [fmt(cls.roots[p]) for p in pred.get(k, [])]
                lines.append(fmt(r) + (f" <- {', '.join(covers)}" if covers else ""))
            _emit(args, "\n".join(lines))
    elif args.action == "quiver":
        cls = CommClass(word)
        Q = find_quiver(cls)
        if args.format == "json":
            _emit(args, _jdump({"adapted": Q is not None,
                                "orientation": Q.orientation_str() if Q else None}))
        else:
            _emit(args, Q.orientation_str() if Q else "not adapted to any quiver")
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
    if args.format == "json":
        _emit(args, _jdump({"a": a.to_json(), "b": b.to_json(), "relations": rel}))
    else:
        _emit(args, "\n".join(f"{k}: {v}" for k, v in sorted(rel.items())))
    return 0


# -- pair ---------------------------------------------------------------


def cmd_pair(args):
    cls = _class_of(args)
    cap = args.cap_partitions
    fmt = cls.system.format_root
    if args.action == "radius":
        if not args.gamma:
            raise UsageError("radius needs --gamma")
        g = cls.system.parse_root(args.gamma)
        r = radius(cls, g)
        payload = {"gamma": fmt(g), "radius": r, "mul": g.mul}
        _emit(args, _jdump(payload) if args.format == "json" else f"radius({fmt(g)}) = {r}")
        return 0
    if not args.pair:
        raise UsageError(f"{args.action} needs --pair")
    seq = _sequence(cls, args.pair)
    if args.action == "socle":
        cands = socle_candidates(seq, cap)
        s = cands[0] if len(cands) == 1 else None
        if args.format == "json":
            _emit(args, _jdump({"pair": seq.to_json(),
                                "socle": s.to_json() if s else None,
                                "candidates": [c.to_json() for c in cands]}))
        elif s is not None:
            _emit(args, str(s))
        else:
            _emit(args, "undefined; candidates:\n" + "\n".join(str(c) for c in cands))
    elif args.action == "simple":
        val = is_simple(seq)
        _emit(args, _jdump({"sequence": seq.to_json(), "simple": val})
              if args.format == "json" else str(val))
    elif args.action == "minimal":
        mins = minimal_sequences(seq, cap)
        if args.format == "json":
            _emit(args, _jdump({"sequence": seq.to_json(),
                                "minimal": [m.to_json() for m in mins]}))
        else:
            _emit(args, "\n".join(str(m) for m in mins))
    elif args.action == "dist":
        d = dist(seq)
        chain = dist_chain(seq)
        if args.format == "json":
            _emit(args, _jdump({"pair": seq.to_json(), "dist": d,
                                "chain": [c.to_json() for c in chain]}))
        else:
            _emit(args, str(d))
    elif args.action == "gdist":
        d = gdist(seq, cap=cap)
        chain = gdist_chain(seq, cap=cap)
        if args.format == "json":
            _emit(args, _jdump({"pair": seq.to_json(), "gdist": d,
                                "chain": [c.to_json() for c in chain]}))
        else:
            _emit(args, str(d))
    elif args.action == "len":
        nbrs = good_neighbors(seq)
        if args.format == "json":
            _emit(args, _jdump({"pair": seq.to_json(), "len": len(nbrs),
                                "neighbors": [n.to_json() for n in nbrs]}))
        else:
            _emit(args, str(len(nbrs)))
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
    if args.action == "poly":
        if args.k is None or args.l is None:
            raise UsageError("poly needs --k and --l")
        Q = _quiver(args)
        p = distance_polynomial(Q, args.k, args.l, check_all=args.check_all)
        if args.format == "json":
            _emit(args, _jdump({"k": args.k, "l": args.l, "factors": p.to_json()}))
        else:
            _emit(args, str(p))
        return 0
    if args.action == "table":
        system = _system(args)
        quivers = (
            list(all_orientations(system))
            if args.all_orientations
            else [_quiver(args)]
            if (getattr(args, "orient", None) or getattr(args, "quiver", None))
            else [next(iter(all_orientations(system)))]
        )
        tables = []
        for Q in quivers:
            if system.kind == "E":
                tables.append(conjecture_table(Q, check_all=args.check_all))
            else:
                tables.append(tuple(
                    denominator(Q, k, l, check_all=args.check_all)
                    for k in range(1, system.rank + 1)
                    for l in range(k, system.rank + 1)
                ))
        if len({tuple((e.k, e.l, e.poly) for e in t) for t in tables}) > 1:
            raise VerificationFailed("distance polynomials differ across orientations")
        entries = tables[0]
        if args.format == "json":
            _emit(args, _jdump([e.to_json() for e in entries]))
        else:
            _emit(args, _table_text(entries, latex=args.format == "latex"))
        return 0
    if args.action == "verify":
        system = _system(args)
        quivers = (
            list(all_orientations(system))
            if args.all_orientations
            else [_quiver(args)]
        )
        reports = [verify_denominator(Q, check_all=args.check_all) for Q in quivers]
        ok = all(r.ok for r in reports)
        if args.format == "json":
            _emit(args, _jdump([r.to_json() for r in reports]))
        else:
            for r in reports:
                _emit(args, f"{r.quiver}: {'ok' if r.ok else r.mismatches}")
        return 0 if ok else 1
    raise UsageError(f"unknown denom action {args.action}")


# -- arq ----------------------------------------------------------------


def cmd_arq(args):
    if args.action == "diff":
        fixture = load_fixture(args.fixture)
        system = build_root_system(fixture["kind"], fixture["rank"])
        Q = DynkinQuiver.from_arrows(system, fixture["arrows"])
        deltas = diff_fixture(fixture, build_ar_quiver(Q))
        if args.format == "json":
            _emit(args, _jdump({"fixture": args.fixture, "diff": deltas}))
        else:
            _emit(args, "match" if not deltas else "\n".join(map(str, deltas)))
        return 0 if not deltas else 1
    # show
    arq = build_ar_quiver(_quiver(args))
    if args.format == "dot":
        _emit(args, arq.to_dot())
    elif args.format == "json":
        _emit(args, _jdump(arq.to_json()))
    elif args.format == "latex":
        fmt = arq.system.format_root
        lines = ["\\begin{array}{l}"]
        for i, roots in sorted(arq.rows().items()):
            lines.append(
                f"{i}: " + " & ".join(fmt(r) for r in roots) + " \\\\"
            )
        lines.append("\\end{array}")
        _emit(args, "\n".join(lines))
    else:
        fmt = arq.system.format_root
        out = []
        for i, roots in sorted(arq.rows().items()):
            cells = " ".join(
                f"{fmt(r)}@{arq.coordinate(r)[1]}" for r in roots
            )
            out.append(f"row {i}: {cells}")
        _emit(args, "\n".join(out))
    return 0


# -- verify -------------------------------------------------------------


def _iter_quivers(args):
    system = _system(args)
    if args.all_orientations:
        yield from all_orientations(system)
    elif getattr(args, "orient", None) or getattr(args, "quiver", None):
        yield _quiver(args)
    else:
        yield from all_orientations(system)


def cmd_verify(args):
    failures = []
    if args.property == "rds-mul":
        for Q in _iter_quivers(args):
            cls = build_ar_quiver(Q).comm_class()
            for g in cls.system.positive_roots:
                if g.height == 1:
                    continue
                r = radius(cls, g)
                if r != g.mul:
                    failures.append({
                        "quiver": Q.orientation_str(),
                        "gamma": cls.system.format_root(g),
                        "radius": r, "mul": g.mul,
                    })
    elif args.property == "dist-bound":
        for Q in _iter_quivers(args):
            cls = build_ar_quiver(Q).comm_class()
            bound = {"A": 1, "D": 2}.get(cls.system.kind)
            if bound is None:
                raise UsageError("dist-bound applies to types A and D")
            for i in range(len(cls)):
                for j in range(i + 1, len(cls)):
                    p = pair(cls, cls.roots[i], cls.roots[j])
                    d = dist(p)
                    if d > bound:
                        failures.append({
                            "quiver": Q.orientation_str(),
                            "pair": str(p), "dist": d, "bound": bound,
                        })
    elif args.property == "fixtures":
        for name in (args.fixture,) if args.fixture else ("e6", "e7", "e8"):
            fixture = load_fixture(name)
            system = build_root_system(fixture["kind"], fixture["rank"])
            Q = DynkinQuiver.from_arrows(system, fixture["arrows"])
            deltas = diff_fixture(fixture, build_ar_quiver(Q))
            if deltas:
                failures.append({"fixture": name, "diff": deltas})
    else:
        raise UsageError(f"unknown property {args.property}")
    if args.format == "json":
        _emit(args, _jdump({"property": args.property, "ok": not failures,
                            "failures": failures}))
    else:
        _emit(args, "ok" if not failures else "\n".join(map(str, failures)))
    return 0 if not failures else 1


# -- argument wiring ----------------------------------------------------


def _add_common(p, formats=("text", "json")):
    p.add_argument("--type", help="root system type, e.g. A, D4, E6")
    p.add_argument("--rank", type=int)
    p.add_argument("--orient", help="directed Dynkin edges 'a>b,c>d'")
    p.add_argument("--quiver", help="shorthand 'D4:3>2,2>1,2>4'")
    p.add_argument("--word", help="reduced word '1 3 2 ...'")
    p.add_argument("--format", choices=formats, default="text")
    p.add_argument("--out", help="write output to a file")
    p.add_argument("--cap-class", type=int, default=DEFAULT_CAP)
    p.add_argument("--cap-partitions", type=int, default=DEFAULT_CAP,
                   help="most partitions one enumeration may list; "
                        "existence tests never reach it")


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="rootseq",
        description="Positive-root sequence combinatorics over AR quivers",
    )
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("word", help="reduced-word utilities")
    p.add_argument("action", choices=["roots", "class", "heap", "quiver"])
    _add_common(p)
    p.set_defaults(fn=cmd_word)

    p = sub.add_parser("order", help="compare two root sequences")
    p.add_argument("--seq-a", required=True)
    p.add_argument("--seq-b", required=True)
    _add_common(p)
    p.set_defaults(fn=cmd_order)

    p = sub.add_parser("pair", help="socle / distance statistics")
    p.add_argument(
        "action",
        choices=["socle", "dist", "gdist", "len", "radius", "simple", "minimal"],
    )
    p.add_argument("--pair", help="comma-separated roots")
    p.add_argument("--gamma", help="target root for radius")
    _add_common(p)
    p.set_defaults(fn=cmd_pair)

    p = sub.add_parser("denom", help="distance polynomials and denominators")
    p.add_argument("action", choices=["poly", "table", "verify"])
    p.add_argument("--k", type=int)
    p.add_argument("--l", type=int)
    p.add_argument("--all-orientations", action="store_true")
    p.add_argument("--check-all", action="store_true",
                   help="verify well-definedness across all pairs per slot")
    _add_common(p, formats=("text", "json", "latex"))
    p.set_defaults(fn=cmd_denom)

    p = sub.add_parser("arq", help="AR quiver display and fixture diff")
    p.add_argument("action", choices=["show", "diff"])
    p.add_argument("--fixture", help="fixture name, e.g. e6")
    _add_common(p, formats=("text", "json", "dot", "latex"))
    p.set_defaults(fn=cmd_arq)

    p = sub.add_parser("verify", help="property verification sweeps")
    p.add_argument("property", choices=["rds-mul", "dist-bound", "fixtures"])
    p.add_argument("--all-orientations", action="store_true")
    p.add_argument("--fixture")
    _add_common(p)
    p.set_defaults(fn=cmd_verify)

    return top


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.fn(args)
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
    return code


if __name__ == "__main__":
    sys.exit(main())
