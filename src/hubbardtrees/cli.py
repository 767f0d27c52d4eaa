"""Command-line front-end.

Subcommands: path, tree, classify, address, entropy, angle.  Identical
invocations produce byte-identical output.  Exit codes: 0 ok, 2 parse
error, 3 depth budget exhausted, 4 mode mismatch (finite tree required).
"""

from __future__ import annotations

import argparse
import shlex
import sys
from fractions import Fraction

from .analysis import (
    classify_bifurcation,
    classify_orbit,
    core_entropy,
    enumerate_branch_points,
    embedding_report,
    internal_address,
    kneading_from_address,
)
from .critpath import build_critical_path, lower_sequence, path_table
from .errors import (
    DepthBudgetExceeded,
    KneadingError,
    NonIncreasingAddress,
    NotStarPeriodic,
    SequenceParseError,
    TruncatedTree,
    WrongDegree,
)
from .export import tree_to_dot, tree_to_json, tree_to_svg, tree_to_text
from .generators import make as make_generated
from .symbolic import (
    EPSeq,
    INF,
    KneadingSequence,
    PrefixSequence,
    STAR,
    angle_to_kneading,
    format_sequence,
    parse_degree,
    parse_prefix,
    parse_sequence,
    validate_kneading,
)
from .treebuild import build_tree, markov_data

EXIT_PARSE = 2
EXIT_BUDGET = 3
EXIT_MODE = 4


def _normalize_symbols(seq):
    """First-occurrence relabelling 1, 2, 3, ... for infinite degree."""
    if seq.degree is not INF:
        raise SequenceParseError("--normalize applies to infinite degree only")
    table = {}

    def relabel(sym):
        if sym is STAR:
            return STAR
        if sym not in table:
            table[sym] = len(table) + 1
        return table[sym]

    if seq.exact:
        return EPSeq(tuple(map(relabel, seq.pre)),
                     tuple(map(relabel, seq.per)), seq.degree)
    return PrefixSequence(tuple(map(relabel, seq.word)), seq.degree)


def resolve_input(args) -> KneadingSequence:
    degree = parse_degree(args.degree)
    if getattr(args, "gen", None):
        name, _, params = args.gen.partition("=")
        kn = make_generated(name, depth=args.depth or 16, params=params)
    elif args.nu is not None and getattr(args, "prefix", False):
        kn = validate_kneading(parse_prefix(args.nu, degree))
    elif args.nu is not None:
        seq = parse_sequence(args.nu, degree)
        if args.normalize:
            seq = _normalize_symbols(seq)
        kn = validate_kneading(seq)
    else:
        raise SequenceParseError("no input: pass --nu, --prefix, or --gen")
    return kn


def _emit(args, text: str) -> None:
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# subcommands


def cmd_path(args) -> str:
    kn = resolve_input(args)
    depth = args.depth or 5
    path = build_critical_path(kn, depth)
    if args.format == "json":
        import json

        rows = []
        for pt in path.points:
            rows.append({
                "kind": pt.kind,
                "depth": pt.depth,
                "itinerary": format_sequence(pt.seq),
                "label": None if pt.label is None else str(pt.label),
            })
        doc = {
            "nu": str(kn),
            "stage": depth,
            "points": rows,
            "gaps": [[format_sequence(g.left), format_sequence(g.right),
                      format_sequence(g.central)] for g in path.gaps],
            "fatou": [[format_sequence(f.a), format_sequence(f.b)]
                      for f in path.fatou],
        }
        return json.dumps(doc, indent=2) + "\n"
    header = (f"critical path of {kn}  stage={depth}  points={len(path.points)}"
              f"  gaps={len(path.gaps)}  fatou={len(path.fatou)}\n")
    return header + path_table(path)


def cmd_tree(args) -> str:
    kn = resolve_input(args)
    tree = build_tree(kn, args.depth, max_points=args.max_vertices)
    render = {
        "json": tree_to_json,
        "dot": tree_to_dot,
        "svg": tree_to_svg,
        "text": tree_to_text,
    }[args.format]
    return render(tree)


def _orbit_entry(rep) -> dict:
    return {
        "characteristic": None if rep.characteristic is None
        else format_sequence(rep.characteristic),
        "period": rep.period,
        "arms": rep.arms,
        "kind": rep.kind,
    }


def classification_report(kn: KneadingSequence, n=None, max_points=64) -> dict:
    tree = build_tree(kn, n, max_points=max_points)
    mode, trunc = tree.mode
    report = {
        "nu": str(kn),
        "degree": "inf" if kn.degree is INF else kn.degree,
        "mode": mode,
        "truncation": trunc,
    }

    if kn.star_periodic:
        bc = classify_bifurcation(kn)
        report["bifurcation"] = {
            "class": bc.kind,
            "base_period": bc.q,
            "letter": bc.letter,
            "base": None if bc.base is None else str(bc.base),
        }
    else:
        report["bifurcation"] = None

    orbits = []
    listed = set()
    if kn.star_periodic and tree.finite:
        omega = lower_sequence(kn)
        rep = classify_orbit(kn, omega)
        orbits.append(_orbit_entry(rep))
        listed.add(frozenset(omega.orbit()))
    for bp in enumerate_branch_points(tree):
        if bp.kind == "periodic" and bp.orbit is not None:
            key = frozenset(bp.point.orbit())
            if key not in listed:
                listed.add(key)
                orbits.append(_orbit_entry(bp.orbit))
    report["orbits"] = orbits

    emb = embedding_report(tree)
    report["admissible"] = emb.admissible
    report["embedding_count"] = emb.count
    if emb.provisional:
        report["embedding_provisional"] = True
    report["entropy"] = core_entropy(tree) if tree.finite else None
    return report


def _render_classification(report: dict) -> str:
    lines = [f"nu:         {report['nu']}  (degree {report['degree']}, "
             f"{report['mode']}"
             + (f" at {report['truncation']}" if report["truncation"] is not None
                else "") + ")"]
    bif = report["bifurcation"]
    if bif is None:
        lines.append("bifurcation: not star-periodic")
    elif bif["class"] == "none":
        lines.append("bifurcation: none")
    else:
        lines.append(f"bifurcation: {bif['class']} from period "
                     f"{bif['base_period']} (base {bif['base']})")
    for o in report["orbits"]:
        lines.append(f"orbit:      characteristic {o['characteristic']} "
                     f"period {o['period']} arms {o['arms']} kind {o['kind']}")
    prov = " (provisional: truncated)" if report.get("embedding_provisional") \
        else ""
    lines.append(f"admissible: {report['admissible']}  "
                 f"embeddings: {report['embedding_count']}{prov}")
    if report["entropy"] is not None:
        lines.append(f"entropy:    {report['entropy']:.12f}")
    return "\n".join(lines) + "\n"


def cmd_classify(args) -> str:
    kn = resolve_input(args)
    report = classification_report(kn, args.depth, max_points=args.max_vertices)
    if args.format == "json":
        import json

        return json.dumps(report, indent=2) + "\n"
    return _render_classification(report)


def cmd_address(args) -> str:
    if args.from_address:
        try:
            entries = [int(x) for x in args.from_address.split(",")]
        except ValueError:
            raise NonIncreasingAddress(
                f"bad address {args.from_address!r}") from None
        kn = kneading_from_address(entries)
        return str(kn) + "\n"
    if args.nu is not None and not args.prefix:
        # addresses exist for any binary sequence starting with 1, not
        # just kneading sequences (ovl(101) has one, ovl(100) too)
        seq = parse_sequence(args.nu, parse_degree(args.degree))
        addr = internal_address(seq, max_entries=args.max_entries)
    else:
        kn = resolve_input(args)
        addr = internal_address(kn if kn.exact else kn.seq,
                                max_entries=args.max_entries)
    text = " -> ".join(str(e) for e in addr.entries)
    if not addr.finite and addr.valid_to is not None:
        text += f"  (truncated input, valid to depth {addr.valid_to})"
    elif not addr.finite:
        text += " -> ..."
    return text + "\n"


def cmd_entropy(args) -> str:
    kn = resolve_input(args)
    tree = build_tree(kn, args.depth, max_points=args.max_vertices)
    h = core_entropy(tree)
    out = f"{h:.12f}\n"
    if args.matrix:
        md = markov_data(tree)
        out += f"edges: {len(md.edge_list)}\n"
        for i, (u, v) in enumerate(md.edge_list):
            fat = " fatou" if md.tree.is_fatou_edge(u, v) else ""
            out += (f"  e{i}: [{format_sequence(u)}, {format_sequence(v)}]"
                    f"{fat}\n")
        for i, row in enumerate(md.matrix):
            out += f"  {' '.join(str(int(x)) for x in row)}\n"
    return out


def cmd_angle(args) -> str:
    degree = parse_degree(args.degree)
    try:
        theta = Fraction(args.theta)
    except (ValueError, ZeroDivisionError):
        raise SequenceParseError(f"bad angle {args.theta!r}") from None
    kn = angle_to_kneading(theta, degree)
    return str(kn) + "\n"


# ---------------------------------------------------------------------------
# argument plumbing


def _add_common(p, with_format=True):
    p.add_argument("--degree", default="2", help="alphabet degree (2.. or inf)")
    p.add_argument("--nu", help="kneading sequence, e.g. '(101*)' or '[|1,2,*]'")
    p.add_argument("--prefix", action="store_true",
                   help="treat --nu as a bare truncated prefix word")
    p.add_argument("--gen", help="builtin generator: staircase, feigenbaum, "
                                 "address=1,2,4, prefix=110100")
    p.add_argument("--depth", type=int, default=None,
                   help="stage / growth / generator depth")
    p.add_argument("--max-vertices", type=int, default=64,
                   help="growth ceiling before truncation")
    p.add_argument("--normalize", action="store_true",
                   help="relabel infinite-degree symbols by first occurrence")
    p.add_argument("--out", help="write output to this file instead of stdout")
    if with_format:
        p.add_argument("--format", default="text",
                       choices=["text", "dot", "json", "svg"])


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="htree",
        description="Combinatorial Hubbard trees from kneading sequences",
    )
    ap.add_argument("--batch", help="file of command lines to run in order")
    sub = ap.add_subparsers(dest="command")

    p = sub.add_parser("path", help="precritical points, gaps, Fatou intervals")
    _add_common(p)
    p.set_defaults(func=cmd_path)

    p = sub.add_parser("tree", help="build and export the Hubbard tree")
    _add_common(p)
    p.set_defaults(func=cmd_tree)

    p = sub.add_parser("classify", help="orbit types, embeddability, entropy")
    _add_common(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("address", help="internal address <-> kneading sequence")
    _add_common(p)
    p.add_argument("--from", dest="from_address",
                   help="comma-separated address, e.g. 1,3,4,8")
    p.add_argument("--max", dest="max_entries", type=int, default=16,
                   help="entry cap for infinite addresses")
    p.set_defaults(func=cmd_address)

    p = sub.add_parser("entropy", help="core entropy of the finite tree")
    _add_common(p, with_format=False)
    p.add_argument("--matrix", action="store_true",
                   help="dump the edge transition matrix")
    p.set_defaults(func=cmd_entropy)

    p = sub.add_parser("angle", help="kneading sequence of an external angle")
    p.add_argument("--degree", default="2")
    p.add_argument("--theta", required=True, help="rational angle, e.g. 1/7")
    p.add_argument("--out")
    p.set_defaults(func=cmd_angle)

    return ap


def _call(args) -> tuple:
    """(exit_code, text) of one subcommand: its output, or the one-line
    error message for the exceptions that map to an exit code."""
    try:
        return 0, args.func(args)
    except (SequenceParseError, KneadingError, WrongDegree,
            NonIncreasingAddress, NotStarPeriodic) as exc:
        return EXIT_PARSE, f"error: {exc}\n"
    except DepthBudgetExceeded as exc:
        return EXIT_BUDGET, f"error: depth budget exhausted: {exc}\n"
    except TruncatedTree as exc:
        return EXIT_MODE, f"error: finite tree required: {exc}\n"


def _run_one(ap, argv) -> tuple:
    """(exit_code, stdout_text) of one batch line parsed with ap.  A line
    with --out writes its output to that file, as main does, and leaves
    nothing for stdout."""
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return (exc.code if exc.code else EXIT_PARSE), ""
    if args.command is None:
        return EXIT_PARSE, "error: no subcommand\n"
    code, text = _call(args)
    if code == 0 and args.out:
        _emit(args, text)
        return code, ""
    return code, text


def _run_batch(path: str) -> int:
    with open(path) as fh:
        lines = [ln.strip() for ln in fh]
    jobs = [shlex.split(ln) for ln in lines if ln and not ln.startswith("#")]
    ap = build_parser()
    worst = 0
    for argv in jobs:
        code, text = _run_one(ap, argv)
        sys.stdout.write(f"### {' '.join(argv)}\n")
        sys.stdout.write(text)
        if code:
            worst = worst or code
    return worst


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if "--batch" in argv:
        i = argv.index("--batch")
        return _run_batch(argv[i + 1])
    ap = build_parser()
    args = ap.parse_args(argv)
    if args.command is None:
        ap.print_help()
        return EXIT_PARSE
    code, text = _call(args)
    if code:
        sys.stderr.write(text)
    else:
        _emit(args, text)
    return code


if __name__ == "__main__":
    sys.exit(main())
