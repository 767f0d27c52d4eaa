"""Command-line front-end.

Subcommands: path, tree, classify, address, entropy, angle.  Identical
invocations produce byte-identical output.  Exit codes: 0 ok, 2 parse
error or unwritable --out, 3 depth budget exhausted, 4 mode mismatch
(finite tree required).
"""

from __future__ import annotations

import argparse
import functools
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
from .critpath import build_critical_path, path_table
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
    STAR,
    angle_to_kneading,
    format_key,
    format_sequence,
    parse_degree,
    parse_prefix,
    parse_sequence,
    precritical_key,
    validate_kneading,
)
from .treebuild import build_tree, markov_data, sigma_closure

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

    pre = tuple(map(relabel, seq.pre))  # first: labels follow first occurrence
    per = None if seq.per is None else tuple(map(relabel, seq.per))
    return EPSeq(pre, per, seq.degree)


def resolve_input(args) -> KneadingSequence:
    degree = parse_degree(args.degree)
    if getattr(args, "gen", None):
        if args.prefix or getattr(args, "normalize", False) or degree != 2:
            raise SequenceParseError(
                "--gen makes degree-2 sequences: it takes no --prefix, "
                "--normalize or --degree other than 2")
        name, _, params = args.gen.partition("=")
        kn = make_generated(name, depth=args.depth or 16, params=params)
    elif args.nu is not None:
        parse = parse_prefix if getattr(args, "prefix", False) else parse_sequence
        seq = parse(args.nu, degree)
        if getattr(args, "normalize", False):
            seq = _normalize_symbols(seq)
        kn = validate_kneading(seq)
    else:
        raise SequenceParseError("no input: pass --nu, --prefix, or --gen")
    return kn


# ---------------------------------------------------------------------------
# subcommands


def cmd_path(args) -> str:
    kn = resolve_input(args)
    depth = args.depth or 5
    path = build_critical_path(kn, depth)
    if args.format == "json":
        import json

        rows = []
        for kind, num, w, _, itinerary in path.rows:
            p, q = path.ratio(kind, num) or (None, 1)
            rows.append({
                "kind": kind,
                "depth": None if w is None else len(w) + 1,
                # printed from its key, a point w*nu is never interned
                "itinerary": (format_sequence(itinerary) if w is None
                              else format_key(*precritical_key(w, kn))),
                "label": None if p is None else f"{p}/{q}" if q > 1 else str(p),
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
    header = (f"critical path of {kn}  stage={depth}  points={len(path.rows)}"
              f"  gaps={len(path.gaps)}  fatou={len(path.fatou)}\n")
    return header + path_table(path)


def cmd_tree(args) -> str:
    kn = resolve_input(args)
    tree = build_tree(kn, args.depth)
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


def classification_report(kn: KneadingSequence, n=None) -> dict:
    tree = build_tree(kn, n)
    report = {
        "nu": str(kn),
        "degree": "inf" if kn.degree is INF else kn.degree,
        "mode": "finite" if tree.finite else "truncated",
        "truncation": tree.truncation,
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

    # closed once here, so the closures inside the calls below copy nothing
    tree = sigma_closure(tree)
    branch_points = enumerate_branch_points(tree)
    # each orbit once, omega's first, from its branch point if it has one
    orbits = {frozenset(bp.point.orbit()): bp.orbit for bp in branch_points
              if bp.orbit is not None}
    if tree.omega is not None:
        key = frozenset(tree.omega.orbit())
        orbits = {key: orbits.pop(key, None)
                  or classify_orbit(tree, tree.omega), **orbits}
    report["orbits"] = [_orbit_entry(rep) for rep in orbits.values()]

    emb = embedding_report(tree, branch_points)
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
    report = classification_report(kn, args.depth)
    if args.format == "json":
        import json

        return json.dumps(report, indent=2) + "\n"
    return _render_classification(report)


def cmd_address(args) -> str:
    if args.depth is not None and args.gen is None:
        raise SequenceParseError("address reads --depth only with --gen")
    if args.from_address is not None:
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
        addr = internal_address(resolve_input(args), max_entries=args.max_entries)
    if addr.valid_to is None:
        return f"{addr}\n"
    return (" -> ".join(map(str, addr.entries))
            + f"  (truncated input, valid to depth {addr.valid_to})\n")


def cmd_entropy(args) -> str:
    kn = resolve_input(args)
    tree = build_tree(kn, args.depth)
    h = core_entropy(tree)
    out = f"{h:.12f}\n"
    if args.matrix:
        md = markov_data(tree)
        out += f"edges: {len(md.edge_list)}\n"
        for i, (u, v) in enumerate(md.edge_list):
            fat = " fatou" if md.tree.is_fatou_edge(u, v) else ""
            out += (f"  e{i}: [{format_sequence(u)}, {format_sequence(v)}]"
                    f"{fat}\n")
        for row in md.rows:
            out += f"  {' '.join(map(str, row))}\n"
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


def _positive_int(text: str) -> int:
    """argparse type of --depth and --max."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"expected an integer >= 1, got {text!r}")
    return value


def _add_common(p, formats=(), normalize=True):
    """The input options, and of the others those the subcommand reads.
    Returns the group of input sources, of which a command line takes
    one."""
    p.add_argument("--degree", default="2", help="alphabet degree (2.. or inf)")
    source = p.add_mutually_exclusive_group()
    source.add_argument("--nu",
                        help="kneading sequence, e.g. '(101*)' or '[|1,2,*]'")
    p.add_argument("--prefix", action="store_true",
                   help="treat --nu as a bare truncated prefix word")
    source.add_argument("--gen", help="builtin generator: staircase, "
                                      "feigenbaum, address=1,2,4, prefix=110100")
    p.add_argument("--depth", type=_positive_int, default=None,
                   help="path stage; orbit points the tree grows to "
                        "(default: set by the input); generator length")
    if normalize:
        p.add_argument("--normalize", action="store_true",
                       help="relabel infinite-degree symbols by first occurrence")
    p.add_argument("--out", help="write output to this file instead of stdout")
    if formats:
        p.add_argument("--format", default="text", choices=formats)
    return source


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="htree",
        description="Combinatorial Hubbard trees from kneading sequences",
    )
    ap.add_argument("--batch", help="file of command lines to run in order")
    sub = ap.add_subparsers(dest="command")

    p = sub.add_parser("path", help="precritical points, gaps, Fatou intervals")
    _add_common(p, ("text", "json"))
    p.set_defaults(func=cmd_path)

    p = sub.add_parser("tree", help="build and export the Hubbard tree")
    _add_common(p, ("text", "dot", "json", "svg"))
    p.set_defaults(func=cmd_tree)

    p = sub.add_parser("classify", help="orbit types, embeddability, entropy")
    _add_common(p, ("text", "json"))
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("address", help="internal address <-> kneading sequence")
    source = _add_common(p, normalize=False)
    source.add_argument("--from", dest="from_address",
                        help="comma-separated address, e.g. 1,3,4,8")
    p.add_argument("--max", dest="max_entries", type=_positive_int, default=16,
                   help="entry cap for infinite addresses")
    p.set_defaults(func=cmd_address)

    p = sub.add_parser("entropy", help="core entropy of the finite tree")
    _add_common(p)
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
    """(exit_code, text) of one subcommand: its output for stdout, which
    is empty when --out took it, or the one-line error message for the
    exceptions that map to an exit code."""
    try:
        text = args.func(args)
    except (SequenceParseError, KneadingError, WrongDegree,
            NonIncreasingAddress, NotStarPeriodic) as exc:
        return EXIT_PARSE, f"error: {exc}\n"
    except DepthBudgetExceeded as exc:
        return EXIT_BUDGET, f"error: depth budget exhausted: {exc}\n"
    except TruncatedTree as exc:
        return EXIT_MODE, f"error: finite tree required: {exc}\n"
    if not args.out:
        return 0, text
    try:
        with open(args.out, "w") as fh:
            fh.write(text)
    except OSError as exc:
        return EXIT_PARSE, f"error: cannot write output: {exc}\n"
    return 0, ""


def _run_one(argv) -> tuple:
    """(exit_code, stdout_text) of one batch line."""
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return (exc.code if exc.code else EXIT_PARSE), ""
    if args.command is None:
        return EXIT_PARSE, "error: no subcommand\n"
    return _call(args)


def _run_batch(path: str) -> int:
    try:
        with open(path, encoding="utf-8") as fh:
            lines = [ln.strip() for ln in fh]
        jobs = [shlex.split(ln) for ln in lines
                if ln and not ln.startswith("#")]
    except (OSError, ValueError) as exc:  # unreadable, not UTF-8, bad quoting
        sys.stderr.write(f"error: cannot read batch file: {exc}\n")
        return EXIT_PARSE
    worst = 0
    for argv in jobs:
        code, text = _run_one(argv)
        sys.stdout.write(f"### {' '.join(argv)}\n")
        sys.stdout.write(text)
        if code:
            worst = worst or code
    return worst


def main(argv=None) -> int:
    """Run one htree command line (sys.argv by default); returns the exit
    code.  The parser is built on the first call and shared by every later
    call and every --batch line in the process."""
    ap = build_parser()
    args = ap.parse_args(argv)
    if args.batch is not None:
        return _run_batch(args.batch)
    if args.command is None:
        ap.print_help()
        return EXIT_PARSE
    code, text = _call(args)
    (sys.stderr if code else sys.stdout).write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
