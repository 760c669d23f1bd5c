"""Command-line front end.

Exit status contract: 0 all checks passed, 1 a verification or comparison
failed, 2 a bad flag, or an unknown name, bad value or file that a command
raises into the one handler in `run`.  Big integers are emitted as decimal
strings in JSON and CSV, so nothing is truncated downstream.
"""
from __future__ import annotations

import argparse
import csv
import json
import sys

from . import identities
from .identities import OracleRef, builtin_registry, verify
from .sequences import get_oracle, seq_values

DEFAULT_N_MAX = 50


def positive_int(text: str) -> int:
    """The value of verify's --n-max and of table's --count, an int >= 1;
    argparse names this function when the text is no int."""
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return n


def _parse_index(text: str) -> tuple[int, int]:
    """Affine index maps like 'n', '2n', '2n+1', 'n-1', '-n+70'."""
    s = text.replace(" ", "")
    if "n" not in s:
        raise argparse.ArgumentTypeError(f"index map {text!r} must mention n")
    head, _, tail = s.partition("n")
    if tail and tail[0] not in "+-":
        raise argparse.ArgumentTypeError(
            f"index map {text!r}: the offset after n needs a sign, as in 2n+1")
    try:
        return int(head + "1") if head in ("", "+", "-") else int(head), int(tail or 0)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"index map {text!r} must read an+b, as in 2n+1") from None


def _parse_range(text: str) -> tuple[int, int]:
    lo, _, hi = text.partition("..")
    try:
        return int(lo), int(hi)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"solve range {text!r} must read A..B, as in 1..8") from None


def _emit(args: argparse.Namespace, payload: dict, text_lines: list[str]) -> None:
    if args.format == "json":
        print(json.dumps(payload, indent=2))
    elif args.format == "csv":  # only verify offers csv
        writer = csv.DictWriter(sys.stdout, fieldnames=list(payload["entries"][0]))
        writer.writeheader()
        writer.writerows(payload["entries"])
    else:
        print("\n".join(text_lines))


def _cmd_verify(args: argparse.Namespace) -> int:
    groups: dict[str, list] = {}
    for ident in builtin_registry():
        groups.setdefault(ident.family, []).append(ident)
    if args.identity:
        if args.identity not in groups:
            raise KeyError(f"unknown identity {args.identity!r}; known: {', '.join(groups)}")
        groups = {args.identity: groups[args.identity]}
    if not groups:
        raise ValueError("no identity to verify: the registry is empty")
    for ident in [i for members in groups.values() for i in members]:
        ident.indices(0, args.n_max)  # refuse an idle domain before any output
    entries = []
    stream_text = args.format == "text"
    for fam, members in groups.items():
        reports = [verify(m, args.n_max) for m in members]
        bad = next((r for r in reports if not r.passed), None)
        entry = {
            "id": fam,
            "domain": str(members[0].domain),
            "status": "pass" if bad is None else "fail",
            "checked": sum(len(r.checked) for r in reports),
            "first_divergence": None if bad is None else bad.first_divergence,
            "lhs": None if bad is None else bad.lhs_at_divergence,
            "rhs": None if bad is None else bad.rhs_at_divergence,
            "millis": round(sum(r.elapsed for r in reports) * 1000, 3),
        }
        entries.append(entry)
        if stream_text:
            line = f"{fam:24s} {entry['status'].upper():4s} n in {entry['domain']:>10s}  checked {entry['checked']:3d}  {entry['millis']:9.3f} ms"
            if bad is not None:
                line += f"  first divergence n={bad.first_divergence}: lhs={bad.lhs_at_divergence} rhs={bad.rhs_at_divergence}"
            print(line)
    n_pass = sum(e["status"] == "pass" for e in entries)
    if stream_text:
        print(f"{'PASS' if n_pass == len(groups) else 'FAIL'} {n_pass}/{len(groups)}")
    else:
        _emit(args, {"command": "verify", "entries": entries,
                     "summary": {"pass": n_pass, "fail": len(groups) - n_pass}}, [])
    return 0 if n_pass == len(groups) else 1


def _cmd_table(args: argparse.Namespace) -> int:
    start = get_oracle(args.sequence).start
    values = seq_values(args.sequence, range(start, start + args.count), args.m)
    payload = {"command": "table", "sequence": args.sequence, "param": args.m,
               "start": start, "values": [str(v) for v in values]}
    _emit(args, payload, [", ".join(str(v) for v in values)])
    return 0


def _cmd_derive(args: argparse.Namespace) -> int:
    from . import discovery  # only derive compiles it
    a, b = args.index
    target = OracleRef(args.target, param=args.m, a=a, b=b)
    row_odd = args.row == "odd"
    solution = discovery.derive_profile(target, args.period, row_odd, *args.solve_range)
    payload = discovery.profile_json(solution)
    payload["command"] = "derive"
    lines = [f"target {args.target} period {args.period} "
             f"rows {'2n+1' if row_odd else '2n'}: {solution.status}"]
    if solution.status == "unique":
        lines.append(f"center  {solution.center}")
        lines.append(f"weights {', '.join(str(w) for w in solution.weights)}")
        lines.append(json.dumps(payload["identity"]))
    elif solution.status == "underdetermined":
        lines.append(f"solution space dimension {solution.dimension}")
    else:
        lines.append(f"no profile exists; first violated n = {solution.violated_n}")
    _emit(args, payload, lines)
    return 0 if solution.status == "unique" else 1


def _cmd_oeis_check(args: argparse.Namespace) -> int:
    from . import oeis  # only oeis-check compiles it
    get_oracle(args.sequence)
    if args.bfile:
        with open(args.bfile, "r", encoding="ascii") as fh:
            table = oeis.parse_bfile(fh.read(), args.seq_id)
    else:
        table = oeis.load_fixture(args.seq_id)
    # a missing or out-of-range --m, or a --count below oeis.MIN_MATCH, is a usage error
    report = oeis.compare(args.sequence, table, args.count, args.m)
    payload = {"command": "oeis-check", "sequence": args.sequence, "id": args.seq_id,
               "shift": report.shift, "matched": report.matched,
               "match": report.is_match,
               "first_mismatch": None if report.first_mismatch is None else
               {"index": report.first_mismatch[0],
                "local": str(report.first_mismatch[1]),
                "bfile": str(report.first_mismatch[2])}}
    lines = [f"{args.sequence} vs {args.seq_id}: "
             f"{'MATCH' if report.is_match else 'MISMATCH'} "
             f"({report.matched} terms at shift {report.shift:+d})"]
    if report.first_mismatch:
        i, lv, bv = report.first_mismatch
        lines.append(f"first divergence at n={i}: local {lv}, b-file {bv}")
    _emit(args, payload, lines)
    return 0 if report.is_match else 1


def _cmd_export(args: argparse.Namespace) -> int:
    print(json.dumps(identities.registry_json(), indent=2))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="binsums",
        description="verify, tabulate and discover periodic weighted binomial sums",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="check identities against their oracles")
    g = p.add_mutually_exclusive_group()
    g.add_argument("--identity", help="single identity family id")
    g.add_argument("--all", action="store_true", help="all identities (default)")
    p.add_argument("--n-max", type=positive_int, default=DEFAULT_N_MAX)
    p.add_argument("--format", choices=("text", "json", "csv"), default="text")

    p = sub.add_parser("table", help="print leading values of a sequence")
    p.add_argument("--sequence", required=True)
    p.add_argument("--m", type=int, default=None, help="parameter for parameterized sequences")
    p.add_argument("--count", type=positive_int, default=20)
    p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("derive", help="solve for a periodic weight profile")
    p.add_argument("--target", required=True)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--period", type=int, required=True)
    p.add_argument("--row", choices=("even", "odd"), default="even")
    p.add_argument("--solve-range", type=_parse_range, default=(), help="A..B")
    p.add_argument("--index", type=_parse_index, default="n",
                   help="target index map, e.g. 2n or 2n+1; a leading minus as --index=-n+70")
    p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("oeis-check", help="compare a sequence against a b-file")
    p.add_argument("--sequence", required=True)
    p.add_argument("--id", required=True, dest="seq_id")
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--bfile", help="path to a local b-file (default: the bundled one)")
    p.add_argument("--count", type=int, default=50)
    p.add_argument("--format", choices=("text", "json"), default="text")

    sub.add_parser("export", help="dump the identity registry as JSON")
    return parser


def run(argv: list[str] | None = None) -> int:
    """Parse arguments and execute; returns the process exit status."""
    args = _build_parser().parse_args(argv)
    commands = {"verify": _cmd_verify, "table": _cmd_table,
                "derive": _cmd_derive, "oeis-check": _cmd_oeis_check, "export": _cmd_export}
    try:
        return commands[args.command](args)
    except (KeyError, ValueError, OSError) as exc:  # an unknown name, a bad value or file
        # a KeyError's message without the quotes str() gives it
        print(exc.args[0] if isinstance(exc, KeyError) else exc, file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
