"""Command-line front end.

Exit status contract: 0 all checks passed, 1 a verification or comparison
failed, 2 usage errors (unknown names, bad flags).  Big integers are
always emitted as decimal strings in JSON and CSV so nothing is truncated
downstream.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import sys

from . import discovery, identities, oeis
from .cyclo import cos_power_vector
from .identities import OracleRef, builtin_registry, verify
from .sequences import get_oracle, seq_slice

DEFAULT_N_MAX = 50


def _parse_index(text: str) -> tuple[int, int]:
    """Affine index maps like 'n', '2n', '2n+1', 'n-1', '-n+70'."""
    s = text.replace(" ", "")
    if "n" not in s:
        raise ValueError(f"index map {text!r} must mention n")
    head, _, tail = s.partition("n")
    if tail and tail[0] not in "+-":
        raise ValueError(f"index map {text!r}: the offset after n needs a sign, as in 2n+1")
    a = int(head + "1") if head in ("", "+", "-") else int(head)
    b = int(tail) if tail else 0
    return a, b


def _parse_range(text: str) -> tuple[int, int]:
    lo, _, hi = text.partition("..")
    return int(lo), int(hi)


def _emit(args: argparse.Namespace, payload: dict, text_lines: list[str]) -> None:
    if args.format == "json":
        print(json.dumps(payload, indent=2))
    elif args.format == "csv":
        buf = io.StringIO()
        entries = payload.get("entries", [payload])
        writer = csv.DictWriter(buf, fieldnames=list(entries[0].keys()))
        writer.writeheader()
        for e in entries:
            writer.writerow(e)
        sys.stdout.write(buf.getvalue())
    else:
        for line in text_lines:
            print(line)


def _cmd_verify(args: argparse.Namespace, registry) -> int:
    if args.identity and args.identity != "all":
        if not any(i.family == args.identity for i in registry):
            print(f"unknown identity {args.identity!r}; known: {', '.join(identities.FAMILIES)}",
                  file=sys.stderr)
            return 2
        families = [args.identity]
    else:
        families = list(dict.fromkeys(i.family for i in registry))
    entries = []
    n_pass = 0
    stream_text = args.format == "text"
    for fam in families:
        members = [i for i in registry if i.family == fam]
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
        if bad is None:
            n_pass += 1
        if stream_text:
            line = f"{fam:24s} {entry['status'].upper():4s} n in {entry['domain']:>10s}  checked {entry['checked']:3d}  {entry['millis']:9.3f} ms"
            if bad is not None:
                line += f"  first divergence n={bad.first_divergence}: lhs={bad.lhs_at_divergence} rhs={bad.rhs_at_divergence}"
            print(line)
    summary = {"pass": n_pass, "fail": len(families) - n_pass}
    payload = {"command": "verify", "entries": entries, "summary": summary}
    if stream_text:
        tag = "PASS" if summary["fail"] == 0 else "FAIL"
        print(f"{tag} {n_pass}/{len(families)}")
    else:
        _emit(args, payload, [])
    return 0 if summary["fail"] == 0 else 1


def _cmd_table(args: argparse.Namespace) -> int:
    try:
        values = seq_slice(args.sequence, args.count, args.m)
    except (KeyError, ValueError) as exc:
        print(str(exc), file=sys.stderr)
        return 2
    start = get_oracle(args.sequence).start
    payload = {"command": "table", "sequence": args.sequence, "param": args.m,
               "start": start, "values": [str(v) for v in values]}
    _emit(args, payload, [", ".join(str(v) for v in values)])
    return 0


def _cmd_derive(args: argparse.Namespace, index: tuple[int, int],
                solve_range: tuple[int, ...]) -> int:
    a, b = index
    target = OracleRef(args.target, param=args.m, a=a, b=b)
    row_odd = args.row == "odd"
    try:
        solution = discovery.derive_profile(target, args.period, row_odd, *solve_range)
    except (KeyError, ValueError) as exc:
        print(str(exc), file=sys.stderr)
        return 2
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
    try:
        get_oracle(args.sequence)
        if args.bfile:
            with open(args.bfile, "r", encoding="ascii") as fh:
                table = oeis.parse_bfile(fh.read(), args.seq_id, source=args.bfile)
        elif args.fetch:
            table = oeis.fetch(args.seq_id, allow_network=True, cache_dir=args.cache_dir)
        else:
            try:
                table = oeis.fetch(args.seq_id, allow_network=False, cache_dir=args.cache_dir)
            except oeis.FetchDisabled:
                table = oeis.load_fixture(args.seq_id)
        # a missing or out-of-range --m, or a --count below 20, is a usage error
        report = oeis.compare(args.sequence, table, args.count, args.m)
    except (KeyError, ValueError, OSError) as exc:
        print(str(exc), file=sys.stderr)
        return 2
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


def _cmd_cospow(args: argparse.Namespace) -> int:
    vec = cos_power_vector(args.modulus, args.exp, args.power)
    payload = {"command": "cospow", "modulus": args.modulus, "exp": args.exp,
               "power": args.power, "coeffs": [str(c) for c in vec.coeffs]}
    _emit(args, payload, ["[" + ", ".join(str(c) for c in vec.coeffs) + "]"])
    return 0


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
    p.add_argument("--n-max", type=int, default=DEFAULT_N_MAX)
    p.add_argument("--format", choices=("text", "json", "csv"), default="text")

    p = sub.add_parser("table", help="print leading values of a sequence")
    p.add_argument("--sequence", required=True)
    p.add_argument("--m", type=int, default=None, help="parameter for parameterized sequences")
    p.add_argument("--count", type=int, default=20)
    p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("derive", help="solve for a periodic weight profile")
    p.add_argument("--target", required=True)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--period", type=int, required=True)
    p.add_argument("--row", choices=("even", "odd"), default="even")
    p.add_argument("--solve-range", default=None, help="A..B")
    p.add_argument("--index", default="n", help="target index map, e.g. 2n or 2n+1")
    p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("oeis-check", help="compare a sequence against a b-file")
    p.add_argument("--sequence", required=True)
    p.add_argument("--id", required=True, dest="seq_id")
    p.add_argument("--m", type=int, default=None)
    src = p.add_mutually_exclusive_group()
    src.add_argument("--bfile", help="path to a local b-file")
    src.add_argument("--fetch", action="store_true", help="allow a network fetch")
    p.add_argument("--cache-dir", default=None,
                   help="b-file cache directory (default $OEIS_CACHE_DIR or ./.oeis-cache)")
    p.add_argument("--count", type=int, default=50)
    p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("cospow", help="print a cosine power vector")
    p.add_argument("--modulus", type=int, required=True)
    p.add_argument("--exp", type=int, required=True)
    p.add_argument("--power", type=int, required=True)
    p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("export", help="dump the identity registry as JSON")
    p.add_argument("--format", choices=("json",), default="json")
    return parser


def run(argv: list[str] | None = None, registry=None) -> int:
    """Parse arguments and execute; returns the process exit status.

    A substitute identity registry can be injected for testing the
    exit-status contract.
    """
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "verify":
        if args.n_max < 1:
            parser.error("--n-max must be >= 1")
        return _cmd_verify(args, registry if registry is not None else builtin_registry())
    if args.command == "derive":
        try:
            index = _parse_index(args.index)
            solve_range = _parse_range(args.solve_range) if args.solve_range else ()
        except ValueError as exc:
            parser.error(str(exc))
        return _cmd_derive(args, index, solve_range)
    commands = {"table": _cmd_table, "oeis-check": _cmd_oeis_check,
                "cospow": _cmd_cospow, "export": _cmd_export}
    return commands[args.command](args)


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
