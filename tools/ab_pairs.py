"""Alternating pairs of benchmark runs in two checkouts, summarized per metric.

    python3 tools/ab_pairs.py PARENT CHANGE --workload W --pairs N --seconds S --seed0 K

Pair i (from 1) runs `python3 perfbench/run.py --workload W --seed K+i-1
--seconds S` from the root of each checkout, with that checkout's own
perfbench: the parent first in odd pairs, the change first in even pairs.
Each run gets PYTHONPYCACHEPREFIX set to a new empty temporary directory, so
neither side reads a bytecode cache, left by the other side or by an earlier
run; the runs write or delete nothing in either checkout.  The script prints
each pair, then for each end-to-end metric of the change's BENCHMARK.json
each side's median and quartiles, and the pairs the change wins under the
metric's `better` direction, ties counting for neither.  A gain is marked
where the change wins at least nine tenths of the pairs and the medians
differ, in its favour, by more than the distance between the parent's
quartiles.

The summary is then appended, as one entry, to the trend file
BENCH_<workload>.json at the root of the repository that holds this script:
a JSON list, oldest entry first.  An entry holds each side's commit (null
outside a git checkout) and whether its tree had uncommitted changes, the
seeds, the run length, the median host probe of each side's passes,
whether the runs started from an empty bytecode cache (always, here; an
entry backfilled from prose may say otherwise, and then its setup_s is not
comparable), and per metric each side's quartiles, the pairs won and
whether that is a gain.
"""
from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import tempfile

RUN_TIMEOUT_S = 600  # run.py ends a workload within 180 s; this catches a hang
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PROBE = re.compile(r"median of \d+ probes ([0-9.]+) ms")  # in run.py's line for each pass


def run_once(checkout: str, workload: str, seed: int, seconds: float) -> tuple[dict, list[float]]:
    """The JSON summary of one perfbench run in checkout, from a cold
    bytecode cache, and the host probe of each of its passes in ms."""
    with tempfile.TemporaryDirectory(prefix="ab-pycache-") as cache:
        proc = subprocess.run(
            [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds)],
            cwd=checkout, env={**os.environ, "PYTHONPYCACHEPREFIX": cache},
            capture_output=True, text=True, timeout=RUN_TIMEOUT_S, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"run in {checkout} failed ({proc.returncode}): {proc.stderr[-2000:]}")
    return json.loads(lines[-1]), [float(ms) for ms in PROBE.findall(proc.stdout)]


def git_state(checkout: str) -> dict:
    """{"commit": HEAD, "dirty": uncommitted changes?} of a git checkout;
    both null for a directory that is not the root of one."""
    def git(*args):
        return subprocess.run(["git", "-C", checkout, *args], capture_output=True, text=True,
                              check=False)
    top = git("rev-parse", "--show-toplevel")
    if top.returncode or os.path.realpath(top.stdout.strip()) != os.path.realpath(checkout):
        return {"commit": None, "dirty": None}
    return {"commit": git("rev-parse", "HEAD").stdout.strip(),
            "dirty": bool(git("status", "--porcelain", "--untracked-files=no").stdout.strip())}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile), inclusive of the ends."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(parent: list[dict], change: list[dict], end_to_end: list[dict]) -> list[dict]:
    """Per end-to-end metric {"name", "better", "parent", "change", "wins",
    "pairs", "gain"}, from paired lists of {metric name: value}: each side's
    (q1, median, q3), the pairs where the change reads strictly better, and
    whether that makes a gain.  A metric missing from some run is left out."""
    out = []
    for metric in end_to_end:
        name, lower = metric["name"], metric["better"] == "lower"
        pairs = [(p[name], c[name]) for p, c in zip(parent, change, strict=True)
                 if name in p and name in c]
        if not pairs:
            continue
        wins = sum(c < p if lower else c > p for p, c in pairs)
        p_q, c_q = quartiles([p for p, _ in pairs]), quartiles([c for _, c in pairs])
        gap = p_q[1] - c_q[1] if lower else c_q[1] - p_q[1]
        out.append({"name": name, "better": metric["better"], "parent": p_q, "change": c_q,
                    "wins": wins, "pairs": len(pairs),
                    "gain": wins >= 0.9 * len(pairs) and gap > p_q[2] - p_q[0]})
    return out


def trend_entry(rows: list[dict], *, parent: dict, change: dict, seeds: list[int],
                seconds: float, probes: dict[str, list[float]]) -> dict:
    """One entry of a trend file: summarize()'s rows and how the runs were made."""
    return {
        "source": "tools/ab_pairs.py",
        "parent": parent, "change": change,
        "seeds": seeds, "seconds": seconds, "pairs": rows[0]["pairs"] if rows else 0,
        "host_probe_ms": {side: statistics.median(ms) if ms else None
                          for side, ms in probes.items()},
        "empty_pycache": True,  # run_once gives every run a new PYTHONPYCACHEPREFIX
        "metrics": {row["name"]: {"better": row["better"], "parent": list(row["parent"]),
                                  "change": list(row["change"]), "wins": row["wins"],
                                  "gain": row["gain"]} for row in rows},
    }


def append_trend(path: str, entry: dict) -> None:
    """Append entry to the JSON list in path, made empty if it is missing."""
    entries = []
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            entries = json.load(fh)
    entries.append(entry)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(entries, fh, indent=1)
        fh.write("\n")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="root of the parent checkout")
    parser.add_argument("change", help="root of the changed checkout")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--seed0", type=int, required=True)
    args = parser.parse_args()
    with open(os.path.join(args.change, "BENCHMARK.json"), encoding="utf-8") as fh:
        end_to_end = json.load(fh)["end_to_end"]
    sides: dict[str, list[dict]] = {"parent": [], "change": []}
    probes: dict[str, list[float]] = {"parent": [], "change": []}
    for i in range(1, args.pairs + 1):
        seed = args.seed0 + i - 1
        order = ("parent", "change") if i % 2 else ("change", "parent")
        runs = {}
        for side in order:
            runs[side], side_probes = run_once(getattr(args, side), args.workload, seed,
                                               args.seconds)
            probes[side] += side_probes
        for side, summary in runs.items():
            sides[side].append({k: m["value"] for k, m in summary["metrics"].items()})
        print(f"pair {i} seed {seed}, {order[0]} first: " + "; ".join(
            f"{side} failed {runs[side]['failed']}/{runs[side]['attempted']} "
            + " ".join(f"{k}={v:.4g}" for k, v in sides[side][-1].items())
            for side in ("parent", "change")), flush=True)
    print(f"workload {args.workload}, {args.pairs} pairs of {args.seconds:g} s runs,"
          f" seeds {args.seed0}..{args.seed0 + args.pairs - 1}")
    rows = summarize(sides["parent"], sides["change"], end_to_end)
    for row in rows:
        (p1, p2, p3), (c1, c2, c3) = row["parent"], row["change"]
        print(f"{row['name']} ({row['better']} is better): parent {p2:.4g} [{p1:.4g}, {p3:.4g}]"
              f" change {c2:.4g} [{c1:.4g}, {c3:.4g}] change wins {row['wins']}/{row['pairs']}"
              f"{' GAIN' if row['gain'] else ''}")
    path = os.path.join(ROOT, f"BENCH_{args.workload}.json")
    append_trend(path, trend_entry(
        rows, parent=git_state(args.parent), change=git_state(args.change),
        seeds=list(range(args.seed0, args.seed0 + args.pairs)), seconds=args.seconds,
        probes=probes))
    print(f"appended to {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
