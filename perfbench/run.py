"""binsums benchmark: one workload, timed passes in fresh interpreters.

    python3 perfbench/run.py --workload verify-all-n200 --seed 1 --seconds 36 --trace 0

Run from the root of a checkout that holds src/binsums.  The run first
times set-up in several fresh interpreters, then runs whole passes of the
workload, one process at a time, until --seconds is spent, checks every
op's outcome against an expectation computed here, and prints one line per
metric followed by a JSON summary as the last line.  Every time is in
reference seconds: measured seconds scaled by a host speed probe taken next
to them (see hostspeed.py).  --trace 0 reports the end-to-end metrics;
--trace 1 alternates untraced and traced passes and reports the per-layer
metrics, including the tracing overhead.
--workload all runs the three workloads in turn and ends with one JSON
line whose metric names carry the workload as a prefix.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import select
import statistics
import subprocess
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
sys.path.insert(0, HERE)
import hostspeed  # noqa: E402

SETUP_SAMPLES = 7
RUN_LIMIT_S = 170  # a run must end within 180 s, even when a pass hangs
WORKLOADS = ("verify-all-n200", "verify-perturbed-n200", "derive-scan-p20")

END_TO_END_UNITS = {
    "setup_s": "s", "wall_s": "s", "points_per_s": "1/s", "ops_per_s": "1/s",
    "op_ms_p50": "ms", "op_ms_p90": "ms", "peak_rss_mb": "MB",
}


def run_child(deadline: float, *args: str) -> tuple[float | None, dict | None]:
    """Run one_pass.py in a fresh interpreter.

    Returns its set-up time in reference seconds, from process start to its
    "ready" line, scaled by the mean of a probe taken here just before the
    start and one the child takes just after "ready" (None if either never
    came), and its JSON result line (None if it failed, printed something
    else last or ran past `deadline`, a perf_counter time).  The child is
    always waited for.
    """
    probe_s = hostspeed.probe()
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, os.path.join(HERE, "one_pass.py"), ROOT, *args],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    setup_raw_s = None
    try:
        ready, _, _ = select.select([proc.stdout], [], [], max(deadline - t0, 0))
        if ready and proc.stdout.readline().strip() == "ready":
            setup_raw_s = time.perf_counter() - t0
        out, err = proc.communicate(timeout=max(deadline - time.perf_counter(), 0.1))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        print("pass killed at the run's deadline", file=sys.stderr)
        return None, None
    line = (out.strip().splitlines() or [""])[-1]
    if setup_raw_s is None or proc.returncode != 0:
        print(err, file=sys.stderr)
        return None, None
    try:
        result = json.loads(line)
    except ValueError:
        print(f"pass printed no result: {line[:200]!r}", file=sys.stderr)
        return None, None
    scale = 2 * hostspeed.REFERENCE_S / (probe_s + result["ready_probe_s"])
    return setup_raw_s * scale, result


# ---------------------------------------------------------------------------
# expectations and checks
# ---------------------------------------------------------------------------

class Checker:
    """Independent expectation for one workload; counts failed ops per pass."""

    def __init__(self, workload: str, seed: int) -> None:
        sys.path.insert(0, os.path.join(ROOT, "src"))
        import workloads
        from binsums import identities, sequences

        self.w, self.sequences = workloads, sequences
        self.workload = workload
        registry = identities.builtin_registry()
        n_max = workloads.N_MAX
        self.clipped = 0
        if workload == "verify-all-n200":
            self.expected = [{"label": i.label, "passed": True,
                              "checked": len(workloads.domain_points(i.domain, n_max)),
                              "first_divergence": None} for i in registry]
            self.clipped = sum(workloads.clipped_points(i.domain, n_max) for i in registry)
            self.families = {}
            for i in registry:
                self.families[i.family] = self.families.get(i.family, 0) + len(
                    workloads.domain_points(i.domain, n_max))
        elif workload == "verify-perturbed-n200":
            self.expected = []
            for idx, residue, _ in workloads.perturbations(registry, identities, seed):
                ident = registry[idx]
                self.expected.append({
                    "label": ident.label, "passed": False,
                    "checked": len(workloads.domain_points(ident.domain, n_max)),
                    "first_divergence": workloads.perturbed_first_n(
                        ident, identities, residue, n_max)})
        else:
            with open(os.path.join(HERE, "derive_expected.json"), encoding="ascii") as fh:
                table = json.load(fh)
            targets = workloads.derive_targets(registry, identities)
            self.targets = {workloads.target_key(t): t for t in targets}
            self.expected = [dict(table[f"{workloads.target_key(targets[t])}|{p}"],
                                  target=workloads.target_key(targets[t]), period=p)
                             for t, p in workloads.derive_ops(targets, seed)]
            self.folded = {}  # target key -> [(center, weights)] of its foldable identities
            for ident in registry:
                key = workloads.target_key(ident.lhs)
                if key in self.targets:
                    try:
                        self.folded.setdefault(key, []).append(identities.folded_profile(ident))
                    except ValueError:
                        pass
            self.rechecked: dict[tuple, bool] = {}
        self.points = (len(self.expected) if workload == "derive-scan-p20"
                       else sum(e["checked"] for e in self.expected))

    def op_key(self, outcome: dict) -> str:
        if self.workload == "derive-scan-p20":
            return f"{outcome['target']}|{outcome['period']}"
        return outcome["label"]

    def failed_ops(self, result: dict | None) -> int:
        """Ops of one pass whose outcome disagrees with the expectation or raised.

        Outcomes are matched by op key, not position, so the program may
        finish ops in any order."""
        if result is None:
            return len(self.expected)
        want_by_key = {self.op_key(e): e for e in self.expected}
        keys = ("status", "violated_n", "dimension") if self.workload == "derive-scan-p20" else (
            "passed", "checked", "first_divergence")
        seen = set()
        for have in result["outcomes"]:
            key = self.op_key(have)
            want = want_by_key.get(key)
            ok = (want is not None and key not in seen and "error" not in have
                  and all(have[k] == want[k] for k in keys))
            if ok and have.get("status") == "unique":
                ok = self._unique_ok(have)
            if ok:
                seen.add(key)
        failed = len(self.expected) - len(seen)
        if self.workload == "verify-all-n200" and not self._report_ok(result):
            failed = max(failed, 1)
        return failed

    def _report_ok(self, result: dict) -> bool:
        report = result["report"]
        entries = report["entries"]
        return (result["exit_status"] == 0
                and report["summary"] == {"pass": len(self.families), "fail": 0}
                and [e["id"] for e in entries] == list(self.families)
                and all(e["status"] == "pass" and e["checked"] == self.families[e["id"]]
                        for e in entries))

    def _unique_ok(self, have: dict) -> bool:
        period = have["period"]
        center = Fraction(have["center"])
        weights = tuple(Fraction(w) for w in have["weights"])
        for f_center, f_weights in self.folded[have["target"]]:
            m = len(f_weights)
            if period % m == 0 and (center, weights) != (
                    f_center, tuple(f_weights[r % m] for r in range(period))):
                return False
        key = (have["target"], period, center, weights)
        if key not in self.rechecked:
            self.rechecked[key] = self._comb_recheck(self.targets[have["target"]], center, weights)
        return self.rechecked[key]

    def _comb_recheck(self, target, center: Fraction, weights: tuple) -> bool:
        """Re-check a unique profile with a direct math.comb sum, past the holdout."""
        period = len(weights)
        oracle = self.sequences.get_oracle(target.name)
        for n in range(0, period + 45):
            idx = target.a * n + target.b
            if idx < oracle.start and not oracle.negative_ok:
                continue
            rhs = center * math.comb(2 * n, n) + sum(
                math.comb(2 * n, n + k) * weights[k % period] for k in range(1, n + 1))
            if rhs != target.value(n):
                return False
        return True


# ---------------------------------------------------------------------------
# statistics and output
# ---------------------------------------------------------------------------

def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def op_medians(passes: list[dict]) -> list[float]:
    """Each op's median time over the run's passes, in seconds."""
    per_op: dict[str, list[float]] = {}
    for p in passes:
        for label, s in zip(p["op_labels"], p["op_s"]):
            per_op.setdefault(label, []).append(s)
    return [median(v) for v in per_op.values()]


def pass_wall(passes: list[dict]) -> float:
    """Wall time of one pass, robust to bursts of host load.

    Each op's median over the run's passes, summed, plus the median time a
    pass spends outside its ops.  A burst that slows one op of one pass
    moves one sample of one op instead of a whole pass.
    """
    between = median([p["wall_s"] - sum(p["op_s"]) for p in passes])
    return sum(op_medians(passes)) + between


def end_to_end(checker: Checker, setups: list[float], passes: list[dict]) -> dict:
    """The end-to-end metrics.  Op percentiles are taken over the ops' medians:
    pooled samples put the p90 of verify-perturbed-n200 on the edge between
    two groups of ops, where one slow sample moves it by a fifth."""
    wall = pass_wall(passes)
    ops = [1000 * s for s in op_medians(passes)]
    deciles = statistics.quantiles(ops, n=10) if len(ops) > 1 else ops * 9
    return {
        "setup_s": median(setups),
        "wall_s": wall,
        "points_per_s": checker.points / wall,
        "ops_per_s": len(checker.expected) / wall,
        "op_ms_p50": median(ops),
        "op_ms_p90": deciles[8],
        "peak_rss_mb": median([p["peak_rss_mb"] for p in passes]),
    }


def per_layer(checker: Checker, plain: list[dict], traced: list[dict]) -> dict:
    out: dict[str, tuple[float, str]] = {}
    names = [n for n in traced[0]["trace"]["layers"] if n != "host.probe"] if traced else []
    for name in names:
        rows = [p["trace"]["layers"][name] for p in traced]
        out[f"{name}.calls"] = (rows[0]["calls"], "count")  # identical in every traced pass
        out[f"{name}.self_s"] = (median([r["self_s"] for r in rows]), "s")
    out["identities.points_clipped"] = (checker.clipped, "count")
    derive_calls = out.get("discovery.derive_profile.calls", (0, ""))[0]
    unique = sum(o.get("status") == "unique" for o in traced[0]["outcomes"]) if traced else 0
    out["discovery.unique_ratio"] = (unique / derive_calls if derive_calls else 0.0, "ratio")
    out["host.calib_s"] = (median([p["calib_s"] for p in plain + traced]), "s")
    out["host.probe_s"] = (median([p["probe_s"] for p in plain + traced]), "s")
    traced_wall = pass_wall(traced)
    plain_wall = pass_wall(plain)
    out["trace.wall_s"] = (traced_wall, "s")
    out["trace.untraced_wall_s"] = (plain_wall, "s")
    out["trace.overhead_s"] = (traced_wall - plain_wall, "s")
    probe_spans = traced[0]["trace"]["layers"].get("host.probe", {"calls": 0})["calls"]
    out["trace.spans"] = (traced[0]["trace"]["spans"] - probe_spans, "count")
    return out


def run_workload(workload: str, seed: int, seconds: float, trace_run: bool) -> dict:
    """Measure one workload, print its metric lines, return the JSON summary."""
    deadline = time.perf_counter() + RUN_LIMIT_S
    checker = Checker(workload, seed)
    setups = [s for s in (run_child(deadline, "--setup-only")[0] for _ in range(SETUP_SAMPLES))
              if s is not None]
    passes: dict[bool, list[dict]] = {False: [], True: []}
    attempted = failed = 0
    pass_s: list[float] = []
    measure_start = time.perf_counter()
    while True:
        trace = trace_run and len(passes[False]) > len(passes[True])
        t0 = time.perf_counter()
        setup_s, result = run_child(deadline, workload, str(seed), "1" if trace else "0")
        pass_s.append(time.perf_counter() - t0)
        if setup_s is not None:
            setups.append(setup_s)
        bad = checker.failed_ops(result)
        attempted += len(checker.expected)
        failed += bad
        if result is not None:
            passes[trace].append(result)
            print(f"pass {len(pass_s)}{' traced' if trace else ''}: wall_s={result['wall_s']:.4f}"
                  f" measured {result['wall_raw_s']:.4f} s, median of {len(result['probes'])} probes"
                  f" {1000 * result['probe_s']:.3f} ms; host.calib_s={result['calib_s']:.4f}"
                  f" failed_ops={bad}")
        spent = time.perf_counter() - measure_start
        enough = len(passes[False]) >= 1 and (not trace_run or passes[True])
        next_pass = statistics.median(pass_s)
        if (enough and spent + next_pass > seconds
                or time.perf_counter() + next_pass > deadline):
            break
        if result is None and not passes[False] and not passes[True]:
            break  # the program cannot complete a pass; report it as failed

    print(f"workload {workload} seed {seed}: {checker.w.WHY[workload]}")
    print(f"passes {len(passes[False])} untraced, {len(passes[True])} traced; "
          f"set-up samples {len(setups)}; ops attempted {attempted}, failed {failed}, "
          f"failed_frac {failed / max(attempted, 1):.4f}")
    if trace_run:
        metrics = per_layer(checker, passes[False], passes[True]) if passes[True] else {}
        if passes[True] and passes[True][0]["trace"]["absent"]:
            print(f"layers absent from this program: {passes[True][0]['trace']['absent']}")
        for name, (value, unit) in metrics.items():
            top = ""
            layer = name.rsplit(".", 1)[0]
            if name.endswith(".self_s") and passes[True]:
                row = passes[True][0]["trace"]["layers"].get(layer)
                if row and row["top_op"]:
                    top = f"  (most in {row['top_op']}: {row['top_op_self_s']:.4f} s)"
            print(f"{name} = {value} {unit}{top}")
    else:
        ops_count = len(passes[False][0]["op_s"]) if passes[False] else 0
        values = end_to_end(checker, setups, passes[False]) if passes[False] else {}
        metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in values.items()}
        for name, (value, unit) in metrics.items():
            print(f"{name} = {value} {unit}")
        print(f"op percentiles over {ops_count} ops, each the median of"
              f" {len(passes[False])} passes; points per pass {checker.points}")
    return {
        "correct": failed == 0 and bool(metrics),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"),
                        help="one workload, or all three in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "binsums", "__init__.py")):
        print(f"no src/binsums under {ROOT}: run from the root of a binsums checkout",
              file=sys.stderr)
        return 2
    if args.workload != "all":
        print(json.dumps(run_workload(args.workload, args.seed, args.seconds, bool(args.trace))))
        return 0
    summaries = {}
    for workload in WORKLOADS:
        summaries[workload] = run_workload(workload, args.seed, args.seconds, bool(args.trace))
        print(json.dumps(summaries[workload]))
    print(json.dumps({
        "correct": all(s["correct"] for s in summaries.values()),
        "attempted": sum(s["attempted"] for s in summaries.values()),
        "failed": sum(s["failed"] for s in summaries.values()),
        "metrics": {f"{w}.{k}": v for w, s in summaries.items() for k, v in s["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
