"""One timed pass of one workload, in a fresh interpreter.

Usage: python3 one_pass.py ROOT WORKLOAD SEED TRACE
       python3 one_pass.py ROOT --setup-only

ROOT is the checkout holding src/binsums.  The pass prints "ready" once
binsums.cli is imported and the registry is built, so the caller can time
set-up from process start, then prints one JSON line with a host speed probe
taken just after "ready" and, unless --setup-only, the pass wall time,
per-op outcomes and times, a host calibration time, peak RSS and, when TRACE
is 1, the per-layer span summary.  Op and pass times are in reference
seconds (see hostspeed.py); the measured ones are kept as *_raw_s.  A fresh
process per pass keeps every memo table cold, as it is for each real
binsums invocation.
"""
from __future__ import annotations

import bisect
import contextlib
import io
import json
import math
import os
import resource
import statistics
import sys
import time

ROOT = sys.argv[1]
sys.path.insert(0, os.path.join(ROOT, "src"))

import binsums.cli  # noqa: E402  (set-up ends here)
from binsums import discovery, identities  # noqa: E402

REGISTRY = identities.builtin_registry()
print("ready", flush=True)

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import hostspeed  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

READY_PROBE_S = hostspeed.probe()  # the caller scales set-up time with it
PROBE_EVERY_S = 0.1  # ops closer together than this share a probe


def calibrate() -> float:
    """Fixed pure-Python loop plus a big-integer multiply, for host drift."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(300_000):
        acc = (acc + i * i) % 1_000_003
    x = 7 ** 60_000
    for _ in range(20):
        acc += (x * (x + acc)) & 1
    return time.perf_counter() - t0


class Ops:
    """Per-op wall times with host speed probes between ops; also stamps the
    tracer's op id."""

    def __init__(self, tracer: Tracer | None) -> None:
        self.tracer = tracer
        self.labels: list[str] = []
        self.seconds: list[float] = []
        self.outcomes: list[dict] = []
        self.probes: list[tuple[int, float]] = []  # (ops run before it, probe seconds)
        self.probe_spent = 0.0
        self.last_probe = -math.inf
        # Traced, the probe is a span of its own, so it stays out of the
        # self time of the layer it runs under (cli.run).
        self._probe = tracer.wrap("host.probe", hostspeed.probe) if tracer else hostspeed.probe

    def probe(self) -> None:
        t0 = time.perf_counter()
        self.probes.append((len(self.labels), self._probe()))
        self.last_probe = time.perf_counter()
        self.probe_spent += self.last_probe - t0

    def scales(self) -> list[float]:
        """Per op, REFERENCE_S over the mean of the probes just before and after it.

        Call after the closing probe, so that every op has one after it."""
        at = [k for k, _ in self.probes]
        out = []
        for i in range(len(self.labels)):
            after = bisect.bisect_right(at, i)
            out.append(2 * hostspeed.REFERENCE_S
                       / (self.probes[after - 1][1] + self.probes[after][1]))
        return out

    def run(self, label: str, fn, *args):
        if time.perf_counter() - self.last_probe >= PROBE_EVERY_S:
            self.probe()
        self.labels.append(label)
        if self.tracer is not None:
            self.tracer.op_id = len(self.labels)
        t0 = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self.seconds.append(time.perf_counter() - t0)


def _report_outcome(report) -> dict:
    return {"label": report.label, "passed": report.passed, "checked": len(report.checked),
            "first_divergence": report.first_divergence}


def verify_all(ops: Ops) -> dict:
    verify = binsums.cli.verify

    def timed(identity, n_max):
        report = ops.run(identity.label, verify, identity, n_max)
        ops.outcomes.append(_report_outcome(report))
        return report

    binsums.cli.verify = timed
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            status = binsums.cli.run(
                ["verify", "--all", "--n-max", str(workloads.N_MAX), "--format", "json"])
    finally:
        binsums.cli.verify = verify
    return {"exit_status": status, "report": json.loads(out.getvalue())}


def verify_perturbed(ops: Ops, seed: int) -> dict:
    cases = [identities.perturbed(REGISTRY[i], residue, weight)
             for i, residue, weight in workloads.perturbations(REGISTRY, identities, seed)]
    for case in cases:
        try:
            report = ops.run(case.label, identities.verify, case, workloads.N_MAX)
        except Exception as exc:  # counted as a failed op by the caller
            ops.outcomes.append({"label": case.label, "error": repr(exc)})
        else:
            ops.outcomes.append(_report_outcome(report))
    return {}


def derive_scan(ops: Ops, seed: int) -> dict:
    targets = workloads.derive_targets(REGISTRY, identities)
    for t, period in workloads.derive_ops(targets, seed):
        target = targets[t]
        key = workloads.target_key(target)
        try:
            sol = ops.run(f"{key}|{period}", discovery.derive_profile, target, period)
        except Exception as exc:  # counted as a failed op by the caller
            ops.outcomes.append({"target": key, "period": period, "error": repr(exc)})
            continue
        ops.outcomes.append({
            "target": key, "period": period, "status": sol.status,
            "violated_n": sol.violated_n, "dimension": sol.dimension,
            "center": None if sol.center is None else str(sol.center),
            "weights": None if sol.weights is None else [str(w) for w in sol.weights],
        })
    return {}


def main() -> None:
    if sys.argv[2] == "--setup-only":
        print(json.dumps({"ready_probe_s": READY_PROBE_S}))
        return
    workload, seed, trace = sys.argv[2], int(sys.argv[3]), sys.argv[4] == "1"
    calib_s = calibrate()
    tracer = Tracer() if trace else None
    if tracer is not None:
        tracer.install()
    ops = Ops(tracer)
    t0 = time.perf_counter()
    if workload == "verify-all-n200":
        extra = verify_all(ops)
    elif workload == "verify-perturbed-n200":
        extra = verify_perturbed(ops, seed)
    else:
        extra = derive_scan(ops, seed)
    wall_raw_s = time.perf_counter() - t0 - ops.probe_spent
    ops.probe()
    scales = ops.scales()
    probes = [s for _, s in ops.probes]
    pass_scale = hostspeed.REFERENCE_S / statistics.median(probes)
    op_s = [s * k for s, k in zip(ops.seconds, scales)]
    between_s = (wall_raw_s - sum(ops.seconds)) * pass_scale
    result = {
        "ready_probe_s": READY_PROBE_S,
        "wall_s": sum(op_s) + between_s,
        "wall_raw_s": wall_raw_s,
        "calib_s": calib_s,
        "probe_s": statistics.median(probes),
        "probes": ops.probes,
        "op_labels": ops.labels,
        "op_s": op_s,
        "op_raw_s": ops.seconds,
        "outcomes": ops.outcomes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        **extra,
    }
    if tracer is not None:
        tracer.uninstall()
        result["trace"] = tracer.summary(ops.labels, [pass_scale, *scales])
    print(json.dumps(result))


main()
