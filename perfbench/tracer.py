"""Span tracer installed into binsums at run time, from outside the package.

Each wrapped call records one span: layer name, parent span, op id, start
and end.  Spans live in flat arrays until the pass ends, which keeps the
wrapper on the hottest calls (core.binomial, sequences.seq_eval) to a few
appends and two clock reads.  Self time is a span's duration minus the
durations of its direct children; calls are single-threaded, so children
never overlap.
"""
from __future__ import annotations

import sys
import time
from array import array

# (layer name, module, attribute path).  Module functions are replaced
# wherever a binsums module holds a reference to them, because callers bind
# them with `from .core import central_row`; methods are replaced on the class.
LAYERS = (
    ("core.binomial", "binsums.core", "binomial"),
    ("core.central_row", "binsums.core", "central_row"),
    ("core.rec_eval", "binsums.core", "rec_eval"),
    ("sequences.seq_eval", "binsums.sequences", "seq_eval"),
    ("cyclo.cos_power_vector", "binsums.cyclo", "cos_power_vector"),
    ("cyclo.centered_reduction", "binsums.cyclo", "centered_reduction"),
    ("cyclo.power_sums", "binsums.cyclo", "power_sums"),
    ("cyclo.recognize_quad", "binsums.cyclo", "recognize_quad"),
    ("identities.CenteredSum.evaluate", "binsums.identities", "CenteredSum.evaluate"),
    ("identities.CosProduct.evaluate_numeric", "binsums.identities", "CosProduct.evaluate_numeric"),
    ("identities.SignedRowConvolution.evaluate", "binsums.identities", "SignedRowConvolution.evaluate"),
    ("identities.BinomialTransform.evaluate", "binsums.identities", "BinomialTransform.evaluate"),
    ("identities.DiagonalSum.evaluate", "binsums.identities", "DiagonalSum.evaluate"),
    ("identities.rhs_eval", "binsums.identities", "rhs_eval"),
    ("identities.verify", "binsums.identities", "verify"),
    ("discovery.profile_from_angles", "binsums.discovery", "profile_from_angles"),
    ("discovery._profile_equation", "binsums.discovery", "_profile_equation"),
    ("discovery._Eliminator.add", "binsums.discovery", "_Eliminator.add"),
    ("discovery._Eliminator.solve", "binsums.discovery", "_Eliminator.solve"),
    ("discovery.derive_profile", "binsums.discovery", "derive_profile"),
    ("oeis.load_fixture", "binsums.oeis", "load_fixture"),
    ("cli.run", "binsums.cli", "run"),
)


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.absent: list[str] = []
        self.layer = array("H")
        self.parent = array("q")
        self.op = array("q")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.op_id = 0  # set by the pass runner before each op
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, idx: int, fn):
        layer, parent, op, start, end, stack = (
            self.layer.append, self.parent.append, self.op.append,
            self.start.append, self.end, self.stack)
        end_append = end.append
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            sid = len(end)
            layer(idx)
            parent(stack[-1])
            op(tracer.op_id)
            end_append(0.0)
            stack.append(sid)
            start(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[sid] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        binsums_modules = [m for name, m in sys.modules.items()
                           if name == "binsums" or name.startswith("binsums.")]
        for idx, (name, module, path) in enumerate(LAYERS):
            self.names.append(name)
            owner = sys.modules.get(module)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            if outer:
                original = getattr(owner, "__dict__", {}).get(attr)
            else:
                original = getattr(owner, attr, None)
            if original is None:
                self.absent.append(name)  # renamed or removed by a later change
                continue
            wrapped = self._wrap(idx, original)
            targets = [owner] if outer else [m for m in binsums_modules
                                             if getattr(m, attr, None) is original]
            for target in targets:
                self._undo.append((target, attr, original))
                setattr(target, attr, wrapped)

    def wrap(self, name: str, fn):
        """fn, recording each call as a span of a layer of the benchmark's own."""
        self.names.append(name)
        return self._wrap(len(self.names) - 1, fn)

    def uninstall(self) -> None:
        for target, attr, original in reversed(self._undo):
            setattr(target, attr, original)
        self._undo.clear()

    def summary(self, op_labels: list[str], op_scale: list[float]) -> dict:
        """Per-layer calls and self time, and the op that spent most self time there.

        A span's self time is multiplied by op_scale[its op id], the factor
        that turns the op's seconds into reference seconds (op id 0, outside
        any op, takes the pass's factor)."""
        n = len(self.end)
        child = [0.0] * n
        dur = [e - s for s, e in zip(self.start, self.end)]
        for sid, p in enumerate(self.parent):
            if p >= 0:
                child[p] += dur[sid]
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        per_op: dict[tuple[int, int], float] = {}
        for sid in range(n):
            idx, own = self.layer[sid], (dur[sid] - child[sid]) * op_scale[self.op[sid]]
            calls[idx] += 1
            self_s[idx] += own
            key = (idx, self.op[sid])
            per_op[key] = per_op.get(key, 0.0) + own
        top: dict[int, tuple[float, int]] = {}
        for (idx, op), t in per_op.items():
            if t > top.get(idx, (-1.0, 0))[0]:
                top[idx] = (t, op)
        layers = {}
        for idx, name in enumerate(self.names):
            t, op = top.get(idx, (0.0, 0))
            layers[name] = {
                "calls": calls[idx],
                "self_s": self_s[idx],
                "top_op": op_labels[op - 1] if 0 < op <= len(op_labels) else None,
                "top_op_self_s": t,
            }
        return {"spans": n, "absent": self.absent, "layers": layers}
