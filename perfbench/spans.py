"""In-memory span recorder that times sspsim layers from outside the package.

Spans are opened by wrapping public functions in the module namespace where
their caller looks them up (``sspsim.cli.load_scenario``, not
``sspsim.scenario.load_scenario``), so nothing under ``src/`` changes and a
call made elsewhere (setup, the audit replay) is not attributed to the layer.
A span is (name, start, end, parent index); a layer's self time is its span
durations minus the durations of their direct child spans.
"""

from __future__ import annotations

import functools
import math
import os
import statistics
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counters: dict[str, float] = {}
        self.lp_call_s: list[float] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx][2] = time.perf_counter()

    def add(self, key: str, amount: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def wrap(self, fn, name: str, before=None, after=None):
        """``fn`` timed as span ``name``; hooks see the call's arguments (and result)."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(self, *args, **kwargs)
            with self.span(name):
                result = fn(*args, **kwargs)
            if after is not None:
                after(self, result)
            return result

        return traced

    @contextmanager
    def installed(self, patches):
        """Patch ``(module, attribute, span name, before, after)`` entries for the block."""
        saved = []
        try:
            for module, attr, name, before, after in patches:
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(original, name, before, after))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def totals(self) -> tuple[dict[str, float], dict[str, float]]:
        """(total duration, self time) per span name."""
        total: dict[str, float] = {}
        child: dict[int, float] = {}
        for name, start, end, parent in self.spans:
            total[name] = total.get(name, 0.0) + (end - start)
            if parent >= 0:
                child[parent] = child.get(parent, 0.0) + (end - start)
        self_time: dict[str, float] = {}
        for idx, (name, start, end, _) in enumerate(self.spans):
            self_time[name] = self_time.get(name, 0.0) + (end - start) - child.get(idx, 0.0)
        return total, self_time

    def dump(self) -> list[dict]:
        origin = self.spans[0][1] if self.spans else 0.0
        return [
            {"name": n, "start_s": s - origin, "end_s": e - origin, "parent": p}
            for n, s, e, p in self.spans
        ]


# --- counter hooks: read what each layer was handed or returned ---------------


def count_file(tracer: Tracer, path, *_, **__) -> None:
    tracer.add("scenario.file_bytes", os.path.getsize(path))


def count_validate(tracer: Tracer, *_, **__) -> None:
    tracer.add("model.validate_calls")


def count_partners(live_tol: float):
    def hook(tracer: Tracer, view, *_, **__) -> None:
        caps = view.partner_capacities
        tracer.add("matching.calls")
        tracer.add("matching.partners_scanned", len(caps))
        tracer.add("matching.partners_live", sum(1 for c in caps.values() if c.energy > live_tol))

    return hook


def count_lp(tracer: Tracer, lp, *_, **__) -> None:
    """LP size from the LinearProgram argument; dense bytes are computed, not measured.

    Mirrors the standardisation in ``sspsim.lp``: a free variable splits into
    two columns, a variable bounded on both sides adds a ``<=`` row, and every
    non-equality row gets a slack column (artificial columns are left out)."""
    inf = math.inf
    cols = sum(2 if v.lower == -inf and v.upper == inf else 1 for v in lp.variables)
    bound_rows = sum(1 for v in lp.variables if v.lower != -inf and v.upper != inf)
    rows = len(lp.constraints) + bound_rows
    slacks = sum(1 for r in lp.constraints if r.relation != "=") + bound_rows
    tracer.add("lp.calls")
    tracer.add("lp.vars", len(lp.variables))
    tracer.add("lp.rows", len(lp.constraints))
    tracer.add("lp.nnz", sum(len(r.coeffs) for r in lp.constraints))
    tracer.add("lp.dense_bytes", 8 * rows * (cols + slacks))


def count_lp_result(tracer: Tracer, solution) -> None:
    start, end = tracer.spans[-1][1:3]
    tracer.lp_call_s.append(end - start)
    if solution.status.name != "OPTIMAL":
        tracer.add("lp.nonoptimal")


def count_engine(tracer: Tracer, result) -> None:
    tracer.add("protocol.iterations", result.iterations)
    tracer.add("protocol.rounds", result.rounds)
    for record in result.log:
        if record.kind == "offer":
            tracer.add("protocol.offers")
        elif record.payload.get("amount_kwh", 0.0) > 0.0:
            tracer.add("protocol.claims_nonzero")


def unit_of(metric: str) -> str:
    if metric.endswith("_s") or metric.endswith("_s.p50"):
        return "s"
    if metric.endswith("_bytes"):
        return "bytes"
    if metric.endswith(("_ratio", "_yield")):
        return "ratio"
    return "count"


def per_layer(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced operation (root span ``bench.op``)."""
    total, own = tracer.totals()
    c = tracer.counters

    def ratio(num: str, den: str) -> float:
        return c.get(num, 0) / c[den] if c.get(den) else 0.0

    return {
        "scenario.load_s": total.get("scenario.load", 0.0),
        "scenario.file_bytes": c.get("scenario.file_bytes", 0),
        "model.validate_s": total.get("model.validate", 0.0),
        "model.validate_calls": c.get("model.validate_calls", 0),
        "coalition.map_s": total.get("coalition.map", 0.0),
        "matching.calls": c.get("matching.calls", 0),
        "matching.self_s": own.get("matching", 0.0),
        "matching.partners_scanned": c.get("matching.partners_scanned", 0),
        "matching.partners_live": c.get("matching.partners_live", 0),
        "matching.live_ratio": ratio("matching.partners_live", "matching.partners_scanned"),
        "lp.calls": c.get("lp.calls", 0),
        "lp.solve_s": total.get("lp", 0.0),
        "lp.solve_s.p50": statistics.median(tracer.lp_call_s) if tracer.lp_call_s else 0.0,
        "lp.vars": c.get("lp.vars", 0),
        "lp.rows": c.get("lp.rows", 0),
        "lp.nnz": c.get("lp.nnz", 0),
        "lp.dense_bytes": c.get("lp.dense_bytes", 0),
        "lp.nonoptimal": c.get("lp.nonoptimal", 0),
        "protocol.engine_s": total.get("protocol.engine", 0.0),
        "protocol.self_s": own.get("protocol.engine", 0.0),
        "protocol.iterations": c.get("protocol.iterations", 0),
        "protocol.rounds": c.get("protocol.rounds", 0),
        "protocol.offers": c.get("protocol.offers", 0),
        "protocol.claims_nonzero": c.get("protocol.claims_nonzero", 0),
        "protocol.claim_yield": ratio("protocol.claims_nonzero", "protocol.offers"),
        "protocol.accept_ratio": ratio("protocol.iterations", "matching.calls"),
        "cli.self_s": own.get("cli", 0.0),
        "trace.uncovered_s": own.get("bench.op", 0.0),
    }
