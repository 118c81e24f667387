"""Spans and call counts recorded from outside the program.

A `Tracer` always records the spans the runner opens itself (`sim.run` and
`sim.emit` around each run).  Inside `Tracer.patched()` it also swaps the
module-level names that `regionsim.sim` calls for wrappers that open one
span per call, plus `regionsim.flood.naive_flood_count`, which
`message_savings` calls, and swaps the `EnergyLedger` methods for wrappers
that only count: a ledger method runs more than a million times in one run,
and a span per call would distort the run.  Leaving the block restores every
original, so untraced passes run the program's own functions.
"""

import functools
import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path

import regionsim.flood
import regionsim.sim
from regionsim.energy import EnergyLedger


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index of the enclosing span in Tracer.spans
    run_id: int | None


def _graph(counts, g):
    counts["graph.arcs"] += g.arc_count


def _flood(counts, result):
    counts["flood.tx"] += result.totals.tx
    counts["flood.rx"] += result.totals.rx
    counts["flood.discard"] += result.totals.discard


def _dual(counts, dual):
    counts["regions.dual_arcs"] += len(dual.arcs)


def _route(counts, r):
    counts["routing.established"] += 1
    counts["routing.hops"] += r.hops


# (owner, attribute, span name, observer of the returned value)
SPANNED = (
    (regionsim.sim, "deploy", "scenario.deploy", None),
    (regionsim.sim, "build_unit_disk_digraph", "graph.build", _graph),
    (regionsim.sim, "run_flood", "flood.run", _flood),
    (regionsim.sim, "naive_flood_count", "flood.naive", None),
    (regionsim.flood, "naive_flood_count", "flood.naive", None),
    (regionsim.sim, "cells_from_flood", "flood.cells", None),
    (regionsim.sim, "build_boundary_dual_graph", "regions.dual", _dual),
    (regionsim.sim, "build_res_tables", "routing.tables", None),
    (regionsim.sim, "route", "routing.route", _route),
)

# (owner, attribute, counter)
COUNTED = (
    (EnergyLedger, "charge", "energy.charges"),
    (EnergyLedger, "accrue", "energy.accruals"),
    (EnergyLedger, "remaining", "energy.balance_reads"),
    (EnergyLedger, "is_alive", "energy.balance_reads"),
    (EnergyLedger, "total_spent", "energy.balance_reads"),
)


class Tracer:
    """In-memory span list and counters of one process."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.run_id: int | None = None
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.run_id))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self.open(name)
        try:
            yield
        finally:
            self.close(idx)

    def _spanning(self, fn, name, observe):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if observe is not None:
                observe(self.counts, result)
            return result

        return wrapper

    def _counting(self, fn, key):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    @contextmanager
    def patched(self):
        """Install the wrappers for the duration of the block."""
        saved = []
        try:
            for owner, attr, name, observe in SPANNED:
                fn = owner.__dict__[attr]
                saved.append((owner, attr, fn))
                setattr(owner, attr, self._spanning(fn, name, observe))
            for owner, attr, key in COUNTED:
                fn = owner.__dict__[attr]
                saved.append((owner, attr, fn))
                setattr(owner, attr, self._counting(fn, key))
            yield self
        finally:
            for owner, attr, fn in reversed(saved):
                setattr(owner, attr, fn)

    def write(self, path: Path) -> None:
        """Write the spans as JSON, times in seconds from the first span."""
        t0 = self.spans[0].start if self.spans else 0.0
        rows = []
        for s in self.spans:
            row = asdict(s)
            row["start"] -= t0
            row["end"] -= t0
            rows.append(row)
        path.write_text(json.dumps({"spans": rows, "counts": dict(self.counts)}) + "\n")


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of its interval its children cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        lo = hi = None
        for a, b in sorted(children[i]):
            a, b = max(a, s.start), min(b, s.end)
            if b <= a:
                continue
            if hi is None or a > hi:
                if hi is not None:
                    covered += hi - lo
                lo, hi = a, b
            else:
                hi = max(hi, b)
        if hi is not None:
            covered += hi - lo
        out.append(s.end - s.start - covered)
    return out


def span_seconds(spans: list[Span], name: str) -> float:
    return sum(s.end - s.start for s in spans if s.name == name)


def span_calls(spans: list[Span], name: str) -> int:
    return sum(1 for s in spans if s.name == name)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def module_metrics(spans: list[Span], counts: Counter) -> dict[str, float]:
    """Per-module metrics of one traced pass (sums over its runs)."""
    run_s = span_seconds(spans, "sim.run")
    selfs = self_times(spans)
    sim_self = sum(t for s, t in zip(spans, selfs) if s.name == "sim.run")
    route_calls = span_calls(spans, "routing.route")
    return {
        "scenario.deploy_s": span_seconds(spans, "scenario.deploy"),
        "graph.build_s": span_seconds(spans, "graph.build"),
        "graph.arcs": counts["graph.arcs"],
        "flood.run_s": span_seconds(spans, "flood.run"),
        "flood.tx": counts["flood.tx"],
        "flood.rx": counts["flood.rx"],
        "flood.accept_ratio": _ratio(
            counts["flood.rx"] - counts["flood.discard"], counts["flood.rx"]
        ),
        "flood.naive_s": span_seconds(spans, "flood.naive"),
        "flood.naive_calls": span_calls(spans, "flood.naive"),
        "flood.cells_s": span_seconds(spans, "flood.cells"),
        "regions.dual_s": span_seconds(spans, "regions.dual"),
        "regions.dual_arcs": counts["regions.dual_arcs"],
        "routing.tables_s": span_seconds(spans, "routing.tables"),
        "routing.route_s": span_seconds(spans, "routing.route"),
        "routing.route_calls": route_calls,
        "routing.hops_mean": _ratio(counts["routing.hops"], counts["routing.established"]),
        "routing.established_ratio": _ratio(counts["routing.established"], route_calls),
        "energy.charges": counts["energy.charges"],
        "energy.accruals": counts["energy.accruals"],
        "energy.balance_reads": counts["energy.balance_reads"],
        "sim.run_s": run_s,
        "sim.self_s": sim_self,
        "sim.self_share": _ratio(sim_self, run_s),
        "sim.emit_s": span_seconds(spans, "sim.emit"),
    }
