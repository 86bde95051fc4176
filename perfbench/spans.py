"""Spans for the traced run: timing shims around the library's public
functions, self time, and the per-layer metrics built from them.

A shim replaces a function on the module the caller looks it up in, so the
library itself is never edited.  Each call records a span: name, start, end,
the span that was open when it started (its parent) and a trace id shared by
all spans of one program or oracle instance.  Spans stay in memory until the
traced process ends.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict
from dataclasses import asdict, dataclass, field


@dataclass
class Span:
    id: int
    name: str
    trace: str
    parent: int | None
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.trace = ""
        self._open: list[Span] = []

    def begin(self, name: str) -> Span:
        parent = self._open[-1].id if self._open else None
        span = Span(len(self.spans), name, self.trace, parent, self.clock())
        self.spans.append(span)
        self._open.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = self.clock()
        self._open.pop()

    def wrap(self, fn, name: str, count=None):
        @functools.wraps(fn)
        def shim(*args, **kwargs):
            span = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(span)
            if count is not None:
                span.counts = count(result)
            return result

        return shim

    def dump(self) -> list[dict]:
        return [asdict(s) for s in self.spans]


def merge(dumps: list[list[dict]]) -> list[Span]:
    """Spans of several traced processes as one list, ids renumbered so
    they stay unique (a span's id is its index)."""
    out: list[Span] = []
    for rows in dumps:
        base = len(out)
        for row in rows:
            parent = row["parent"]
            out.append(Span(**{**row, "id": base + row["id"],
                               "parent": None if parent is None else base + parent}))
    return out


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[Span]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    out = {}
    for s in spans:
        covered = 0.0
        reach = s.start
        for c in sorted(children[s.id], key=lambda c: c.start):
            lo, hi = max(c.start, reach), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s.id] = s.duration - covered
    return out


# ---------------------------------------------------------------------------
# What is traced.  Each entry: module the caller looks the name up in,
# attribute, span name, and a function from the result to the span's
# deterministic counts.


def _materialized(fn):
    """enumerate_accepted is a generator; its callers consume it whole, so
    the shim may drain it inside the span and hand back the list."""

    @functools.wraps(fn)
    def drained(*args, **kwargs):
        return list(fn(*args, **kwargs))

    return drained


def _rnp_counts(verdict):
    from snl import rnp

    return {"rnp.configs": verdict.configs_explored,
            "rnp.caps_tripped": int(isinstance(verdict, rnp.RnpUnknown))}


def _tdpn_counts(verdict):
    from snl import tdpn

    capped = isinstance(verdict, tdpn.TdpnUnknown) or (
        isinstance(verdict, tdpn.TdpnNotCoverable) and not verdict.complete
    )
    steps = len(verdict.witness) if isinstance(verdict, tdpn.TdpnCoverable) else 0
    return {"tdpn.caps_tripped": int(capped), "tdpn.witness_steps": steps}


def _dcps_counts(verdict):
    from snl import dcps

    return {"dcps.configs": verdict.configs_explored,
            "dcps.caps_tripped": int(isinstance(verdict, dcps.DcpsUnknown))}


def _basis_counts(verdict):
    return {"petri.basis_size": verdict.basis_size}


SHIMS = [
    ("snl.counter", "run_bounded", "counter.run", lambda v: {"counter.steps": v.steps}),
    ("snl.lipton", "compile_lipton", "lipton.compile", lambda r: {"lipton.rnp_size": r.size()}),
    ("snl.rnp", "explore_halting", "rnp.search", _rnp_counts),
    ("snl.rnp2tdpn", "compile_rnp_to_tdpn", "rnp2tdpn.compile",
     lambda c: {"rnp2tdpn.width": c.tdpn.width, "rnp2tdpn.tdpn_size": c.tdpn.size()}),
    # fire_symbolic and expand call the name imported into snl.tdpn
    ("snl.tdpn", "enumerate_accepted", "transducer.enumerate",
     lambda r: {"transducer.tuples": len(r)}),
    ("snl.tdpn", "fire_symbolic", "tdpn.fire",
     lambda r: {"tdpn.markings": 1, "tdpn.successors": len(r)}),
    ("snl.tdpn", "coverable", "tdpn.search", _tdpn_counts),
    ("snl.tdpn", "expand", "tdpn.expand", lambda net: {"tdpn.places": len(net.places)}),
    ("snl.tdpn", "cover_backward", "petri.backward", _basis_counts),
    ("snl.petri", "cover_backward", "petri.backward", _basis_counts),
    ("snl.petri", "cover_forward_bfs", "petri.forward", None),
    ("snl.tdpn2dcps", "compile_tdpn_to_killdcps", "tdpn2dcps.compile",
     lambda s: {"tdpn2dcps.rules": len(s.rules), "tdpn2dcps.kills": len(s.kills)}),
    ("snl.tdpn2dcps", "synthesize_cover_witness", "tdpn2dcps.synth",
     lambda events: {"tdpn2dcps.witness_events": len(events)}),
    # also catches the replay inside reach_state, which looks it up here
    ("snl.dcps", "replay_witness", "dcps.replay", None),
    ("snl.dcps", "reach_state", "dcps.search", _dcps_counts),
    ("snl.dcps", "reachable_states", "dcps.reachable", None),
    ("snl.dcps", "desugar_kill", "dcps.desugar", None),
    ("snl.dcps", "compile_to_inheritance", "dcps.inherit", None),
    ("snl.dcps", "serialize_dcps", "dcps.serialize", None),
]

# Root span of a traced `snl pipeline` call, opened around snl.cli.main.
CLI_SPAN = "cli.pipeline"


def install(tracer: Tracer) -> None:
    for module_name, attr, name, count in SHIMS:
        module = importlib.import_module(module_name)
        fn = getattr(module, attr)
        if attr == "enumerate_accepted":
            fn = _materialized(fn)
        setattr(module, attr, tracer.wrap(fn, name, count))


# ---------------------------------------------------------------------------
# Per-layer metrics

RATES = {
    "rnp.configs_per_s": ("rnp.configs", "rnp.search_s"),
    "tdpn.markings_per_s": ("tdpn.markings", "tdpn.search_s"),
    "dcps.configs_per_s": ("dcps.configs", "dcps.search_s"),
}


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Totals over all spans: `<span>_s` is the summed span time (children
    included), counts are summed, `cli.self_s` is the pipeline spans' self
    time, rates divide a count by its search time."""
    out: dict[str, float] = defaultdict(float)
    selfs = self_times(spans)
    for s in spans:
        out[f"{s.name}_s"] += s.duration
        for key, value in s.counts.items():
            out[key] += value
        if s.name == "transducer.enumerate":
            out["transducer.enumerate_calls"] += 1
        if s.name == CLI_SPAN:
            out["cli.self_s"] += selfs[s.id]
    for rate, (count, seconds) in RATES.items():
        out[rate] = out[count] / out[seconds] if out[seconds] else 0.0
    return dict(out)


def self_time_by_name(spans: list[Span]) -> dict[str, float]:
    out: dict[str, float] = defaultdict(float)
    for span_id, seconds in self_times(spans).items():
        out[spans[span_id].name] += seconds
    return dict(out)


def counts_by_trace(spans: list[Span]) -> dict[str, dict[str, int]]:
    out: dict[str, dict[str, int]] = defaultdict(lambda: defaultdict(int))
    for s in spans:
        for key, value in s.counts.items():
            out[s.trace][key] += value
    return {trace: dict(c) for trace, c in out.items()}
