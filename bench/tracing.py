"""Spans around the package's public entry points, for the traced run only.

The package has no counters of its own yet, so the traced worker replaces
each layer's entry points, under the names their callers look up, with
wrappers that record a span: layer, name, start, end and parent.  Spans stay
in memory; :meth:`Tracer.summary` turns them into the per-layer metrics when
the round ends.  Pivots, statuses, LP sizes and iteration counts are read
from the public return values.  Bland-rule restarts inside ``simplex.solve``
cannot be seen from outside and are not reported.
"""

from __future__ import annotations

import functools
import json
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import netinverse.flows
import netinverse.inverse
import netinverse.learner
import netinverse.network
import netinverse.scenarios
from netinverse.simplex import Status

# (module, attribute, layer): the names the benchmark and the package look up
ENTRY_POINTS = (
    (netinverse.network, "load_network", "network"),
    (netinverse.network, "load_observations", "network"),
    (netinverse.scenarios, "load_network", "network"),
    (netinverse.scenarios, "load_demand", "network"),
    (netinverse.scenarios, "load_capacities", "network"),
    (netinverse.scenarios, "load_scenario", "scenarios"),
    (netinverse.scenarios, "generate_observations", "scenarios"),
    (netinverse.scenarios, "shortest_path", "flows"),
    (netinverse.scenarios, "solve_multicommodity", "flows"),
    (netinverse.flows, "shortest_path", "flows"),
    (netinverse.learner, "recover_prices", "learner"),
    (netinverse.learner, "estimate_costs", "learner"),
    (netinverse.learner, "online_update", "learner"),
    (netinverse.learner, "write_trace", "write"),
    (netinverse.learner, "save_state", "write"),
    (netinverse.learner, "write_online_log", "write"),
    (netinverse.learner, "infer_dual_prices", "inverse"),
    (netinverse.learner, "infer_link_costs", "inverse"),
    (netinverse.inverse, "solve", "simplex"),
)


@dataclass
class Span:
    id: int
    layer: str
    name: str
    start: float
    parent: Span | None
    end: float = 0.0
    child_time: float = 0.0
    child_solves: int = 0
    info: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.child_time


def _bytes_written(target) -> int:
    path = Path(target)
    if path.is_dir():
        return sum(f.stat().st_size for f in path.iterdir() if f.is_file())
    return path.stat().st_size


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._open: list[Span] = []
        self._opened = 0

    def install(self) -> None:
        for module, attr, layer in ENTRY_POINTS:
            setattr(module, attr, self._wrap(getattr(module, attr), layer))

    def _wrap(self, original, layer: str):
        @functools.wraps(original)
        def traced(*args, **kwargs):
            parent = self._open[-1] if self._open else None
            span = Span(self._opened, layer, original.__name__, 0.0, parent)
            self._opened += 1
            if layer == "simplex":
                lp = args[0]
                span.info["rows"] = lp.num_constraints
                span.info["cols"] = lp.num_variables
                if parent is not None:
                    parent.child_solves += 1
                    span.info["stage2"] = parent.child_solves == 2
            self._open.append(span)
            span.start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._open.pop()
                if parent is not None:
                    parent.child_time += span.duration
                self.spans.append(span)
            if layer == "simplex":
                span.info["pivots"] = result.pivots
                span.info["optimal"] = result.status is Status.OPTIMAL
            elif layer == "learner" and span.name == "online_update":
                span.info["skipped"] = int(result.log[-1].skipped)
            elif layer == "learner":
                span.info["iterations"] = result.iterations
                span.info["skipped"] = len(result.skipped_agents)
            elif layer == "write":
                span.info["bytes"] = _bytes_written(args[1])
            return result

        return traced

    def write(self, path: Path) -> None:
        """One JSON object per span, in the order the spans ended."""

        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "id": s.id,
                    "parent": None if s.parent is None else s.parent.id,
                    "layer": s.layer,
                    "name": s.name,
                    "start": s.start,
                    "end": s.end,
                    **s.info,
                }) + "\n")

    def summary(self) -> dict[str, float]:
        """Per-layer metrics of every span recorded so far."""

        by_layer: dict[str, list[Span]] = {}
        for span in self.spans:
            by_layer.setdefault(span.layer, []).append(span)

        def spans(layer: str) -> list[Span]:
            return by_layer.get(layer, [])

        def self_s(layer: str) -> float:
            return sum(s.self_time for s in spans(layer))

        def mean_of(key: str) -> float:
            return statistics.fmean(s.info[key] for s in solves) if solves else 0.0

        learner_spans = spans("learner")
        inverse_spans = spans("inverse")
        solves = spans("simplex")
        stage2 = [s for s in solves if s.info.get("stage2")]
        pivots = sum(s.info["pivots"] for s in solves)
        solve_s = sum(s.duration for s in solves)
        # dense LU: one factorisation per pivot plus one per solve, 2/3 m^3 each
        lu_flop = sum((s.info["pivots"] + 1) * 2.0 / 3.0 * s.info["rows"] ** 3 for s in solves)
        return {
            "network.load_s": self_s("network"),
            "scenarios.generate_s": self_s("scenarios"),
            "flows.solve_s": self_s("flows"),
            "learner.iterations": sum(s.info.get("iterations", 0) for s in learner_spans),
            "learner.updates": sum(1 for s in learner_spans if s.name == "online_update"),
            "learner.skipped": sum(s.info["skipped"] for s in learner_spans),
            "learner.self_s": self_s("learner"),
            "learner.write_s": sum(s.duration for s in spans("write")),
            "learner.bytes_written": sum(s.info["bytes"] for s in spans("write")),
            "inverse.calls": len(inverse_spans),
            "inverse.self_s": self_s("inverse"),
            "inverse.p50_ms": (
                statistics.median(s.duration for s in inverse_spans) * 1e3
                if inverse_spans else 0.0
            ),
            "simplex.solves": len(solves),
            "simplex.stage2_solves": len(stage2),
            "simplex.solve_s": solve_s,
            "simplex.stage2_s": sum(s.duration for s in stage2),
            "simplex.pivots": pivots,
            "simplex.us_per_pivot": solve_s / pivots * 1e6 if pivots else 0.0,
            "simplex.rows_mean": mean_of("rows"),
            "simplex.cols_mean": mean_of("cols"),
            "simplex.lu_gflop_computed": lu_flop / 1e9,
            "simplex.non_optimal": sum(1 for s in solves if not s.info["optimal"]),
        }
