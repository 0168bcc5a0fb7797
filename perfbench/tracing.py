"""Layer tracing from outside the program: wrap dirac1d's public functions.

A Tracer patches module attributes at the call sites the program uses
(for example `dirac1d.solver.eval_N1`, which the solver imported by name)
and restores them on exit.  Calls into a layer become spans with a name,
start, end and parent, kept in memory.  The nonlinearity is called about
nine thousand times per side in one Gross-Neveu run, so its calls are
tallied (count, array elements, time) instead of recorded one span each.
Every span also accumulates the time its direct children covered, so a
span's self time is its duration minus that.
"""

from __future__ import annotations

import importlib
import statistics
import time
from dataclasses import dataclass, field

# (module, attribute, layer); tallied targets are not recorded as spans
SPANNED = [
    ("dirac1d.cli", "parse_config", "cli"),
    ("dirac1d.cli", "run_experiment", "cli"),
    ("dirac1d.cli", "make_initial_data", "fields"),
    ("dirac1d.solver", "run", "solver"),
    ("dirac1d.conservation", "total_charge_drift", "conservation"),
    ("dirac1d.conservation", "triangle_balance", "conservation"),
    ("dirac1d.conservation", "check_pointwise_bound", "conservation"),
    ("dirac1d.asymptotics", "compute_profile", "asymptotics"),
    ("dirac1d.asymptotics", "residual", "asymptotics"),
    ("dirac1d.asymptotics", "tail_bound", "asymptotics"),
]
TALLIED = [
    ("dirac1d.solver", "eval_N1", "nonlinearity"),
    ("dirac1d.solver", "eval_N2", "nonlinearity"),
]


def _history_bytes(traj) -> dict:
    """Bytes of the per-step modulus history a trajectory holds after the solve."""
    moduli = getattr(traj, "moduli", None) or []
    return {"history_bytes": sum(a.nbytes + b.nbytes for a, b in moduli)}


# facts read off a span's return value before it is dropped
FACTS = {"solver.run": _history_bytes}


@dataclass
class Span:
    id: int
    name: str
    layer: str
    parent: int | None
    start: float
    end: float = 0.0
    child_s: float = 0.0  # time covered by direct child spans and tallied calls
    facts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s

    def as_dict(self) -> dict:
        return {"id": self.id, "name": self.name, "layer": self.layer, "parent": self.parent,
                "start": self.start, "end": self.end, "self_s": self.self_s, **self.facts}


@dataclass
class Tally:
    calls: int = 0
    elements: int = 0
    seconds: float = 0.0


class Tracer:
    """Context manager that wraps the targets while active and restores them on exit."""

    def __init__(self):
        self.spans: list[Span] = []
        self.tallies: dict[str, Tally] = {}
        self._open: list[Span] = []
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self):
        for module, attr, layer in SPANNED:
            self._patch(module, attr, self._spanned(f"{layer}.{attr}", layer))
        for module, attr, layer in TALLIED:
            self._patch(module, attr, self._tallied(layer))
        return self

    def __exit__(self, *exc):
        while self._saved:
            mod, attr, original = self._saved.pop()
            setattr(mod, attr, original)
        return False

    def _patch(self, module: str, attr: str, wrap):
        mod = importlib.import_module(module)
        original = getattr(mod, attr, None)
        if original is None:  # renamed or removed by a later change: not traced
            return
        self._saved.append((mod, attr, original))
        setattr(mod, attr, wrap(original))

    def _spanned(self, name: str, layer: str):
        def wrap(fn):
            def traced(*args, **kwargs):
                parent = self._open[-1] if self._open else None
                span = Span(len(self.spans), name, layer,
                            None if parent is None else parent.id, time.perf_counter())
                self.spans.append(span)
                self._open.append(span)
                try:
                    result = fn(*args, **kwargs)
                    if name in FACTS:
                        span.facts = FACTS[name](result)
                    return result
                finally:
                    span.end = time.perf_counter()
                    self._open.pop()
                    if parent is not None:
                        parent.child_s += span.duration
            return traced
        return wrap

    def _tallied(self, layer: str):
        tally = self.tallies.setdefault(layer, Tally())

        def wrap(fn):
            def traced(u, v, *args, **kwargs):
                t0 = time.perf_counter()
                try:
                    return fn(u, v, *args, **kwargs)
                finally:
                    dt = time.perf_counter() - t0
                    tally.calls += 1
                    tally.elements += getattr(u, "size", 1)
                    tally.seconds += dt
                    if self._open:
                        self._open[-1].child_s += dt
            return traced
        return wrap

    def self_seconds(self, layer: str) -> float:
        """Self time of `layer` summed over all its spans and tallied calls."""
        total = sum(s.self_s for s in self.spans if s.layer == layer)
        if layer in self.tallies:
            total += self.tallies[layer].seconds
        return total

    def find(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]


def wrapper_costs() -> tuple[float, float]:
    """Seconds the tallied and the span wrapper add to one call.

    Each is the median over five timings of 20 000 calls of a wrapped no-op
    minus as many calls of the bare one.  The cost of tracing a run is then
    these times its tallied calls and its spans: a figure that run-to-run
    noise in the traced run time cannot swamp.
    """
    def bare(u, v):
        return None

    calibration = Tracer()
    calls = 20000

    def per_call(wrapped):
        costs = []
        for _ in range(5):
            t0 = time.perf_counter()
            for _ in range(calls):
                bare(0.0, 0.0)
            t1 = time.perf_counter()
            for _ in range(calls):
                wrapped(0.0, 0.0)
            t2 = time.perf_counter()
            costs.append(((t2 - t1) - (t1 - t0)) / calls)
            calibration.spans.clear()
        return statistics.median(costs)

    return (per_call(calibration._tallied("calibration")(bare)),
            per_call(calibration._spanned("calibration", "calibration")(bare)))
