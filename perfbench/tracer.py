"""In-memory call tracer that wraps sdstab functions from outside the package.

The sdstab modules import functions by name (``from .bounds import
emulation_bound_two``), so patching the defining module alone misses most
calls.  A function is therefore wrapped in every module namespace that holds a
reference to it, under one metric name, and every wrapper is removed again by
``Tracer.close``.

Hot inner functions (hundreds of thousands of calls per design) are only
aggregated: call count, busy time and self time.  Outer functions also record
a span with its parent span and the id of the root span, so the spans of one
CLI call share an identifier.  Everything stays in memory until ``export``.
"""

from __future__ import annotations

import functools
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Optional


@dataclass
class Stat:
    layer: str
    calls: int = 0
    busy_s: float = 0.0
    self_s: float = 0.0
    counters: dict = field(default_factory=dict)


@dataclass
class _Frame:
    span_id: Optional[int]
    trace_id: Optional[int]
    child_s: float = 0.0


class Tracer:
    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self.spans: list[dict] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []
        self._next_id = 1
        self._origin = time.perf_counter()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, owner, attr: str, name: str, layer: str, hot: bool = False,
             observe: Optional[Callable[[Stat, object], None]] = None) -> None:
        """Replace ``owner.attr`` by a traced wrapper recorded under ``name``."""
        fn = getattr(owner, attr)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return tracer._call(fn, name, layer, hot, observe, args, kwargs)

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, fn))

    def close(self) -> None:
        """Restore every wrapped attribute, newest first."""
        while self._patches:
            owner, attr, fn = self._patches.pop()
            setattr(owner, attr, fn)

    def _call(self, fn, name, layer, hot, observe, args, kwargs):
        stack = self._stack()
        parent = stack[-1] if stack else None
        if hot:
            frame = _Frame(None, parent.trace_id if parent else None)
        else:
            with self._lock:
                span_id = self._next_id
                self._next_id += 1
            frame = _Frame(span_id, parent.trace_id if parent and parent.trace_id else span_id)
        stack.append(frame)
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            dur = time.perf_counter() - t0
            stack.pop()
            if parent is not None:
                parent.child_s += dur
            with self._lock:
                st = self.stats.get(name)
                if st is None:
                    st = self.stats[name] = Stat(layer)
                st.calls += 1
                st.busy_s += dur
                st.self_s += dur - frame.child_s
                if not hot:
                    self.spans.append({
                        "id": frame.span_id,
                        "parent": _nearest_span(stack),
                        "trace": frame.trace_id,
                        "name": name,
                        "start_s": t0 - self._origin,
                        "dur_s": dur,
                        "self_s": dur - frame.child_s,
                    })
        if observe is not None:
            with self._lock:
                observe(st, result)
        return result

    def stat(self, name: str) -> Stat:
        return self.stats.get(name) or Stat(layer="")

    def layer_self_s(self, layer: str) -> float:
        return sum(s.self_s for s in self.stats.values() if s.layer == layer)

    def export(self) -> dict:
        return {
            "stats": {
                name: {"layer": s.layer, "calls": s.calls, "busy_s": s.busy_s,
                       "self_s": s.self_s, **s.counters}
                for name, s in sorted(self.stats.items())
            },
            "spans": self.spans,
        }


def _nearest_span(stack: list) -> Optional[int]:
    for frame in reversed(stack):
        if frame.span_id is not None:
            return frame.span_id
    return None


def install_sdstab(tracer: Tracer) -> None:
    """Wrap the public sdstab calls that cross a layer boundary."""
    import scipy.optimize
    import sdstab.bounds as bounds
    import sdstab.cli as cli
    import sdstab.design as design
    import sdstab.lmi as lmi
    import sdstab.numerics as numerics
    import sdstab.sim as sim

    def optimize_result(st: Stat, res) -> None:
        st.counters["nfev"] = st.counters.get("nfev", 0) + int(res.nfev)

    def solve_report(st: Stat, rep) -> None:
        st.counters["iterations"] = st.counters.get("iterations", 0) + int(rep.iterations)
        st.counters["feasible"] = st.counters.get("feasible", 0) + int(rep.status == "feasible")

    plan = [
        # (namespace, attribute, metric name, layer, hot, observer)
        (cli, "main", "cli.main", "cli", False, None),
        (cli, "load_model", "models.load", "models", False, None),
        (cli, "model_to_dict", "models.to_dict", "models", False, None),
        (cli, "model_from_dict", "models.from_dict", "models", False, None),
        (cli, "load_certificate", "lmi.load_certificate", "lmi", False, None),
        (cli, "save_certificate", "lmi.save_certificate", "lmi", False, None),
        (cli, "verify_certificate", "lmi.verify", "lmi", False, None),
        (cli, "emulation_bound_two", "bounds.two_v", "bounds", True, None),
        (cli, "synthesize_feedback", "design.synthesize", "design", False, None),
        (cli, "synthesize_nonlinear_planar", "design.synthesize", "design", False, None),
        (cli, "run_ensemble", "sim.run_ensemble", "sim", False, None),
        (cli, "estimate_ms_decay", "sim.estimators", "sim", False, None),
        (cli, "estimate_as_exponent", "sim.estimators", "sim", False, None),
        (design, "emulation_bound_two", "bounds.two_v", "bounds", True, None),
        (design, "minimize_gevp", "lmi.minimize_gevp", "lmi", False, None),
        (design, "solve_feasibility", "lmi.solve_feasibility", "lmi", False, solve_report),
        (design, "verify_design_certificate", "lmi.verify", "lmi", False, None),
        (design, "verify_planar_certificate", "lmi.verify", "lmi", False, None),
        (design, "build_affine_map", "lmi.build_affine_map", "lmi", True, None),
        (design, "pencil_max_eig", "numerics.pencil_max_eig", "numerics", True, None),
        (lmi, "emulation_bound_two", "bounds.two_v", "bounds", True, None),
        (lmi, "solve_feasibility", "lmi.solve_feasibility", "lmi", False, solve_report),
        (lmi, "lam_max", "numerics.lam_max", "numerics", True, None),
        (lmi, "is_pos_def", "numerics.is_pos_def", "numerics", True, None),
        (bounds, "find_root", "numerics.find_root", "numerics", True, None),
        (numerics, "lam_max", "numerics.lam_max", "numerics", True, None),
        (sim, "schedule_instants", "models.schedule_instants", "models", False, None),
        # design imports scipy.optimize.minimize inside _refine_gain, at call time
        (scipy.optimize, "minimize", "design.refine", "design", False,
         optimize_result),
    ]
    for owner, attr, name, layer, hot, observe in plan:
        tracer.wrap(owner, attr, name, layer, hot=hot, observe=observe)
