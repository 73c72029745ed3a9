"""The benchmark's view of the library: every public call it makes, by layer.

Operations call the library only through a :class:`Layers` object.  Untraced,
its attributes are the library functions themselves, so an operation pays
nothing for the indirection beyond one attribute lookup.  Traced, each
attribute is a wrapper that records a span (name, start, end, parent operation)
and per-function counters: calls, busy time, calls that raised, and the sum of
the link count k over all calls, computed from the call's inputs.

Spans are recorded here, around the calls the benchmark makes; calls the
library makes internally (``ratio_sup`` calling ``opt_flow``, say) are not
split out, so they show inside the span of the benchmark's call.  Because the
benchmark is one client on one thread with no queues, no call ever waits for
another: busy time is self time, and waiting time is zero by construction.
"""
from __future__ import annotations

import time

import anarchy
import anarchy.cli as cli


def _net_k(args) -> int:
    return args[0].k


def _len_first(args) -> int:
    return len(args[0])


# Traced name -> (function, link count of one call from its positional args).
# ``cli.<subcommand>`` entries all run ``anarchy.cli.main``; their link count
# is the k of the network file, passed by the operation as the first argument.
TRACED = {
    "model.normalize_network": (anarchy.normalize_network, _len_first),
    "mechanisms.build_threshold_mechanism": (anarchy.build_threshold_mechanism, _net_k),
    "mechanisms.mn_flow": (anarchy.mn_flow, _net_k),
    "mechanisms.solve_plateau_params": (anarchy.solve_plateau_params, _net_k),
    "mechanisms.build_plateau_mechanism": (anarchy.build_plateau_mechanism, _net_k),
    "equilibrium.nash_flow": (anarchy.nash_flow, _net_k),
    "equilibrium.opt_flow": (anarchy.opt_flow, _net_k),
    "equilibrium.water_fill": (anarchy.water_fill, _len_first),
    "equilibrium.is_user_equilibrium": (anarchy.is_user_equilibrium, _len_first),
    "equilibrium.worst_equilibrium_cost_two_links": (
        anarchy.worst_equilibrium_cost_two_links, _len_first),
    "analysis.ratio_sup": (anarchy.ratio_sup, _net_k),
    "analysis.ratio_curve": (anarchy.ratio_curve, _net_k),
    "cli.solve": (lambda k, argv: cli.main(argv), lambda args: args[0]),
    "cli.curve": (lambda k, argv: cli.main(argv), lambda args: args[0]),
    "cli.verify": (lambda k, argv: cli.main(argv), lambda args: args[0]),
}

COUNTERS = (("calls", "count"), ("busy_ms", "ms"), ("failed", "count"), ("links", "count"))


def attr_name(traced_name: str) -> str:
    """Attribute under which a traced function hangs on :class:`Layers`."""
    module, func = traced_name.split(".")
    return f"cli_{func}" if module == "cli" else func


class Tracer:
    """In-memory span store and per-function counters for one traced run."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.roots: list[tuple] = []
        self.counts = {name: [0, 0, 0, 0] for name in TRACED}  # calls, ns, failed, links
        self._op = None

    def begin_op(self, op_id: int, workload: str, kind: str) -> None:
        self._op = (op_id, workload, kind, time.perf_counter_ns())

    def end_op(self, ok: bool) -> None:
        op_id, workload, kind, start = self._op
        self.roots.append((op_id, workload, kind, start, time.perf_counter_ns(), ok))
        self._op = None

    def wrap(self, name: str, fn, links_of):
        counts = self.counts[name]

        def traced(*args, **kwargs):
            k = links_of(args)
            start = time.perf_counter_ns()
            ok = False
            try:
                out = fn(*args, **kwargs)
                ok = True
                return out
            finally:
                end = time.perf_counter_ns()
                counts[0] += 1
                counts[1] += end - start
                counts[2] += not ok
                counts[3] += k
                self.spans.append((name, start, end, self._op[0], ok))

        return traced

    def metrics(self) -> dict:
        out = {}
        for name, (calls, ns, failed, links) in self.counts.items():
            values = {"calls": calls, "busy_ms": ns / 1e6, "failed": failed, "links": links}
            for counter, unit in COUNTERS:
                out[f"{name}.{counter}"] = {"value": values[counter], "unit": unit}
        return out

    def dump(self) -> dict:
        """Spans as plain JSON: one root per operation, children point at it."""
        return {
            "roots": [
                {"op": op, "workload": w, "kind": kind, "start_ns": s, "end_ns": e, "ok": ok}
                for op, w, kind, s, e, ok in self.roots
            ],
            "spans": [
                {"name": n, "start_ns": s, "end_ns": e, "parent_op": op, "ok": ok}
                for n, s, e, op, ok in self.spans
            ],
        }


class Layers:
    """Library entry points used by the operations, traced or not."""

    def __init__(self, tracer: Tracer | None = None) -> None:
        for name, (fn, links_of) in TRACED.items():
            setattr(self, attr_name(name), fn if tracer is None else tracer.wrap(name, fn, links_of))
