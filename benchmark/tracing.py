"""Spans and counters for the traced pass, installed from outside ``src/``.

``trace_layers`` replaces public functions at the module attribute their
callers look up (``admm.solve`` is ``nlp.solve`` as ``admm.run`` sees it) with
timing wrappers, and ``Tracer.uninstall`` puts the originals back, so
untraced passes run the program's own code path untouched.

Every wrapper call is one span.  A span's self time is its duration minus
the part of it covered by child spans; children solved on the segment pool
are attributed to the span that submitted them, through a wrapped
``ThreadPoolExecutor``.  Counts and times are kept per thread and summed when
read, so pool threads never contend on a shared counter.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of (start, end) intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


class Tracer:
    """Per-span call counts, busy time, self time and free-form counters."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._tables: list[defaultdict] = []
        self._originals: list[tuple[object, str, object]] = []

    def _table(self) -> defaultdict:
        table = getattr(self._local, "table", None)
        if table is None:
            table = defaultdict(float)
            self._local.table = table
            self._local.stack = []
            self._local.root = None
            with self._lock:
                self._tables.append(table)
        return table

    def add(self, key: str, value: float = 1.0) -> None:
        """Add to a counter of the calling thread."""
        self._table()[key] += value

    def totals(self) -> dict[str, float]:
        """Sum of every counter over all threads."""
        out: dict[str, float] = defaultdict(float)
        with self._lock:
            for table in self._tables:
                for key, value in table.items():
                    out[key] += value
        return dict(out)

    def reset(self) -> None:
        with self._lock:
            for table in self._tables:
                table.clear()

    def _parent(self) -> list | None:
        self._table()
        stack = self._local.stack
        return stack[-1] if stack else self._local.root

    def wrap(self, module, attr: str, span: str, observe=None) -> None:
        """Replace ``module.attr`` by a wrapper recording span ``span``.

        ``observe(args, kwargs, result, seconds)`` runs after each call and
        may add counters through ``Tracer.add``.
        """
        fn = getattr(module, attr)
        perf = time.perf_counter
        local = self._local

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            table = self._table()
            stack = local.stack
            parent = stack[-1] if stack else local.root
            children: list[tuple[float, float]] = []
            stack.append(children)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                if parent is not None:
                    parent.append((start, end))
                seconds = end - start
                table[span + ".calls"] += 1
                table[span + ".busy"] += seconds
                table[span + ".self"] += seconds - _covered(children)
            if observe is not None:
                observe(args, kwargs, result, seconds)
            return result

        self._originals.append((module, attr, fn))
        setattr(module, attr, traced)

    def wrap_executor(self, module) -> None:
        """Make pool work submitted from ``module`` a child of the submitting span."""
        tracer = self

        class TracedExecutor(ThreadPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                parent = tracer._parent()

                def with_parent(*a, **k):
                    tracer._table()
                    tracer._local.root = parent
                    try:
                        return fn(*a, **k)
                    finally:
                        tracer._local.root = None

                return super().submit(with_parent, *args, **kwargs)

        self._originals.append((module, "ThreadPoolExecutor", module.ThreadPoolExecutor))
        module.ThreadPoolExecutor = TracedExecutor

    def uninstall(self) -> None:
        """Restore every replaced attribute, newest first."""
        while self._originals:
            module, attr, fn = self._originals.pop()
            setattr(module, attr, fn)


# --- the layers of trajsplit ---------------------------------------------------


def trace_layers(tracer: Tracer) -> None:
    """Wrap the public functions each per-layer metric is taken from."""
    from trajsplit import admm, collision, kinematics, nlp, scenario_io
    from trajsplit.geometry import ConvexPolygon

    def on_nlp_solve(args, kwargs, solution, seconds):
        tracer.add("nlp.scp_iterations", solution.iterations)
        tracer.add("nlp.nonconverged", not solution.converged)

    def on_qp(args, kwargs, result, seconds):
        # solve_qp(hessian, gradient, a_eq, b_eq, a_in, b_in, x0)
        tracer.add("nlp.qp_nonoptimal", not result[1])
        tracer.add("nlp.qp_size", len(args[1]) + len(args[4]))

    activation = collision.activation_distance

    def on_rows(args, kwargs, lin, seconds):
        # the solver keeps a linearized pair only within the activation distance
        tracer.add("collision.active_rows", lin.value <= activation(args[0].safety_margin))

    def on_signed_distance(args, kwargs, result, seconds):
        if any(isinstance(shape, ConvexPolygon) for shape in args[:2]):
            tracer.add("geometry.sd_polygon_calls")
            tracer.add("geometry.sd_polygon_busy", seconds)

    tracer.wrap_executor(admm)
    for module, attr, span, observe in (
        (scenario_io, "load_scenario", "scenario_io.load_scenario", None),
        (admm, "run", "admm.run", None),
        (admm, "initial_point", "admm.initial_point", None),
        (admm, "primal_update", "admm.primal_update", None),
        (admm, "consensus_update", "admm.consensus_update", None),
        (admm, "assemble_trajectory", "admm.assemble_trajectory", None),
        (admm, "convexify_segment", "nlp.convexify_segment", None),
        (admm, "solve", "nlp.solve", on_nlp_solve),
        (admm, "trajectory_collision_free", "collision.trajectory_collision_free", None),
        (nlp, "solve_qp", "nlp.solve_qp", on_qp),
        (nlp, "linearize_collision_constraint", "collision.linearize_collision_constraint", on_rows),
        (nlp, "pair_distance", "collision.pair_distance", None),
        (collision, "min_scenario_clearance", "collision.min_scenario_clearance", None),
        (collision, "signed_distance", "geometry.signed_distance", on_signed_distance),
        (collision, "forward_kinematics", "kinematics.forward_kinematics", None),
        (kinematics, "forward_kinematics", "kinematics.forward_kinematics", None),
        (collision, "point_jacobian", "kinematics.point_jacobian", None),
    ):
        tracer.wrap(module, attr, span, observe)


def layer_metrics(totals: dict[str, float]) -> dict[str, float]:
    """Per-layer metrics of one traced pass from the tracer's totals.

    Metrics the benchmark computes from solve outputs (ADMM rounds, the
    split residual) and the tracing overhead are added by the caller.
    """
    def get(key: str) -> float:
        return totals.get(key, 0.0)

    def self_time(module: str) -> float:
        return sum(v for k, v in totals.items() if k.startswith(module + ".") and k.endswith(".self"))

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    return {
        "scenario_io.load_s": get("scenario_io.load_scenario.busy"),
        "admm.primal_s": get("admm.primal_update.busy"),
        "admm.self_s": self_time("admm"),
        "admm.parallelism": ratio(get("nlp.solve.busy"), get("admm.primal_update.busy")),
        "admm.init_s": get("admm.initial_point.busy"),
        "admm.consensus_s": get("admm.consensus_update.busy"),
        "admm.assemble_s": get("admm.assemble_trajectory.busy"),
        "nlp.solves": get("nlp.solve.calls"),
        "nlp.scp_iterations": get("nlp.scp_iterations"),
        "nlp.nonconverged": get("nlp.nonconverged"),
        "nlp.solve_s": get("nlp.solve.busy"),
        "nlp.self_s": self_time("nlp"),
        "nlp.convexify_s": get("nlp.convexify_segment.busy"),
        "nlp.qp_calls": get("nlp.solve_qp.calls"),
        "nlp.qp_s": get("nlp.solve_qp.busy"),
        "nlp.qp_nonoptimal": get("nlp.qp_nonoptimal"),
        "nlp.qp_size_mean": ratio(get("nlp.qp_size"), get("nlp.solve_qp.calls")),
        "collision.rows_calls": get("collision.linearize_collision_constraint.calls"),
        "collision.rows_s": get("collision.linearize_collision_constraint.busy"),
        "collision.values_calls": get("collision.pair_distance.calls"),
        "collision.values_s": get("collision.pair_distance.busy"),
        "collision.active_ratio": ratio(get("collision.active_rows"),
                                        get("collision.linearize_collision_constraint.calls")),
        "collision.check_s": get("collision.trajectory_collision_free.busy"),
        "collision.check_queries": get("collision.min_scenario_clearance.calls"),
        "collision.self_s": self_time("collision"),
        "geometry.sd_calls": get("geometry.signed_distance.calls"),
        "geometry.sd_s": get("geometry.signed_distance.busy"),
        "geometry.sd_polygon_calls": get("geometry.sd_polygon_calls"),
        "geometry.sd_polygon_share": ratio(get("geometry.sd_polygon_busy"), get("geometry.signed_distance.busy")),
        "kinematics.fk_calls": get("kinematics.forward_kinematics.calls"),
        "kinematics.jacobian_calls": get("kinematics.point_jacobian.calls"),
        "kinematics.jacobian_s": get("kinematics.point_jacobian.busy"),
        "kinematics.self_s": self_time("kinematics"),
    }
