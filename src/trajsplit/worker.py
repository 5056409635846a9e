"""The worker process of split runs: it solves a trailing block of each
round's segments (see ``admm``).

Per run the worker gets the scenario (only when it is another object than
the last one), the config, the split indices and its segments' ranges and
warm starts.  Per round it gets one float64 buffer, the consensus targets
and duals and the absolute deadline (inf for none; ``perf_counter`` is
system-wide), and answers with one buffer of its segments' iterates and
solve outcomes.  An empty message from the parent ends a run; from the
worker it announces the exception that follows.
"""

from __future__ import annotations

import multiprocessing
import signal

import numpy as np

from . import admm
from .admm import ConsensusState, SegmentProblem, SplitConfig
from .errors import WorkerError
from .model import Scenario
from .nlp import FactorCache, NlpSolution, segment_layout

_OUTCOME = 8  # NlpSolution fields after the point, in _pack_solutions order


def _pack_solutions(solutions: list[NlpSolution]) -> np.ndarray:
    return np.concatenate([
        np.concatenate([s.point, [s.objective, s.max_equality_violation, s.max_inequality_violation, s.iterations,
                                  s.converged, s.qp_nonoptimal, s.kkt_fallbacks, s.factorizations]])
        for s in solutions
    ])


def _unpack_solutions(data: bytes, segments: list[SegmentProblem]) -> list[NlpSolution]:
    flat, at, solutions = np.frombuffer(data), 0, []
    for segment in segments:
        n = segment.layout.size
        objective, eq, ineq, iterations, converged, nonoptimal, fallbacks, factorizations = (
            flat[at + n : at + n + _OUTCOME].tolist()
        )
        solutions.append(NlpSolution(flat[at : at + n].copy(), objective, eq, ineq, int(iterations),
                                     bool(converged), int(nonoptimal), int(fallbacks), int(factorizations)))
        at += n + _OUTCOME
    return solutions


def _serve(conn, parent_end) -> None:
    """The worker process: one run after another until the parent goes away."""
    parent_end.close()
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # an interrupt is the parent's to handle
    scenario = None
    try:
        while True:
            sent, config, splits, dealt = conn.recv()
            scenario = scenario if sent is None else sent
            segments = [SegmentProblem(i, a, b, segment_layout(scenario, a, b), x) for i, a, b, x in dealt]
            shape = (3, len(splits), segments[0].layout.state_dim)
            factors = FactorCache(scenario)
            while message := conn.recv_bytes():
                flat = np.frombuffer(message)
                consensus = ConsensusState(splits, *flat[:-1].reshape(shape))
                deadline = None if flat[-1] == np.inf else float(flat[-1])
                try:
                    solutions = admm.primal_update(scenario, segments, consensus, config, factors, deadline)
                except Exception as exc:
                    conn.send_bytes(b"")
                    conn.send(exc)
                    return
                conn.send_bytes(_pack_solutions(solutions))
            del factors
    except (EOFError, OSError):
        return  # the parent is gone


class Worker:
    """The parent's end of the worker process."""

    def __init__(self) -> None:
        context = multiprocessing.get_context("fork")
        self.conn, child_end = context.Pipe()
        self.process = context.Process(target=_serve, args=(child_end, self.conn), daemon=True)
        try:
            self.process.start()
        except BaseException:
            self.conn.close()
            raise
        finally:
            child_end.close()
        self.scenario: Scenario | None = None

    def _call(self, method, *args):
        try:
            return method(*args)
        except (EOFError, OSError) as exc:
            raise WorkerError(f"the segment worker process (pid {self.process.pid}) died during the run") from exc

    def start_run(self, scenario: Scenario, config: SplitConfig, splits, segments: list[SegmentProblem]) -> None:
        sent = None if scenario is self.scenario else scenario
        self._call(self.conn.send, (sent, config, splits, [(s.index, s.first, s.last, s.x) for s in segments]))
        self.scenario = scenario

    def send_round(self, consensus: ConsensusState, deadline: float | None) -> None:
        self._call(self.conn.send_bytes, np.concatenate([
            consensus.targets.ravel(), consensus.dual_end.ravel(), consensus.dual_start.ravel(),
            [np.inf if deadline is None else deadline],
        ]))

    def receive_round(self, segments: list[SegmentProblem]) -> list[NlpSolution]:
        """The worker's solutions of this round, written back to ``segments``."""
        data = self._call(self.conn.recv_bytes)
        if not data:
            raise self._call(self.conn.recv)
        solutions = _unpack_solutions(data, segments)
        for segment, solution in zip(segments, solutions):
            segment.x, segment.last_solution = solution.point, solution
        return solutions

    def end_run(self) -> None:
        self._call(self.conn.send_bytes, b"")
