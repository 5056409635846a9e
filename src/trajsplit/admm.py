"""Consensus splitting of a trajectory problem into independent segments.

The trajectory is cut at split waypoints; each split waypoint is duplicated
into the two adjacent segments and a consensus variable with a scaled dual
pair ties the copies together.  Each round solves every segment, averages
the split copies into the consensus targets, and pushes the duals by rho
times the remaining disagreement.  The loop stops when the mean position
disagreement across splits drops below the splitting tolerance.  Rounds
change only the consensus linear terms and warm starts: a run's
``FactorCache`` builds each segment's Hessian, equalities, bounds and rows
once, and inverts its base KKT matrix once per segment shape (waypoint
count, pinned start, pinned goal).

The gain of splitting is that each segment's cost grows with its own
waypoints, not the whole trajectory's, and that the segments of a round are
independent.  On two or more CPUs a split run deals each round's segments in
two contiguous blocks: the first to this process, the rest to one worker
process (see ``worker``), forked on the first such run and kept until this
process exits; each process keeps its own ``FactorCache``.  Only the
consensus state goes out and the worker's iterates and solve outcomes come
back, so the outcome is bit-identical to solving every segment here.
Threads would add nothing: the work is GIL-bound numpy.
"""

from __future__ import annotations

import os
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor  # noqa: F401  (wrapped by benchmark/tracing.py)
from dataclasses import dataclass, field

import numpy as np

from .collision import trajectory_collision_free
from .errors import ConfigError
from .model import Scenario, Trajectory, path_length, straight_line_init
from .nlp import (
    ConsensusCoupling,
    FactorCache,
    NlpSolution,
    SegmentLayout,
    SolverOptions,
    convexify_segment,
    project_to_affine,
    segment_equalities,
    segment_layout,
    solve,
)


@dataclass(frozen=True)
class SplitConfig:
    """Knobs of the splitting solver.

    ``num_splits`` is the number of cut points M, producing M+1 segments;
    zero means a single monolithic solve.  ``eps`` bounds the mean position
    disagreement across splits (radians for arms, length units for point
    robots).
    """

    num_splits: int = 2
    rho: float = 50.0
    eps: float = 0.1745
    max_admm_iterations: int = 100
    samples_per_edge: int = 5
    nlp_options: SolverOptions = field(default_factory=SolverOptions)

    def __post_init__(self) -> None:
        if self.num_splits < 0:
            raise ConfigError("num_splits must be >= 0")
        for name in ("rho", "eps"):
            if not 0.0 < getattr(self, name) < np.inf:
                raise ConfigError(f"{name} must be finite and > 0")
        if self.max_admm_iterations < 1:
            raise ConfigError("max_admm_iterations must be >= 1")
        if self.samples_per_edge < 0:
            raise ConfigError("samples_per_edge must be >= 0")


@dataclass
class SegmentProblem:
    """One segment's waypoint range and its current packed iterate."""

    index: int
    first: int
    last: int
    layout: SegmentLayout
    x: np.ndarray
    last_solution: NlpSolution | None = None

    def end_state(self) -> np.ndarray:
        return self.x[self.layout.state_slice(self.layout.count - 1)]

    def start_state(self) -> np.ndarray:
        return self.x[self.layout.state_slice(0)]


@dataclass
class ConsensusState:
    """Targets and dual pairs, one row per split waypoint.

    ``dual_end[j]`` scales against the segment that ends at split j,
    ``dual_start[j]`` against the one that starts there.  Their sum stays at
    zero: the averaging update adds exactly opposite corrections.
    """

    split_indices: tuple[int, ...]
    targets: np.ndarray
    dual_end: np.ndarray
    dual_start: np.ndarray

    @staticmethod
    def initial(split_indices: tuple[int, ...], split_states, state_dim: int) -> "ConsensusState":
        m = len(split_indices)
        targets = np.array(split_states, dtype=float).reshape(m, state_dim)
        return ConsensusState(
            split_indices=split_indices,
            targets=targets,
            dual_end=np.zeros_like(targets),
            dual_start=np.zeros_like(targets),
        )

    def imbalance(self) -> float:
        return float(np.max(np.abs(self.dual_end + self.dual_start), initial=0.0))


@dataclass(frozen=True)
class SolveReport:
    """Everything one run produced, timings split by phase.

    ``factorizations`` totals the base KKT inverses the run built, in every
    process; ``failed_segments`` lists the segments whose last solve did not
    converge.
    """

    trajectory: Trajectory
    converged: bool
    collision_free: bool
    objective: float
    path_length: float
    iterations: int
    residual: float
    residual_history: tuple[float, ...]
    iteration_seconds: tuple[float, ...]
    wall_seconds_total: float
    wall_seconds_primal: float
    wall_seconds_consensus: float
    segment_solves_converged: bool
    nonconverged_segment_solves: int
    dual_imbalance: float
    num_segments: int
    split_indices: tuple[int, ...]
    deadline_reached: bool = False
    qp_nonoptimal: int = 0
    kkt_fallbacks: int = 0
    factorizations: int = 0
    failed_segments: tuple[int, ...] = ()


def split_uniform(num_waypoints: int, num_splits: int) -> tuple[int, ...]:
    """Evenly spaced interior split indices (0-based, half-up rounding)."""
    if num_splits < 0:
        raise ConfigError("num_splits must be >= 0")
    if num_splits > num_waypoints - 2:
        raise ConfigError(
            f"{num_splits} splits need at least {num_splits + 2} waypoints, got {num_waypoints}"
        )
    span = num_waypoints - 1
    indices = tuple(
        int((i * span) // (num_splits + 1) + (1 if (i * span) % (num_splits + 1) * 2 >= num_splits + 1 else 0))
        for i in range(1, num_splits + 1)
    )
    if len(set(indices)) != len(indices) or any(not 0 < s < span for s in indices):
        raise ConfigError("split indices collide; reduce num_splits")
    return indices


def build_segments(scenario: Scenario, splits: tuple[int, ...], x_full: np.ndarray) -> list[SegmentProblem]:
    """Slice the packed full trajectory into per-segment subproblems."""
    sd = segment_layout(scenario, 0, scenario.num_waypoints - 1).state_dim
    edges = [0, *splits, scenario.num_waypoints - 1]
    return [
        SegmentProblem(i, a, b, segment_layout(scenario, a, b), x_full[a * sd : (b + 1) * sd].copy())
        for i, (a, b) in enumerate(zip(edges, edges[1:]))
    ]


def segment_couplings(segment: SegmentProblem, consensus: ConsensusState) -> list[ConsensusCoupling]:
    """Consensus terms touching this segment: its lead copy and trail split."""
    couplings, j, last = [], segment.index, segment.layout.count - 1
    if j > 0:
        couplings.append(ConsensusCoupling(0, consensus.dual_start[j - 1], consensus.targets[j - 1]))
    if j < len(consensus.split_indices):
        couplings.append(ConsensusCoupling(last, consensus.dual_end[j], consensus.targets[j]))
    return couplings


def primal_update(
    scenario: Scenario,
    segments: list[SegmentProblem],
    consensus: ConsensusState,
    config: SplitConfig,
    factors: FactorCache | None = None,
    deadline: float | None = None,
) -> list[NlpSolution]:
    """Solve every segment, in segment order, from its warm start.

    Each solve sees only the consensus state of the previous round, so the
    order does not change the result; the new iterates are written back.
    ``factors`` (the run's cache) and ``deadline`` go to every segment
    problem (see ``convexify_segment``).
    """
    solutions = []
    for segment in segments:
        problem = convexify_segment(
            scenario,
            segment.first,
            segment.last,
            segment.x,
            segment_couplings(segment, consensus),
            config.rho,
            factors,
            deadline,
        )
        solution = solve(problem, config.nlp_options)
        segment.x = solution.point
        segment.last_solution = solution
        solutions.append(solution)
    return solutions


def consensus_update(segments: list[SegmentProblem], consensus: ConsensusState, rho: float) -> None:
    """Average each split pair into its target, then push the duals.

    x - z equals (x - x')/2 exactly at the midpoint target, so both duals
    move by the same vector with opposite signs; computing that vector once
    keeps their sum at exactly zero in floating point as well.
    """
    for j in range(len(consensus.split_indices)):
        left = segments[j].end_state()
        right = segments[j + 1].start_state()
        consensus.targets[j] = 0.5 * (left + right)
        d = 0.5 * rho * (left - right)
        consensus.dual_end[j] += d
        consensus.dual_start[j] -= d


def splitting_residual(segments: list[SegmentProblem], scenario: Scenario) -> float:
    """Mean position disagreement across splits: sqrt(sum |dq|^2) / M."""
    m, d = len(segments) - 1, scenario.dim
    gaps = [a.end_state()[:d] - b.start_state()[:d] for a, b in zip(segments, segments[1:])]
    return float(np.sqrt(sum(float(np.sum(gap**2)) for gap in gaps))) / m if m else 0.0


def assemble_trajectory(
    scenario: Scenario, segments: list[SegmentProblem], consensus: ConsensusState
) -> Trajectory:
    """Stitch segment iterates into one trajectory, consensus at the splits.

    In path-only mode velocities are forward differences of the assembled
    positions and accelerations forward differences of those, so the
    explicit-Euler recursion holds exactly on the result.
    """
    n, d = scenario.num_waypoints, scenario.dim
    dt = scenario.dt
    states = np.zeros((n, segments[0].layout.state_dim))
    for segment in segments:
        states[segment.first : segment.last + 1] = segment.x.reshape(segment.layout.count, -1)
    states[list(consensus.split_indices)] = consensus.targets
    # boundary states are pinned constraints; stamp them to drop KKT roundoff
    for k, end in ((0, scenario.start), (-1, scenario.goal)):
        states[k] = np.concatenate([end.position, end.velocity])[: states.shape[1]]
    positions = states[:, :d]
    velocities = states[:, d:] if scenario.dynamics_enabled else np.zeros((n, d))
    if not scenario.dynamics_enabled:
        velocities[:-1] = (positions[1:] - positions[:-1]) / dt
        velocities[-1] = velocities[-2] if n > 1 else 0.0
    accelerations = np.zeros((n, d))
    accelerations[:-1] = (velocities[1:] - velocities[:-1]) / dt
    return Trajectory.from_arrays(positions, velocities, accelerations, scenario.dt)


def trajectory_objective(scenario: Scenario, trajectory: Trajectory) -> float:
    """The cost the solver minimized: summed squared (finite-difference) velocity."""
    if scenario.dynamics_enabled:
        return float(np.sum(trajectory.velocities() ** 2))
    q = trajectory.positions()
    return float(np.sum(((q[1:] - q[:-1]) / scenario.dt) ** 2))


def initial_point(scenario: Scenario) -> np.ndarray:
    """Packed straight-line seed, corrected onto the dynamics and pin rows."""
    layout = segment_layout(scenario, 0, scenario.num_waypoints - 1)
    traj = straight_line_init(scenario)
    x = layout.pack(traj.positions(), traj.velocities())
    if scenario.dynamics_enabled:
        a_eq, b_eq = segment_equalities(scenario, 0, scenario.num_waypoints - 1)
        x = project_to_affine(x, a_eq, b_eq)
    return x


# --- the segment worker ----------------------------------------------------------
#
# The worker's protocol lives in ``worker``, imported with ``multiprocessing``
# by the first run that starts a worker; ``import trajsplit`` loads neither.


def _parent_share(num_segments: int) -> int:
    """Segments the parent solves when a worker takes the rest."""
    return (num_segments + 1) // 2


_worker = None  # the parent's ``worker.Worker``
_worker_lock = threading.Lock()  # one run at a time talks to the worker


def _forget_worker() -> None:
    """In a forked child: the inherited worker is the parent's, never ours."""
    global _worker, _worker_lock
    _worker, _worker_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_worker)


def _in_daemon_process() -> bool:
    """A daemonic ``multiprocessing`` process (every ``Pool`` worker) may not
    start children."""
    mp = sys.modules.get("multiprocessing")
    return mp is not None and mp.current_process().daemon


def _claim_worker(num_segments: int):
    """The worker, started if need be, for a split run on two or more CPUs.

    None for a mono run, where ``fork`` or the CPU affinity is not available,
    on one CPU, in a daemonic process, while another thread's run holds the
    worker, and when the system refuses the fork: the run then solves every
    segment here, with the same outcome.
    """
    global _worker
    if num_segments < 2 or not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return None
    if len(os.sched_getaffinity(0)) < 2 or _in_daemon_process() or not _worker_lock.acquire(blocking=False):
        return None
    try:
        if _worker is None or not _worker.process.is_alive():
            from .worker import Worker

            _stop_worker()
            _worker = Worker()
    except OSError:  # EAGAIN, ENOMEM: no process to be had
        _worker_lock.release()
        return None
    except BaseException:
        _worker_lock.release()
        raise
    return _worker


def _stop_worker() -> None:
    """End the segment worker process, if any, between runs; the next split
    run on two or more CPUs forks a new one."""
    global _worker
    if _worker is not None:
        _worker.conn.close()
        _worker.process.terminate()
        _worker.process.join()
        _worker = None


def run(
    scenario: Scenario, config: SplitConfig | None = None, *, deadline_seconds: float | None = None
) -> SolveReport:
    """Full splitting solve of one scenario.

    With ``num_splits == 0`` this is exactly one monolithic NLP solve.  A
    deadline, when given, is checked in every SCP iteration of every segment
    solve and between rounds; hitting it ends the run with
    ``converged=False`` and ``deadline_reached=True``.  The worker process
    (see the module docstring) solves its share of every round; its death
    during the run raises ``WorkerError``.
    """
    cfg = config or SplitConfig()
    t0 = time.perf_counter()
    deadline = None if deadline_seconds is None else t0 + deadline_seconds
    splits = split_uniform(scenario.num_waypoints, cfg.num_splits)
    x_full = initial_point(scenario)
    full_layout = segment_layout(scenario, 0, scenario.num_waypoints - 1)
    segments = build_segments(scenario, splits, x_full)
    consensus = ConsensusState.initial(
        splits,
        [x_full[full_layout.state_slice(s)] for s in splits],
        full_layout.state_dim,
    )

    residual_history: list[float] = []
    iteration_seconds: list[float] = []
    primal_seconds = 0.0
    consensus_seconds = 0.0
    nonconverged = qp_nonoptimal = kkt_fallbacks = factorizations = 0
    converged = False
    deadline_reached = False
    iterations = 0
    solutions: list[NlpSolution] = []
    factors = FactorCache(scenario)
    worker = _claim_worker(len(segments))
    mine = segments[: _parent_share(len(segments))] if worker else segments
    theirs = segments[len(mine) :]

    try:
        if worker:
            worker.start_run(scenario, cfg, splits, theirs)
        for it in range(1, cfg.max_admm_iterations + 1):
            iterations = it
            tp = time.perf_counter()
            if worker:
                worker.send_round(consensus, deadline)
            solutions = primal_update(scenario, mine, consensus, cfg, factors, deadline)
            if worker:
                solutions += worker.receive_round(theirs)
            primal_seconds += time.perf_counter() - tp
            nonconverged += sum(1 for s in solutions if not s.converged)
            qp_nonoptimal += sum(s.qp_nonoptimal for s in solutions)
            kkt_fallbacks += sum(s.kkt_fallbacks for s in solutions)
            factorizations += sum(s.factorizations for s in solutions)
            tc = time.perf_counter()
            consensus_update(segments, consensus, cfg.rho)
            residual = splitting_residual(segments, scenario)
            consensus_seconds += time.perf_counter() - tc
            residual_history.append(residual)
            iteration_seconds.append(time.perf_counter() - t0)
            out_of_time = deadline is not None and time.perf_counter() >= deadline
            if residual <= cfg.eps or out_of_time:
                converged = residual <= cfg.eps and all(s.converged for s in solutions)
                deadline_reached = out_of_time and not converged
                break
        if worker:
            worker.end_run()
    except BaseException:
        if worker:
            _stop_worker()  # it may be mid-round; the next run forks a new one
        raise
    finally:
        if worker:
            _worker_lock.release()
    del factors  # the factors serve the rounds only; the final check runs without them

    trajectory = assemble_trajectory(scenario, segments, consensus)
    collision_free = trajectory_collision_free(scenario, trajectory, cfg.samples_per_edge)
    return SolveReport(
        trajectory=trajectory,
        converged=converged,
        collision_free=collision_free,
        objective=trajectory_objective(scenario, trajectory),
        path_length=path_length(trajectory),
        iterations=iterations,
        residual=residual_history[-1] if residual_history else 0.0,
        residual_history=tuple(residual_history),
        iteration_seconds=tuple(iteration_seconds),
        wall_seconds_total=time.perf_counter() - t0,
        wall_seconds_primal=primal_seconds,
        wall_seconds_consensus=consensus_seconds,
        segment_solves_converged=all(s.converged for s in solutions) if solutions else False,
        nonconverged_segment_solves=nonconverged,
        dual_imbalance=consensus.imbalance(),
        num_segments=len(segments),
        split_indices=splits,
        deadline_reached=deadline_reached,
        qp_nonoptimal=qp_nonoptimal,
        kkt_fallbacks=kkt_fallbacks,
        factorizations=factorizations,
        failed_segments=tuple(s.index for s in segments if not s.last_solution.converged),
    )
