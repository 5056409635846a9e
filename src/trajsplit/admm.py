"""Consensus splitting of a trajectory problem into independent segments.

The trajectory is cut at split waypoints; each split waypoint is duplicated
into the two adjacent segments and a consensus variable with a scaled dual
pair ties the copies together.  Each round solves every segment, averages
the split copies into the consensus targets, and pushes the duals by rho
times the remaining disagreement.  The loop stops when the mean position
disagreement across splits drops below the splitting tolerance.  Rounds
change only the consensus linear terms and warm starts: a run's
``FactorCache`` builds each segment's Hessian, equalities (both one
coordinate's blocks), bounds, rows and base KKT inverse once per segment
shape (waypoint count, pinned start, pinned goal, coupled waypoints, rho).

The gain of splitting is that each segment's cost grows with its own
waypoints, not the whole trajectory's.  The segments of a round are
independent, yet solved one after another in this process: from its coarse
start a run takes one or two rounds, after a serial coarse solve, so a
second process saves no more than its hand-off costs, and threads would
add nothing to GIL-bound numpy.

The rounds a run takes come from its duals, its work per round also from
its primal start.  A split run of at least 40 waypoints therefore first
solves the same problem monolithically on a grid a quarter as long, of 20
waypoints at least, over the same horizon, with the same limits
(``coarse_scenario``).  At a mono optimum the duals a split at each interior
waypoint would need are known in closed form from the trajectory
(``split_duals``); the fine run starts from those duals, interpolated in
time to its splits and their position part scaled by dt_c / dt
(``fine_duals``), from the interpolated coarse states as targets, and from
the coarse trajectory, interpolated in time to every waypoint, as its
segments' warm starts (``initial_point``).  Other runs start the same way
from the straight line, with zero duals.  Each segment's ``solve`` projects
its own slice of the seed onto its own dynamics and pin rows; nothing
projects the whole trajectory.  Both levels share the deadline.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor  # noqa: F401  (wrapped by benchmark/tracing.py)
from dataclasses import dataclass, field, replace

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
    segment_layout,
    solve,
)


# A split run first solves the same problem on max(N // COARSE_FACTOR,
# COARSE_MIN_WAYPOINTS) waypoints when that is at most half of N (see
# ``coarse_scenario``).
COARSE_FACTOR = 4
COARSE_MIN_WAYPOINTS = 20


@dataclass(frozen=True)
class SplitConfig:
    """Settings of a split run; the CLI's solver flags default to these.

    ``num_splits`` is the number of cut points M, producing M+1 segments;
    zero means a single monolithic solve.  ``eps`` bounds the mean position
    disagreement across splits (radians for arms, length units for point
    robots).  ``nlp_options`` holds the segment solver's three limits.
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
    """One segment's waypoint range and its current packed iterate.

    ``rows`` holds (x, its collision rows as values, columns and coefficients)
    after a solve of a segment with obstacles, so that the next solve need not
    evaluate its start again (see ``nlp.SolveRows``).
    """

    index: int
    first: int
    last: int
    layout: SegmentLayout
    x: np.ndarray
    last_solution: NlpSolution | None = None
    rows: tuple | None = None

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

    ``factorizations`` totals the base KKT inverses the run built, one per
    segment shape and level; ``qp_steps`` totals the QP active-set steps;
    ``kkt_fallbacks`` counts every least-squares answer, each segment
    solve's projection of its start included;
    ``failed_segments`` lists the segments whose last solve did not
    converge.  The ``coarse_*`` fields give the coarse level's waypoints (0
    for none), rounds and verdicts; a split run of 40 or more waypoints has
    one (see ``run``).  That level is one mono solve, so ``coarse_rounds``
    reads 1 when it ran, as ``iterations`` does for any mono run.  Wall
    times and solve counters cover both levels; the rounds, residuals and
    the rest are the fine run's.
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
    qp_steps: int = 0
    qp_nonoptimal: int = 0
    kkt_fallbacks: int = 0
    factorizations: int = 0
    failed_segments: tuple[int, ...] = ()
    coarse_waypoints: int = 0
    coarse_rounds: int = 0
    coarse_converged: bool = False
    coarse_collision_free: bool = False


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
    order does not change the result; the new iterates are written back,
    each with its collision rows, which the segment's next solve is handed.
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
        if problem.inequalities is not None and segment.rows is not None:
            problem.inequalities.carry(*segment.rows)
        solution = solve(problem, config.nlp_options)
        segment.x = solution.point
        segment.last_solution = solution
        segment.rows = None if problem.inequalities is None else problem.inequalities.at(solution.point)
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


def initial_point(scenario: Scenario, guide: Trajectory | None = None) -> np.ndarray:
    """Packed seed states at every waypoint: the straight line, or ``guide``,
    a trajectory over the same horizon (the coarse level's), linearly
    interpolated in time.  Nothing is projected here: each segment's
    ``solve`` projects its own slice onto its own dynamics and pin rows."""
    seed = straight_line_init(scenario) if guide is None else guide
    times, to = seed.dt * np.arange(len(seed)), scenario.dt * np.arange(scenario.num_waypoints)
    return _at_times(times, _state_rows(scenario, seed), to).reshape(-1)


def _state_rows(scenario: Scenario, trajectory: Trajectory) -> np.ndarray:
    """One packed state per waypoint: its position, with dynamics its velocity too."""
    if scenario.dynamics_enabled:
        return np.hstack([trajectory.positions(), trajectory.velocities()])
    return trajectory.positions()


def coarse_scenario(scenario: Scenario, num_splits: int) -> Scenario | None:
    """The grid of max(N // ``COARSE_FACTOR``, ``COARSE_MIN_WAYPOINTS``)
    waypoints over the same horizon whose mono solve starts a split run; None
    for a mono run, when that is more than half of N (N under 40), or when it
    cannot hold the splits."""
    n = scenario.num_waypoints
    n_c = max(n // COARSE_FACTOR, COARSE_MIN_WAYPOINTS)
    if num_splits == 0 or n_c > n // 2 or n_c < num_splits + 2:
        return None
    return replace(scenario, num_waypoints=n_c, dt=scenario.dt * (n - 1) / (n_c - 1))


def split_duals(scenario: Scenario, trajectory: Trajectory) -> np.ndarray:
    """``dual_end`` of a split at each interior waypoint of a mono optimum.

    A split at waypoint k keeps the optimum when each segment's stationarity
    holds there with the collision multiplier of q_k shared half and half:
    with dynamics that gives (-(v_{k-1} + v_k)/dt, -v_k), in path-only mode
    -(q_{k+1} - q_{k-1})/dt^2.  ``dual_start`` is the negation.  Row k-1 is
    waypoint k's.
    """
    dt = scenario.dt
    if not scenario.dynamics_enabled:
        q = trajectory.positions()
        return -(q[2:] - q[:-2]) / (dt * dt)
    v = trajectory.velocities()
    return np.hstack([-(v[:-2] + v[1:-1]) / dt, -v[1:-1]])


def _at_times(times: np.ndarray, rows: np.ndarray, to: np.ndarray) -> np.ndarray:
    """``rows`` sampled at ``times``, linearly interpolated (clamped) at ``to``."""
    return np.column_stack([np.interp(to, times, column) for column in rows.T])


def fine_duals(dual: np.ndarray, dim: int, ratio: float) -> np.ndarray:
    """Coarse dual rows as fine ones: positions times ``ratio`` = dt_c / dt.

    The multiplier of q_{k+1} = q_k + dt v_k (or of a path edge) scales like
    a costate over dt; the velocity part is kept as is.  In path-only mode a
    state is its position, so the whole dual is scaled.
    """
    out = dual.copy()
    out[:, :dim] *= ratio
    return out


def run(
    scenario: Scenario, config: SplitConfig | None = None, *, deadline_seconds: float | None = None
) -> SolveReport:
    """Full splitting solve of one scenario.

    With ``num_splits == 0`` this is exactly one monolithic NLP solve, one
    round.  A split run of at least 40 waypoints first solves
    ``coarse_scenario`` that way and starts from the duals, targets and
    segment warm starts its trajectory gives (see the module docstring).  A
    deadline, when given, is checked in every SCP iteration of every segment
    solve and between rounds, on both levels; hitting it ends the run with
    ``converged=False`` and ``deadline_reached=True``.
    """
    t0 = time.perf_counter()
    deadline = None if deadline_seconds is None else t0 + deadline_seconds
    return _run(scenario, config or SplitConfig(), t0, deadline)


def _seed_consensus(
    scenario: Scenario, splits: tuple[int, ...], seed: Trajectory, coarse: Scenario | None
) -> ConsensusState:
    """The fine run's first consensus state: the seed's states, linearly
    interpolated in time to the splits, as targets; zero duals for the
    straight line, for a ``coarse`` mono trajectory its ``split_duals``,
    interpolated the same way and scaled by ``fine_duals``."""
    times = seed.dt * np.arange(len(seed))
    to = scenario.dt * np.array(splits, dtype=float)
    targets = _at_times(times, _state_rows(scenario, seed), to)
    if coarse is None:
        return ConsensusState(splits, targets, np.zeros_like(targets), np.zeros_like(targets))
    dual_end = fine_duals(
        _at_times(times[1:-1], split_duals(coarse, seed), to), scenario.dim, coarse.dt / scenario.dt
    )
    return ConsensusState(splits, targets, dual_end, -dual_end)


def _run(scenario: Scenario, cfg: SplitConfig, t0: float, deadline: float | None) -> SolveReport:
    """``run`` from its start time and absolute deadline."""
    coarse = coarse_scenario(scenario, cfg.num_splits)
    level = _run(coarse, replace(cfg, num_splits=0), time.perf_counter(), deadline) if coarse else None
    splits = split_uniform(scenario.num_waypoints, cfg.num_splits)
    seed = level.trajectory if level else straight_line_init(scenario)
    segments = build_segments(scenario, splits, initial_point(scenario, seed))
    consensus = _seed_consensus(scenario, splits, seed, coarse)

    residual_history: list[float] = []
    iteration_seconds: list[float] = []
    primal_seconds = 0.0
    consensus_seconds = 0.0
    nonconverged = qp_steps = qp_nonoptimal = kkt_fallbacks = factorizations = 0
    if level:
        # the counters and seconds of both levels add up
        primal_seconds, consensus_seconds = level.wall_seconds_primal, level.wall_seconds_consensus
        nonconverged, qp_nonoptimal = level.nonconverged_segment_solves, level.qp_nonoptimal
        qp_steps, kkt_fallbacks, factorizations = level.qp_steps, level.kkt_fallbacks, level.factorizations
    converged = False
    deadline_reached = False
    iterations = 0
    solutions: list[NlpSolution] = []
    factors = FactorCache(scenario)

    for it in range(1, cfg.max_admm_iterations + 1):
        iterations = it
        tp = time.perf_counter()
        solutions = primal_update(scenario, segments, consensus, cfg, factors, deadline)
        primal_seconds += time.perf_counter() - tp
        nonconverged += sum(1 for s in solutions if not s.converged)
        qp_steps += sum(s.qp_steps for s in solutions)
        qp_nonoptimal += sum(s.qp_nonoptimal for s in solutions)
        kkt_fallbacks += sum(s.kkt_fallbacks for s in solutions)
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
    factorizations += len(factors.segments)
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
        qp_steps=qp_steps,
        qp_nonoptimal=qp_nonoptimal,
        kkt_fallbacks=kkt_fallbacks,
        factorizations=factorizations,
        failed_segments=tuple(s.index for s in segments if not s.last_solution.converged),
        coarse_waypoints=coarse.num_waypoints if level else 0,
        coarse_rounds=level.iterations if level else 0,
        coarse_converged=level.converged if level else False,
        coarse_collision_free=level.collision_free if level else False,
    )
