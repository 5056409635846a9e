"""A run builds each segment's QP once: one cache entry, base KKT inverse
included, per segment shape, shared across ADMM rounds and between equal
segments, dropped when the rounds end.  Sharing saves work only: answers
stay those of a solve that factors its own base, fallback counts included."""

import gc
import weakref
from dataclasses import fields, replace

import numpy as np
import pytest

from trajsplit import admm, nlp
from trajsplit.admm import SplitConfig, run, split_uniform
from trajsplit.cli import bundled_scenario_dir
from trajsplit.nlp import PROX_REGULARIZATION, FactorCache, NlpProblem, QuadraticFunction, convexify_segment, solve
from trajsplit.scenario_io import load_scenario

from conftest import cold_circle


def bundled(name):
    return load_scenario(bundled_scenario_dir() / name)


def count_factorizations(monkeypatch) -> list:
    """Spy on nlp.kkt_inverse; the list holds a weak reference to each inverse."""
    made = []
    real = nlp.kkt_inverse

    def counting(hessian, *args, **kwargs):
        inverse = real(hessian, *args, **kwargs)
        made.append(weakref.ref(inverse))
        return inverse

    monkeypatch.setattr(nlp, "kkt_inverse", counting)
    return made


def test_one_factorization_per_segment_shape(monkeypatch):
    scenario = cold_circle()
    made = count_factorizations(monkeypatch)
    report = run(scenario, SplitConfig(num_splits=4, rho=2.0))
    last = scenario.num_waypoints - 1
    edges = [0, *split_uniform(scenario.num_waypoints, 4), last]
    shapes = {(b - a + 1, a == 0, b == last) for a, b in zip(edges, edges[1:])}
    assert report.iterations > 1
    assert len(shapes) < report.num_segments
    assert len(made) == len(shapes)
    assert report.factorizations == len(shapes)


# values of the solver that inverted every segment's base in every round;
# circle_blocked's are of its cold 39-waypoint input (``cold_circle``),
# started from the straight line's states at the splits; solving with a base
# factored on every call still gives them (test below)
PINNED = {
    "circle_blocked.yaml": (
        SplitConfig(num_splits=4, rho=2.0),
        13.785439469972662,
        (0.506410826900284, 0.40627631863410973, 0.3289069466490165,
         0.26139638472354665, 0.20382192979250233, 0.15777199285111165),
        True,
    ),
    "arm_two_link.yaml": (SplitConfig(num_splits=2), 8.52186862285497, (0.09387752912163319,), False),
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_outcomes_match_per_round_factorization(name):
    config, objective, history, collision_free = PINNED[name]
    report = run(cold_circle() if name == "circle_blocked.yaml" else bundled(name), config)
    assert report.objective == pytest.approx(objective, rel=1e-12)
    assert report.residual_history == pytest.approx(history, rel=1e-12)
    assert report.iterations == len(history)
    assert report.converged
    assert report.collision_free == collision_free
    assert (report.nonconverged_segment_solves, report.qp_nonoptimal, report.kkt_fallbacks) == (0, 0, 0)


def outcome(report) -> tuple:
    """Everything a report says but its wall times and factorization count."""
    skipped = {"trajectory", "iteration_seconds", "factorizations"}
    values = tuple(getattr(report, f.name) for f in fields(report)
                   if f.name not in skipped and not f.name.startswith("wall_seconds"))
    traj = report.trajectory
    return values + tuple(a.tobytes() for a in (traj.positions(), traj.velocities(), traj.accelerations()))


def test_outcomes_match_factoring_on_every_call(monkeypatch):
    # without a shared cache every segment problem builds and factors its own base
    scenarios = {name: cold_circle() if name == "circle_blocked.yaml" else bundled(name) for name in PINNED}
    shared = {name: run(scenarios[name], PINNED[name][0]) for name in PINNED}
    made = count_factorizations(monkeypatch)
    real = admm.convexify_segment

    def uncached(scenario, first, last, x0, couplings=(), rho=0.0, factors=None, deadline=None):
        return real(scenario, first, last, x0, couplings, rho, None, deadline)

    monkeypatch.setattr(admm, "convexify_segment", uncached)
    for name in PINNED:
        made.clear()
        alone = run(scenarios[name], PINNED[name][0])
        assert len(made) == alone.iterations * alone.num_segments
        assert outcome(alone) == outcome(shared[name])


def held_arrays(value):
    """Every array that ``value`` holds in its attributes, through tuples and lists."""
    if isinstance(value, np.ndarray):
        return [value]
    if isinstance(value, (tuple, list)):
        return [a for item in value for a in held_arrays(item)]
    return held_arrays(list(vars(value).values())) if hasattr(value, "__dict__") else []


def test_cache_holds_one_read_only_entry_per_shape(monkeypatch):
    # arm_two_link, 30 waypoints in 5 segments of 7, 7, 6, 7 and 7: 4 shapes,
    # each inverse held dense, then as its parts (DENSE_SIZE 0)
    scenario, config = bundled("arm_two_link.yaml"), SplitConfig(num_splits=4)
    splits = split_uniform(scenario.num_waypoints, 4)
    for dense_size in (nlp.DENSE_SIZE, 0):
        monkeypatch.setattr(nlp, "DENSE_SIZE", dense_size)
        segments = admm.build_segments(scenario, splits, admm.initial_point(scenario))
        consensus = admm.ConsensusState.initial(splits, np.zeros((4, 2)), 2)
        factors = FactorCache(scenario)
        admm.primal_update(scenario, segments, consensus, config, factors)
        assert len(factors.segments) == 4 == run(scenario, config).factorizations
        for hessian, a_eq, b_eq, lower, upper, rows, base in factors.segments.values():
            assert (base.dense is None) == (dense_size == 0)
            assert {id(a) for a in held_arrays(base)} == {id(a) for a in base.arrays()}
            for array in held_arrays([hessian, a_eq, b_eq, lower, upper, base]):
                assert not array.flags.writeable
                with pytest.raises(ValueError):
                    array[...] = 1.0


def test_run_leaves_no_factor_reachable(monkeypatch):
    made = count_factorizations(monkeypatch)
    caches = []
    real_init = FactorCache.__init__

    def tracked(self, *args, **kwargs):
        real_init(self, *args, **kwargs)
        caches.append(weakref.ref(self))

    monkeypatch.setattr(FactorCache, "__init__", tracked)
    alive_at_check = []
    real_check = admm.trajectory_collision_free

    def checking(*args, **kwargs):
        gc.collect()
        alive_at_check.extend(ref for ref in made + caches if ref() is not None)
        return real_check(*args, **kwargs)

    monkeypatch.setattr(admm, "trajectory_collision_free", checking)
    report = run(bundled("circle_blocked.yaml"), SplitConfig(num_splits=4, rho=2.0))
    gc.collect()
    assert report.converged
    assert made and caches
    # released before the final edge-sampled check, and not kept by the report
    assert alive_at_check == []
    assert all(ref() is None for ref in made + caches)


# duplicated equality rows: the base KKT matrix is exactly singular
SINGULAR_HESSIAN, SINGULAR_A_EQ = 2.0 * np.eye(2), np.array([[0.0, 1.0], [0.0, 1.0]])


def singular_problem(base=None) -> NlpProblem:
    objective = QuadraticFunction(hessian_matrix=SINGULAR_HESSIAN, linear=np.array([-20.0, 0.0]))
    return NlpProblem(dim=2, objective=objective, a_eq=SINGULAR_A_EQ, b_eq=np.zeros(2), x0=np.zeros(2),
                      base_inverse=base)


def test_shared_singular_base_counts_one_fallback_per_solve(monkeypatch):
    alone = solve(singular_problem())
    assert alone.kkt_fallbacks == 1
    made = count_factorizations(monkeypatch)
    base = nlp.kkt_inverse(SINGULAR_HESSIAN, SINGULAR_A_EQ, shift=PROX_REGULARIZATION)
    assert base.pseudo
    shared = [solve(singular_problem(base)) for _ in range(3)]
    assert len(made) == 1
    assert [s.kkt_fallbacks for s in shared] == [1, 1, 1]
    for s in shared:
        np.testing.assert_array_equal(s.point, alone.point)


def test_cache_of_another_problem_changes_nothing():
    scenario = bundled("circle_blocked.yaml")
    other = replace(scenario, dt=2.0 * scenario.dt)
    x0 = admm.initial_point(scenario)
    factors = FactorCache(other)
    solve(convexify_segment(other, 0, scenario.num_waypoints - 1, admm.initial_point(other), factors=factors))
    shared = solve(convexify_segment(scenario, 0, scenario.num_waypoints - 1, x0, factors=factors))
    alone = solve(convexify_segment(scenario, 0, scenario.num_waypoints - 1, x0))
    np.testing.assert_array_equal(shared.point, alone.point)
    assert len(factors.segments) == 1


def test_mono_deadline_stops_after_one_scp_iteration(monkeypatch):
    scenario = bundled("circle_blocked.yaml")
    solutions = []
    real = admm.solve

    def recording(problem, options=None):
        solutions.append(real(problem, options))
        return solutions[-1]

    monkeypatch.setattr(admm, "solve", recording)
    free = run(scenario, SplitConfig(num_splits=0))
    assert free.converged and solutions[-1].iterations > 1
    solutions.clear()
    report = run(scenario, SplitConfig(num_splits=0), deadline_seconds=0.0)
    assert report.deadline_reached
    assert not report.converged
    assert report.iterations == 1
    assert [(s.iterations, s.converged) for s in solutions] == [(1, False)]
