"""QP work and the QP outcomes that are not a clean optimum are counted,
not dropped: active-set steps, iteration-capped returns and least-squares
KKT fallbacks, per NLP solve and as run totals in the report."""

from dataclasses import replace

import numpy as np

from trajsplit import admm, nlp
from trajsplit.admm import SplitConfig, run
from trajsplit.model import Point2D, RobotState, Scenario
from trajsplit.cli import bundled_scenario_dir
from trajsplit.nlp import NlpProblem, QpStats, QuadraticFunction, project_to_affine, solve, solve_qp
from trajsplit.scenario_io import load_scenario, report_to_dict

from conftest import stretched

NO_ROWS = (np.zeros((0, 2)), np.zeros(0))


def test_iteration_cap_counts_as_nonoptimal():
    # the unconstrained optimum (2, 2) lies beyond both rows x <= 1: the
    # first step makes one of them tight and the cap ends the solve before
    # the second can be
    stats = QpStats()
    x, ok = solve_qp(np.eye(2), np.array([-2.0, -2.0]), *NO_ROWS,
                     np.eye(2), np.array([1.0, 1.0]),
                     max_iterations=1, stats=stats)
    assert not ok
    assert stats.nonoptimal == 1
    assert stats.kkt_fallbacks == 0


def test_clean_solve_counts_nothing():
    stats = QpStats()
    _, ok = solve_qp(np.eye(2), np.array([-2.0, -2.0]), *NO_ROWS,
                     np.array([[1.0, 0.0]]), np.array([1.0]), stats=stats)
    assert ok
    assert stats == QpStats(steps=1)


def test_singular_kkt_counts_as_fallback():
    # duplicated equality rows make the KKT matrix exactly singular
    stats = QpStats()
    a_eq = np.array([[1.0, 1.0], [1.0, 1.0]])
    x, ok = solve_qp(np.eye(2), np.zeros(2), a_eq, np.array([1.0, 1.0]), *NO_ROWS, stats=stats)
    assert ok
    np.testing.assert_allclose(x, [0.5, 0.5], atol=1e-12)
    assert stats.kkt_fallbacks >= 1


def quadratic_problem(a_eq=None, b_eq=None, linear=(-20.0, 0.0)):
    objective = QuadraticFunction(hessian_matrix=2.0 * np.eye(2), linear=np.array(linear))
    return NlpProblem(dim=2, objective=objective, a_eq=a_eq, b_eq=b_eq, x0=np.zeros(2))


def test_nlp_solution_carries_fallbacks():
    problem = quadratic_problem(np.array([[0.0, 1.0], [0.0, 1.0]]), np.array([0.0, 0.0]))
    solution = solve(problem)
    assert solution.converged
    assert solution.kkt_fallbacks >= 1
    assert solve(quadratic_problem()).kkt_fallbacks == 0


def test_singular_projection_counts_as_fallback():
    # the redundant rows of quadratic_problem: A A' is singular
    a_eq, b_eq = np.array([[0.0, 1.0], [0.0, 1.0]]), np.array([1.0, 1.0])
    stats = QpStats()
    x = project_to_affine(np.zeros(2), a_eq, b_eq, stats)
    np.testing.assert_allclose(x, [0.0, 1.0], atol=1e-12)
    assert stats == QpStats(kkt_fallbacks=1)


def test_nlp_solution_carries_projection_fallback():
    # off the affine set, x0 is projected first: one more fallback than on it
    on_set = solve(quadratic_problem(np.array([[0.0, 1.0], [0.0, 1.0]]), np.array([0.0, 0.0])))
    off_set = solve(quadratic_problem(np.array([[0.0, 1.0], [0.0, 1.0]]), np.array([1.0, 1.0])))
    assert on_set.converged and off_set.converged
    np.testing.assert_allclose(off_set.point, [10.0, 1.0], atol=1e-6)
    assert off_set.kkt_fallbacks == on_set.kkt_fallbacks + 1


def test_every_least_squares_answer_of_a_run_is_counted(monkeypatch):
    # N = 2 with dynamics: 5d equality rows on 4d variables, and the resting
    # pins q_1 = q_0 + dt v_0 cannot meet; the solve's projection of its
    # start and the base KKT matrix both fall back to least squares
    answered = []
    for name in ("lstsq", "pinv"):
        real = getattr(np.linalg, name)

        def counting(*args, real=real, name=name, **kwargs):
            answered.append(name)
            return real(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counting)
    scenario = Scenario(
        robot=Point2D(),
        obstacles=(),
        start=RobotState.resting((0.0, 0.0)),
        goal=RobotState.resting((1.0, 0.0)),
        num_waypoints=2,
        dt=0.25,
        safety_margin=0.05,
        dynamics_enabled=True,
    )
    report = run(scenario, SplitConfig(num_splits=0))
    assert len(answered) == 2
    assert report.kkt_fallbacks == len(answered)


def test_long_monolithic_horizon_is_clean():
    # circle_blocked stretched to N = 160, solved in one piece: the active
    # set must neither cycle to the iteration cap nor meet a singular system
    base = load_scenario(bundled_scenario_dir() / "circle_blocked.yaml")
    horizon = base.dt * (base.num_waypoints - 1)
    scenario = replace(base, num_waypoints=160, dt=horizon / 159)
    report = run(scenario, SplitConfig(num_splits=0, rho=2.0, eps=0.05))
    assert report.converged
    assert (report.qp_nonoptimal, report.kkt_fallbacks) == (0, 0)


def test_long_monolithic_horizon_takes_few_qp_steps():
    # each QP starts at its unconstrained optimum and adds only what that
    # point violates: a few collision rows and trust-region bounds
    report = run(stretched("circle_blocked.yaml", 160), SplitConfig(num_splits=0))
    assert 0 < report.qp_steps <= 30


def test_qp_steps_sum_over_both_levels(monkeypatch):
    steps = []
    real = admm.solve

    def recording(problem, options=None):
        solution = real(problem, options)
        steps.append(solution.qp_steps)
        return solution

    monkeypatch.setattr(admm, "solve", recording)
    report = run(stretched("circle_blocked.yaml", 160), SplitConfig(num_splits=3, rho=2.0, eps=0.05))
    assert report.coarse_waypoints == 40
    assert steps[0] > 0  # the coarse level's mono solve
    assert report.qp_steps == sum(steps)


def test_nlp_solution_carries_nonoptimal_returns(monkeypatch):
    # cap every QP at one step: the first QP's optimum (10, 10) lies beyond
    # the trust region in both coordinates, and one step holds only one bound
    capped = solve_qp

    def one_step(*args, **kwargs):
        return capped(*args, max_iterations=1, **kwargs)

    monkeypatch.setattr(nlp, "solve_qp", one_step)
    solution = solve(quadratic_problem(linear=(-20.0, -20.0)))
    assert solution.qp_nonoptimal >= 1
    assert solution.qp_nonoptimal <= solution.iterations


def test_report_totals_sum_over_segment_solves(monkeypatch):
    assert_totals_sum_over_segment_solves(monkeypatch)


def assert_totals_sum_over_segment_solves(monkeypatch):
    real = admm.solve

    def flagged(problem, options=None):
        return replace(real(problem, options), qp_steps=3, qp_nonoptimal=1, kkt_fallbacks=2)

    monkeypatch.setattr(admm, "solve", flagged)
    scenario = Scenario(
        robot=Point2D(),
        obstacles=(),
        start=RobotState.resting((0.0, 0.0)),
        goal=RobotState.resting((2.0, 1.0)),
        num_waypoints=10,
        dt=0.25,
        safety_margin=0.05,
        dynamics_enabled=True,
    )
    config = SplitConfig(num_splits=2, rho=5.0, eps=0.05)
    report = run(scenario, config)
    solves = report.iterations * report.num_segments
    assert report.qp_nonoptimal == solves
    assert report.kkt_fallbacks == 2 * solves
    assert report.qp_steps == 3 * solves
    doc = report_to_dict(report, "inline", config)
    assert doc["result"]["qp_steps"] == 3 * solves
    assert doc["result"]["qp_nonoptimal"] == solves
    assert doc["result"]["kkt_fallbacks"] == 2 * solves


def test_report_totals_default_to_zero():
    scenario = Scenario(
        robot=Point2D(),
        obstacles=(),
        start=RobotState.resting((0.0, 0.0)),
        goal=RobotState.resting((1.0, 0.0)),
        num_waypoints=5,
        dt=0.25,
        safety_margin=0.05,
    )
    report = run(scenario, SplitConfig(num_splits=0))
    assert (report.qp_nonoptimal, report.kkt_fallbacks) == (0, 0)
