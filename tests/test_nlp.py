"""Segment subproblem assembly and the convexification solver."""

import math

import numpy as np
import pytest

from trajsplit import nlp
from trajsplit.collision import clearances, pair_distance
from trajsplit.errors import ConfigError, EvaluatorError
from trajsplit.geometry import Circle
from trajsplit.model import PlanarArm, Point2D, RobotState, Scenario
from trajsplit.nlp import (
    ConsensusCoupling,
    NlpProblem,
    QuadraticFunction,
    SolverOptions,
    build_segment_objective,
    convexify_segment,
    project_to_affine,
    segment_bounds,
    segment_equalities,
    segment_layout,
    solve,
    solve_qp,
)

from conftest import dense, enumerate_qp


def point_scenario(n=5, obstacles=(), margin=0.05, dynamics=True, dt=0.5):
    return Scenario(
        robot=Point2D(),
        obstacles=tuple(obstacles),
        start=RobotState.resting((0.0, 0.0)),
        goal=RobotState.resting((4.0, 0.0)),
        num_waypoints=n,
        dt=dt,
        safety_margin=margin,
        dynamics_enabled=dynamics,
    )


def random_qp(rng, n, m_in, n_eq=0):
    b = rng.normal(size=(n, n))
    hessian = b @ b.T + 0.5 * n * np.eye(n)
    gradient = rng.normal(size=n)
    a_in = rng.normal(size=(m_in, n))
    b_in = rng.uniform(0.2, 1.0, size=m_in)  # x0 = 0 strictly feasible
    a_eq = rng.normal(size=(n_eq, n))
    b_eq = np.zeros(n_eq)
    return hessian, gradient, a_eq, b_eq, a_in, b_in


class TestSolveQp:
    def test_matches_enumeration_oracle(self, rng):
        for _ in range(30):
            hessian, gradient, a_eq, b_eq, a_in, b_in = random_qp(rng, n=5, m_in=3)
            x, ok = solve_qp(hessian, gradient, a_eq, b_eq, a_in, b_in)
            assert ok
            want_val, want_x = enumerate_qp(hessian, gradient, a_eq, b_eq, a_in, b_in)
            got_val = 0.5 * x @ hessian @ x + gradient @ x
            assert got_val == pytest.approx(want_val, abs=1e-8)
            np.testing.assert_allclose(x, want_x, atol=1e-6)

    def test_with_equalities(self, rng):
        for _ in range(15):
            hessian, gradient, a_eq, b_eq, a_in, b_in = random_qp(rng, n=4, m_in=3, n_eq=1)
            x, ok = solve_qp(hessian, gradient, a_eq, b_eq, a_in, b_in)
            assert ok
            want_val, _ = enumerate_qp(hessian, gradient, a_eq, b_eq, a_in, b_in)
            got_val = 0.5 * x @ hessian @ x + gradient @ x
            assert got_val == pytest.approx(want_val, abs=1e-8)
            np.testing.assert_allclose(a_eq @ x, b_eq, atol=1e-9)
            assert np.all(a_in @ x - b_in <= 1e-9)

    def test_equality_only_kkt(self, rng):
        n, m = 6, 2
        b = rng.normal(size=(n, n))
        hessian = b @ b.T + n * np.eye(n)
        gradient = rng.normal(size=n)
        a_eq = rng.normal(size=(m, n))
        b_eq = rng.normal(size=m)
        x, ok = solve_qp(hessian, gradient, a_eq, b_eq, np.zeros((0, n)), np.zeros(0))
        assert ok
        kkt = np.block([[hessian, a_eq.T], [a_eq, np.zeros((m, m))]])
        ref = np.linalg.solve(kkt, np.concatenate([-gradient, b_eq]))[:n]
        np.testing.assert_allclose(x, ref, atol=1e-9)


class TestQuadraticFunction:
    def test_value_and_grad(self, rng):
        h = np.array([[2.0, 0.5], [0.5, 3.0]])
        g = np.array([1.0, -2.0])
        f = QuadraticFunction(hessian_matrix=h, linear=g, constant=0.7)
        x = rng.normal(size=2)
        want = 0.5 * x @ h @ x + g @ x + 0.7
        val, grad = f.value_and_grad(x)
        assert val == pytest.approx(want, abs=1e-12)
        np.testing.assert_allclose(grad, h @ x + g, atol=1e-12)


class TestProjectToAffine:
    def test_lands_on_set_with_least_norm(self, rng):
        a_eq = rng.normal(size=(2, 5))
        b_eq = rng.normal(size=2)
        x = rng.normal(size=5)
        p = project_to_affine(x, a_eq, b_eq)
        np.testing.assert_allclose(a_eq @ p, b_eq, atol=1e-10)
        # correction lies in the row space: orthogonal to the nullspace
        _, _, vt = np.linalg.svd(a_eq)
        null = vt[2:]
        np.testing.assert_allclose(null @ (p - x), 0.0, atol=1e-10)


class TestSolve:
    def test_scalar_quadratic(self):
        obj = QuadraticFunction(hessian_matrix=np.array([[2.0]]), linear=np.array([-2.0]), constant=1.0)
        problem = NlpProblem(dim=1, objective=obj, x0=np.zeros(1))
        sol = solve(problem)
        assert sol.converged
        assert sol.point[0] == pytest.approx(1.0, abs=1e-6)

    def test_active_bound(self):
        obj = QuadraticFunction(hessian_matrix=np.array([[2.0]]), linear=np.zeros(1))
        problem = NlpProblem(
            dim=1,
            objective=obj,
            lower=np.array([1.0]),
            upper=np.array([np.inf]),
            x0=np.array([5.0]),
        )
        sol = solve(problem)
        assert sol.converged
        assert sol.point[0] == pytest.approx(1.0, abs=1e-6)

    def test_equality_by_symmetry(self):
        obj = QuadraticFunction(hessian_matrix=2.0 * np.eye(2), linear=np.zeros(2))
        problem = NlpProblem(
            dim=2,
            objective=obj,
            a_eq=np.array([[1.0, 1.0]]),
            b_eq=np.array([1.0]),
            x0=np.zeros(2),
        )
        sol = solve(problem)
        assert sol.converged
        np.testing.assert_allclose(sol.point, [0.5, 0.5], atol=1e-6)

    def test_random_qp_against_oracle(self, rng):
        for _ in range(10):
            hessian, gradient, _, _, a_in, b_in = random_qp(rng, n=5, m_in=3)
            obj = QuadraticFunction(hessian_matrix=hessian, linear=gradient)

            def ineq(x, a_in=a_in, b_in=b_in):
                return a_in @ x - b_in, a_in

            problem = NlpProblem(
                dim=5,
                objective=obj,
                inequalities=ineq,
                x0=np.zeros(5),
            )
            sol = solve(problem, SolverOptions(max_outer_iterations=200))
            assert sol.converged
            want_val, _ = enumerate_qp(hessian, gradient, np.zeros((0, 5)), np.zeros(0), a_in, b_in)
            assert sol.objective == pytest.approx(want_val, abs=1e-5)

    def test_feasibility_report_matches_recomputation(self, rng):
        hessian, gradient, _, _, a_in, b_in = random_qp(rng, n=4, m_in=2)
        a_eq = np.array([[1.0, 1.0, 0.0, 0.0]])
        b_eq = np.array([0.3])
        obj = QuadraticFunction(hessian_matrix=hessian, linear=gradient)

        def ineq(x):
            return a_in @ x - b_in, a_in

        problem = NlpProblem(
            dim=4,
            objective=obj,
            a_eq=a_eq,
            b_eq=b_eq,
            inequalities=ineq,
            x0=np.zeros(4),
        )
        sol = solve(problem)
        eq = float(np.max(np.abs(a_eq @ sol.point - b_eq)))
        ineq_v = max(float(np.max(a_in @ sol.point - b_in)), 0.0)
        assert sol.max_equality_violation == pytest.approx(eq, abs=1e-12)
        assert sol.max_inequality_violation == pytest.approx(ineq_v, abs=1e-12)
        if sol.converged:
            assert max(eq, ineq_v) <= 1e-4

    def test_first_step_within_trust_radius(self):
        obj = QuadraticFunction(hessian_matrix=np.array([[2.0]]), linear=np.array([-20.0]))
        problem = NlpProblem(dim=1, objective=obj, x0=np.zeros(1))
        opts = SolverOptions(max_outer_iterations=1)
        sol = solve(problem, opts)
        assert abs(sol.point[0]) <= 0.1 + 1e-9

    def test_keepout_disc_tangent_point(self):
        # Pull toward a point inside a keep-out disc; the solution must stop
        # on the boundary along the center-to-target ray.
        target = np.array([0.5, 0.0])
        obj = QuadraticFunction(hessian_matrix=2.0 * np.eye(2), linear=-2.0 * target)

        def keepout(x):
            r = np.linalg.norm(x)
            return np.array([1.0 - r]), (-x / r).reshape(1, 2)

        problem = NlpProblem(
            dim=2,
            objective=obj,
            inequalities=keepout,
            x0=np.array([2.0, 0.0]),
        )
        sol = solve(problem, SolverOptions(max_outer_iterations=100))
        assert sol.converged
        np.testing.assert_allclose(sol.point, [1.0, 0.0], atol=1e-4)

    def test_iteration_limit_returns_not_converged(self):
        # Contradictory inequalities: x <= -1 and x >= 1.
        obj = QuadraticFunction(hessian_matrix=np.array([[2.0]]), linear=np.zeros(1))
        a_in = np.array([[1.0], [-1.0]])
        b_in = np.array([-1.0, -1.0])

        def ineq(x):
            return a_in @ x - b_in, a_in

        problem = NlpProblem(
            dim=1, objective=obj,
            inequalities=ineq, x0=np.zeros(1),
        )
        sol = solve(problem, SolverOptions(max_outer_iterations=5))
        assert not sol.converged
        assert sol.max_inequality_violation > 0.0

    def test_nan_objective_raises(self):
        bad = QuadraticFunction(hessian_matrix=np.eye(1), linear=np.zeros(1), constant=math.nan)
        problem = NlpProblem(dim=1, objective=bad, x0=np.zeros(1))
        with pytest.raises(EvaluatorError, match="objective produced"):
            solve(problem)

    @pytest.mark.parametrize("where", ["hessian", "linear"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_objective_array_raises(self, where, value):
        hessian, linear = 2.0 * np.eye(2), np.zeros(2)
        (hessian if where == "hessian" else linear)[-1] = value
        rows = []

        def keepout(x):
            rows.append(x)
            return np.array([1.0 - x[0]]), -np.eye(1, 2)

        problem = NlpProblem(dim=2, objective=QuadraticFunction(hessian_matrix=hessian, linear=linear),
                             inequalities=keepout, x0=np.zeros(2))
        with pytest.raises(EvaluatorError, match=f"objective {where}"):
            solve(problem)
        assert rows == []  # checked before any point is evaluated

    def test_asymmetric_hessian_rejected(self):
        # rejected, not quietly solved as its symmetric part [[2, 0.5], [0.5, 2]]
        obj = QuadraticFunction(hessian_matrix=np.array([[2.0, 1.0], [0.0, 2.0]]), linear=np.zeros(2))
        with pytest.raises(ConfigError, match="symmetric"):
            solve(NlpProblem(dim=2, objective=obj, x0=np.zeros(2)))

    def test_hessian_of_wrong_shape_rejected(self):
        obj = QuadraticFunction(hessian_matrix=np.eye(3), linear=np.zeros(2))
        with pytest.raises(ConfigError, match=r"\(2, 2\)"):
            solve(NlpProblem(dim=2, objective=obj, x0=np.zeros(2)))

    def test_nan_inequality_raises(self):
        obj = QuadraticFunction(hessian_matrix=np.eye(1), linear=np.zeros(1))

        def bad(x):
            return np.array([np.nan]), np.zeros((1, 1))

        problem = NlpProblem(dim=1, objective=obj, inequalities=bad, x0=np.zeros(1))
        with pytest.raises(EvaluatorError):
            solve(problem)

    @pytest.mark.parametrize("fields, error, match", [
        (dict(a_eq=np.ones((1, 3)), b_eq=np.zeros(1)), ConfigError, "a_eq"),
        (dict(a_eq=np.ones((1, 2)), b_eq=np.zeros(2)), ConfigError, "b_eq"),
        (dict(a_eq=np.ones((1, 2))), ConfigError, "b_eq"),
        (dict(lower=np.zeros(3)), ConfigError, "lower"),
        (dict(upper=np.zeros((2, 1))), ConfigError, "upper"),
        (dict(inequalities=lambda x: (np.zeros((1, 1)), np.zeros((1, 2)))), EvaluatorError, "values"),
        (dict(inequalities=lambda x: (np.zeros(1), np.zeros((1, 3)))), EvaluatorError, "jacobian"),
        (dict(inequalities=lambda x: (np.zeros(1), np.zeros(2))), EvaluatorError, "jacobian"),
        (dict(objective=QuadraticFunction(hessian_matrix=np.eye(2), linear=np.zeros(3))), ConfigError, "linear"),
        (dict(objective=QuadraticFunction(hessian_matrix=np.eye(2), linear=np.zeros((2, 1)))), ConfigError, "linear"),
        # a (1, 1) block acts on both coordinates: one row of it holds one value per coordinate
        (dict(objective=QuadraticFunction(hessian_matrix=np.eye(1), linear=np.zeros(2)), a_eq=np.ones((1, 1)),
              b_eq=np.zeros(1)), ConfigError, "b_eq"),
        (dict(lower=np.ones(2), upper=np.zeros(2)), ConfigError, "lower"),
        (dict(lower=np.array([np.nan, 0.0])), ConfigError, "lower"),
        (dict(upper=np.array([0.0, np.nan])), ConfigError, "upper"),
    ])
    def test_malformed_problem_raises_a_named_error(self, fields, error, match):
        # each would otherwise surface as numpy's own ValueError from deep in
        # the loop, a solve that leaves its own bounds, or a blamed objective
        fields = {"objective": QuadraticFunction(hessian_matrix=np.eye(2), linear=np.zeros(2)), **fields}
        with pytest.raises(error, match=match):
            solve(NlpProblem(dim=2, x0=np.zeros(2), **fields))

    def test_bad_options_rejected(self):
        with pytest.raises(ConfigError):
            SolverOptions(max_outer_iterations=0)
        with pytest.raises(ConfigError):
            SolverOptions(feasibility_tolerance=-1.0)

    @pytest.mark.parametrize("name", ["feasibility_tolerance", "step_tolerance"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_options_rejected(self, name, value):
        with pytest.raises(ConfigError, match=f"{name} must be finite"):
            SolverOptions(**{name: value})

    # The SCP schedule is fixed, but nlp.check_schedule guards its ranges at
    # import; each test below patches one constant and calls the check.
    @pytest.mark.parametrize("value", [0.0, -1e-10, math.inf, math.nan])
    def test_prox_regularization_range(self, value, monkeypatch):
        monkeypatch.setattr(nlp, "PROX_REGULARIZATION", value)
        with pytest.raises(ConfigError, match="PROX_REGULARIZATION"):
            nlp.check_schedule()

    @pytest.mark.parametrize("value", [0.999, 0.0, -2.0, math.nan])
    def test_trust_expand_range(self, value, monkeypatch):
        monkeypatch.setattr(nlp, "TRUST_EXPAND", value)
        with pytest.raises(ConfigError, match="TRUST_EXPAND"):
            nlp.check_schedule()

    @pytest.mark.parametrize("value", [0.0, 1.0, 2.0, -0.5, math.nan])
    def test_trust_shrink_range(self, value, monkeypatch):
        monkeypatch.setattr(nlp, "TRUST_SHRINK", value)
        with pytest.raises(ConfigError, match="TRUST_SHRINK"):
            nlp.check_schedule()

    @pytest.mark.parametrize("value", [0.0, -0.1, 0.8, math.nan])
    def test_ratio_bad_range(self, value, monkeypatch):
        # 0.8 exceeds RATIO_GOOD 0.75
        monkeypatch.setattr(nlp, "RATIO_BAD", value)
        with pytest.raises(ConfigError, match="RATIO_BAD"):
            nlp.check_schedule()

    @pytest.mark.parametrize("value", [1.0, 1.5, 0.2, math.nan])
    def test_ratio_good_range(self, value, monkeypatch):
        # 0.2 is below RATIO_BAD 0.25
        monkeypatch.setattr(nlp, "RATIO_GOOD", value)
        with pytest.raises(ConfigError, match="RATIO_GOOD"):
            nlp.check_schedule()

    @pytest.mark.parametrize("value", [0.0, -1.0, 20.0, math.nan])
    def test_min_trust_radius_range(self, value, monkeypatch):
        # 20 exceeds MAX_TRUST_RADIUS 16
        monkeypatch.setattr(nlp, "MIN_TRUST_RADIUS", value)
        with pytest.raises(ConfigError, match="MIN_TRUST_RADIUS"):
            nlp.check_schedule()

    @pytest.mark.parametrize("value", [math.inf, 1e-11, math.nan])
    def test_max_trust_radius_range(self, value, monkeypatch):
        # 1e-11 is below MIN_TRUST_RADIUS 1e-10
        monkeypatch.setattr(nlp, "MAX_TRUST_RADIUS", value)
        with pytest.raises(ConfigError, match="MAX_TRUST_RADIUS"):
            nlp.check_schedule()

    @pytest.mark.parametrize("value", [1.0, 0.5, -10.0, math.nan])
    def test_penalty_growth_range(self, value, monkeypatch):
        monkeypatch.setattr(nlp, "PENALTY_GROWTH", value)
        with pytest.raises(ConfigError, match="PENALTY_GROWTH"):
            nlp.check_schedule()

    @pytest.mark.parametrize("name", ["INITIAL_TRUST_RADIUS", "INITIAL_PENALTY", "PENALTY_CAP"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_schedule_rejected(self, name, value, monkeypatch):
        monkeypatch.setattr(nlp, name, value)
        with pytest.raises(ConfigError, match=f"{name} must be finite"):
            nlp.check_schedule()

    def test_range_edges_accepted(self, monkeypatch):
        nlp.check_schedule()  # the shipped schedule
        for name, value in (("TRUST_EXPAND", 1.0), ("RATIO_BAD", 0.5), ("RATIO_GOOD", 0.5),
                            ("MIN_TRUST_RADIUS", 2.0), ("MAX_TRUST_RADIUS", 2.0)):
            monkeypatch.setattr(nlp, name, value)
        nlp.check_schedule()

    def test_base_factored_once_per_solve(self, monkeypatch):
        # The objective is quadratic, its Hessian the same at every point, so
        # the base KKT matrix is factored once however many SCP iterations run.
        factored = []
        real = nlp.kkt_inverse

        def counting(hessian, *args, **kwargs):
            factored.append(hessian.shape)
            return real(hessian, *args, **kwargs)

        monkeypatch.setattr(nlp, "kkt_inverse", counting)
        target = np.array([0.5, 0.0])
        obj = QuadraticFunction(hessian_matrix=2.0 * np.eye(2), linear=-2.0 * target)

        def keepout(x):
            r = np.linalg.norm(x)
            return np.array([1.0 - r]), (-x / r).reshape(1, 2)

        problem = NlpProblem(
            dim=2, objective=obj,
            inequalities=keepout, x0=np.array([2.0, 0.0]),
        )
        sol = solve(problem, SolverOptions(max_outer_iterations=100))
        assert sol.converged
        assert sol.iterations > 1
        assert factored == [(2, 2)]

    def test_each_point_evaluated_once(self):
        # One evaluation at x0 and one per trial point: no point is visited
        # twice, and a stationary-model iteration evaluates nothing.
        target = np.array([0.5, 0.0])
        obj = QuadraticFunction(hessian_matrix=2.0 * np.eye(2), linear=-2.0 * target)
        visited = []

        def keepout(x):
            visited.append(x.copy())
            r = np.linalg.norm(x)
            return np.array([1.0 - r]), (-x / r).reshape(1, 2)

        problem = NlpProblem(
            dim=2, objective=obj,
            inequalities=keepout, x0=np.array([2.0, 0.0]),
        )
        sol = solve(problem, SolverOptions(max_outer_iterations=100))
        assert sol.converged
        assert 2 <= len(visited) <= 1 + sol.iterations
        assert len({p.tobytes() for p in visited}) == len(visited)
        np.testing.assert_array_equal(visited[0], [2.0, 0.0])

    def test_bad_x0_shape_rejected(self):
        obj = QuadraticFunction(hessian_matrix=np.eye(2), linear=np.zeros(2))
        problem = NlpProblem(dim=2, objective=obj, x0=np.zeros(3))
        with pytest.raises(ConfigError):
            solve(problem)


class TestSegmentLayout:
    def test_pack_round_trip(self, rng):
        scenario = point_scenario(n=6)
        layout = segment_layout(scenario, 1, 4)
        assert layout.count == 4
        assert layout.state_dim == 4
        assert layout.size == 16
        pos = rng.normal(size=(4, 2))
        vel = rng.normal(size=(4, 2))
        x = layout.pack(pos, vel)
        np.testing.assert_allclose(layout.positions(x), pos, atol=0.0)
        np.testing.assert_allclose(layout.velocities(x), vel, atol=0.0)

    def test_path_only_layout(self, rng):
        scenario = point_scenario(n=6, dynamics=False)
        layout = segment_layout(scenario, 0, 5)
        assert layout.state_dim == 2
        assert layout.size == 12
        pos = rng.normal(size=(6, 2))
        x = layout.pack(pos, np.zeros((6, 2)))
        np.testing.assert_allclose(layout.positions(x), pos, atol=0.0)
        with pytest.raises(ConfigError):
            layout.velocity_slice(0)

    def test_out_of_range_segment(self):
        scenario = point_scenario(n=5)
        with pytest.raises(ConfigError):
            segment_layout(scenario, 0, 5)
        with pytest.raises(ConfigError):
            segment_layout(scenario, -1, 3)
        with pytest.raises(ConfigError):
            segment_layout(scenario, 3, 2)


class TestSegmentObjective:
    def test_dynamics_cost_is_summed_squared_velocity(self, rng):
        scenario = point_scenario(n=4)
        layout = segment_layout(scenario, 0, 3)
        obj = build_segment_objective(scenario, 0, 3)
        pos = rng.normal(size=(4, 2))
        vel = rng.normal(size=(4, 2))
        assert obj.value(layout.pack(pos, vel)) == pytest.approx(float(np.sum(vel * vel)), abs=1e-12)

    def test_path_cost_is_finite_difference_velocity(self, rng):
        scenario = point_scenario(n=3, dynamics=False, dt=0.5)
        layout = segment_layout(scenario, 0, 2)
        obj = build_segment_objective(scenario, 0, 2)
        pos = rng.normal(size=(3, 2))
        want = float(np.sum((np.diff(pos, axis=0) / 0.5) ** 2))
        assert obj.value(layout.pack(pos, np.zeros((3, 2)))) == pytest.approx(want, abs=1e-12)

    def test_split_cost_partition(self, rng):
        # Summed segment objectives with the split waypoint at its consensus
        # target reproduce the monolithic cost: the split state is half-paid
        # by each side and the coupling terms vanish at the target.
        scenario = point_scenario(n=5)
        pos = rng.normal(size=(5, 2))
        vel = rng.normal(size=(5, 2))
        full_layout = segment_layout(scenario, 0, 4)
        mono = build_segment_objective(scenario, 0, 4).value(full_layout.pack(pos, vel))

        z = np.concatenate([pos[2], vel[2]])
        y = rng.normal(size=4)
        rho = 3.7
        left_layout = segment_layout(scenario, 0, 2)
        right_layout = segment_layout(scenario, 2, 4)
        left = build_segment_objective(
            scenario, 0, 2, couplings=(ConsensusCoupling(waypoint=2, dual=y, target=z),), rho=rho
        )
        right = build_segment_objective(
            scenario, 2, 4, couplings=(ConsensusCoupling(waypoint=0, dual=-y, target=z),), rho=rho
        )
        total = left.value(left_layout.pack(pos[0:3], vel[0:3])) + right.value(
            right_layout.pack(pos[2:5], vel[2:5])
        )
        assert total == pytest.approx(mono, abs=1e-12)

    def test_split_cost_with_consensus_gap(self, rng):
        # Opposite duals cancel; only the quadratic penalty remains.
        scenario = point_scenario(n=5)
        pos = rng.normal(size=(5, 2))
        vel = rng.normal(size=(5, 2))
        full_layout = segment_layout(scenario, 0, 4)
        mono = build_segment_objective(scenario, 0, 4).value(full_layout.pack(pos, vel))

        gap = rng.normal(size=4)
        z = np.concatenate([pos[2], vel[2]]) + gap
        y = rng.normal(size=4)
        rho = 2.5
        left = build_segment_objective(
            scenario, 0, 2, couplings=(ConsensusCoupling(waypoint=2, dual=y, target=z),), rho=rho
        )
        right = build_segment_objective(
            scenario, 2, 4, couplings=(ConsensusCoupling(waypoint=0, dual=-y, target=z),), rho=rho
        )
        left_layout = segment_layout(scenario, 0, 2)
        right_layout = segment_layout(scenario, 2, 4)
        total = left.value(left_layout.pack(pos[0:3], vel[0:3])) + right.value(
            right_layout.pack(pos[2:5], vel[2:5])
        )
        assert total == pytest.approx(mono + rho * float(gap @ gap), abs=1e-12)

    def test_coupling_vanishes_at_target(self, rng):
        scenario = point_scenario(n=4)
        layout = segment_layout(scenario, 0, 3)
        pos = rng.normal(size=(4, 2))
        vel = rng.normal(size=(4, 2))
        x = layout.pack(pos, vel)
        z = np.concatenate([pos[3], vel[3]])
        y = rng.normal(size=4)
        plain = build_segment_objective(scenario, 0, 3)
        coupled = build_segment_objective(
            scenario, 0, 3, couplings=(ConsensusCoupling(waypoint=3, dual=y, target=z),), rho=4.0
        )
        # split waypoint pays half its velocity cost once coupled
        half = 0.5 * float(vel[3] @ vel[3])
        assert coupled.value(x) == pytest.approx(plain.value(x) - half, abs=1e-12)

    def test_doubling_rho_doubles_penalty(self, rng):
        scenario = point_scenario(n=4)
        layout = segment_layout(scenario, 0, 3)
        pos = rng.normal(size=(4, 2))
        vel = rng.normal(size=(4, 2))
        x = layout.pack(pos, vel)
        z = rng.normal(size=4)
        y = rng.normal(size=4)
        gap = np.concatenate([pos[3], vel[3]]) - z
        low = build_segment_objective(
            scenario, 0, 3, couplings=(ConsensusCoupling(waypoint=3, dual=y, target=z),), rho=1.5
        )
        high = build_segment_objective(
            scenario, 0, 3, couplings=(ConsensusCoupling(waypoint=3, dual=y, target=z),), rho=3.0
        )
        assert high.value(x) - low.value(x) == pytest.approx(0.75 * float(gap @ gap), abs=1e-12)

    def test_coupling_outside_segment_rejected(self):
        scenario = point_scenario(n=5)
        with pytest.raises(ConfigError):
            build_segment_objective(
                scenario, 0, 2,
                couplings=(ConsensusCoupling(waypoint=3, dual=np.zeros(4), target=np.zeros(4)),),
                rho=1.0,
            )


class TestSegmentConstraints:
    def test_equalities_hold_on_rollout(self):
        # Rest-to-rest rollout: zero boundary velocities satisfy the pins,
        # interior velocities carry the displacement.
        scenario = point_scenario(n=5, dt=0.3)
        layout = segment_layout(scenario, 0, 4)
        a_eq, b_eq = segment_equalities(scenario, 0, 4)
        span = scenario.goal.position - scenario.start.position
        vel = np.zeros((5, 2))
        vel[1:4] = span / (3 * 0.3)
        pos = np.zeros((5, 2))
        pos[0] = scenario.start.position
        for k in range(4):
            pos[k + 1] = pos[k] + 0.3 * vel[k]
        np.testing.assert_allclose(pos[4], scenario.goal.position, atol=1e-12)
        x = layout.pack(pos, vel)
        np.testing.assert_allclose(dense(a_eq, 2) @ x, b_eq, atol=1e-12)

    def test_equality_row_counts(self):
        scenario = point_scenario(n=5)
        d = 2
        a_eq, _ = segment_equalities(scenario, 0, 4)
        # 4 dynamics edges + start pos/vel pins + goal pos/vel pins
        assert a_eq.shape[0] * d == 4 * d + 2 * d + 2 * d
        a_mid, _ = segment_equalities(scenario, 1, 3)
        assert a_mid.shape[0] * d == 2 * d  # interior segment: dynamics only
        a_first, _ = segment_equalities(scenario, 0, 2)
        assert a_first.shape[0] * d == 2 * d + 2 * d  # dynamics + start pins only

    @pytest.mark.parametrize("dynamics, stride", [(True, 2), (False, 1)])
    def test_segment_matrices_are_one_coordinates_block(self, dynamics, stride):
        # a state of `stride` entries per waypoint, as for a one-dimensional robot
        scenario = point_scenario(n=5, dynamics=dynamics)
        a_eq, b_eq = segment_equalities(scenario, 0, 3)
        assert build_segment_objective(scenario, 0, 3).hessian_matrix.shape == (4 * stride, 4 * stride)
        assert a_eq.shape[1] == 4 * stride and b_eq.shape == (a_eq.shape[0] * 2,)

    def test_first_segment_pins_start_not_split(self):
        scenario = point_scenario(n=5)
        layout = segment_layout(scenario, 0, 2)
        a_eq, b_eq = segment_equalities(scenario, 0, 2)
        a_eq = dense(a_eq, 2)
        # every pin row touches waypoint 0, never the last waypoint
        pin_rows = [r for r in range(a_eq.shape[0]) if np.count_nonzero(a_eq[r]) == 1]
        assert pin_rows
        last_slice = layout.state_slice(2)
        for r in pin_rows:
            col = int(np.nonzero(a_eq[r])[0][0])
            assert not (last_slice.start <= col < last_slice.stop)

    def test_dynamics_row_shape(self):
        scenario = point_scenario(n=4, dt=0.5)
        a_eq, b_eq = segment_equalities(scenario, 1, 2)  # interior edge, no pins
        a_eq = dense(a_eq, 2)
        layout = segment_layout(scenario, 1, 2)
        assert a_eq.shape == (2, layout.size)
        # q1 - q0 - dt v0 = 0 per dimension
        for i in range(2):
            row = a_eq[i]
            assert row[layout.position_slice(1)][i] == 1.0
            assert row[layout.position_slice(0)][i] == -1.0
            assert row[layout.velocity_slice(0)][i] == -0.5
            assert b_eq[i] == 0.0

    def test_bounds_from_joint_limits(self):
        arm = PlanarArm(
            link_lengths=(1.0, 1.0),
            link_radius=0.05,
            joint_limits=np.array([[-1.0, 2.0], [-0.5, 0.5]]),
        )
        scenario = Scenario(
            robot=arm, obstacles=(), start=RobotState.resting((0.0, 0.0)),
            goal=RobotState.resting((0.5, 0.2)), num_waypoints=3, dt=0.1, safety_margin=0.0,
        )
        layout = segment_layout(scenario, 0, 2)
        lo, hi = segment_bounds(scenario, layout)
        for k in range(3):
            np.testing.assert_allclose(lo[layout.position_slice(k)], [-1.0, -0.5], atol=0.0)
            np.testing.assert_allclose(hi[layout.position_slice(k)], [2.0, 0.5], atol=0.0)
            assert np.all(np.isinf(lo[layout.velocity_slice(k)]))
            assert np.all(np.isinf(hi[layout.velocity_slice(k)]))

    def test_no_limits_no_bounds(self):
        scenario = point_scenario()
        layout = segment_layout(scenario, 0, 4)
        assert segment_bounds(scenario, layout) == (None, None)


class TestSolveRows:
    def test_older_large_jacobians_return_bit_for_bit_without_a_second_evaluation(self):
        # rows of COMPACT_BYTES or more are kept as their entries that are not +0.0
        # once a newer point is evaluated; -0.0 entries survive, and no point is evaluated twice
        n = nlp.COMPACT_BYTES // 8
        evaluated = []

        def rows(x):
            evaluated.append(x.copy())
            jac = np.zeros((3, n))
            jac[:, : x.size] = x
            jac[1, -1] = -0.0
            return x[:3] - 1.0, jac

        solve_rows = nlp.SolveRows(rows)
        points = [np.full(4, float(k)) for k in range(3)]
        first = [(vals.copy(), jac.copy()) for vals, jac in (solve_rows(x) for x in points)]
        for x, (vals, jac) in zip(points, first):
            again_vals, again_jac = solve_rows(x)
            assert again_vals.tobytes() == vals.tobytes() and again_jac.tobytes() == jac.tobytes()
        assert solve_rows.at(points[0])[1][1].tobytes() == first[0][1].tobytes()
        assert len(evaluated) == 3


class TestConvexifySegment:
    def test_no_nearby_obstacle_no_rows(self):
        scenario = point_scenario(n=3, obstacles=[Circle((100.0, 0.0), 1.0)])
        layout = segment_layout(scenario, 0, 2)
        x0 = layout.pack(np.zeros((3, 2)), np.zeros((3, 2)))
        problem = convexify_segment(scenario, 0, 2, x0)
        vals, jac = problem.inequalities(x0)
        assert vals.shape == (0,)
        assert jac.shape == (0, layout.size)

    def test_single_active_row_structure(self):
        # Margin chosen so the activation band (3*margin + 0.2) reaches the
        # unit-distance pair; the one surviving row is the affine surrogate
        # margin - sd0 + (-gradient) . dq <= 0.
        margin = 0.3
        obstacle = Circle((2.0, 0.0), 1.0)
        scenario = Scenario(
            robot=Point2D(), obstacles=(obstacle,),
            start=RobotState.resting((0.0, 0.0)), goal=RobotState.resting((0.0, 0.0)),
            num_waypoints=2, dt=0.5, safety_margin=margin,
        )
        layout = segment_layout(scenario, 0, 0)
        x0 = layout.pack(np.zeros((1, 2)), np.zeros((1, 2)))
        problem = convexify_segment(scenario, 0, 0, x0)
        vals, jac = problem.inequalities(x0)
        assert vals.shape == (1,)
        assert vals[0] == pytest.approx(margin - 1.0, abs=1e-12)
        np.testing.assert_allclose(jac[0][layout.position_slice(0)], [1.0, 0.0], atol=1e-12)

    def test_values_match_true_distances(self, rng):
        scenario = point_scenario(
            n=3, obstacles=[Circle((2.0, 1.0), 0.8), Circle((-1.0, -1.0), 0.5)], margin=0.1
        )
        layout = segment_layout(scenario, 0, 2)
        pos = rng.normal(size=(3, 2))
        x = layout.pack(pos, np.zeros((3, 2)))
        want = []
        for k in range(3):
            for j in range(2):
                want.append(0.1 - pair_distance(scenario, pos[k], 0, j).value)
        full = 0.1 - clearances(scenario, layout.positions(x)).ravel()
        np.testing.assert_allclose(full, want, atol=1e-12)

    def test_row_values_exact_at_linearization_point(self, rng):
        scenario = point_scenario(n=3, obstacles=[Circle((1.0, 0.5), 0.6)], margin=0.1)
        layout = segment_layout(scenario, 0, 2)
        pos = rng.uniform(-0.5, 2.0, size=(3, 2))
        x = layout.pack(pos, np.zeros((3, 2)))
        problem = convexify_segment(scenario, 0, 2, x)
        rows_vals, _ = problem.inequalities(x)
        full = 0.1 - clearances(scenario, layout.positions(x)).ravel()
        active = full[full >= rows_vals.min() - 1e-12] if rows_vals.size else full
        # every emitted row value appears among the true constraint values
        for v in rows_vals:
            assert np.min(np.abs(full - v)) <= 1e-12
        assert active.size >= rows_vals.size

    def test_monolithic_solve_matches_closed_form(self):
        # No obstacles: quadratic objective + affine dynamics, so the SCP
        # wrapper must land on the unique equality-constrained optimum.
        scenario = point_scenario(n=3, dt=1.0)
        layout = segment_layout(scenario, 0, 2)
        from trajsplit.model import straight_line_init

        init = straight_line_init(scenario)
        x0 = layout.pack(init.positions(), init.velocities())
        problem = convexify_segment(scenario, 0, 2, x0)
        sol = solve(problem, SolverOptions(max_outer_iterations=100))
        assert sol.converged
        obj = build_segment_objective(scenario, 0, 2)
        ref_x, ok = solve_qp(
            dense(obj.hessian_matrix, 2) + 1e-12 * np.eye(layout.size), obj.linear,
            dense(problem.a_eq, 2), problem.b_eq, np.zeros((0, layout.size)), np.zeros(0),
        )
        assert ok
        np.testing.assert_allclose(sol.point, ref_x, atol=1e-6)
