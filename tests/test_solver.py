import math

import numpy as np
import pytest

from smallpoly.geometry import AngleVector
from smallpoly.solver import (
    AREA_TIE,
    BoxProblem,
    BracketError,
    InfeasibleError,
    brentq,
    constraint_jacobian,
    constraint_values,
    lagrangian_hessian,
    maximize_box,
    nlp_objective,
    objective_gradient,
    solve_full_nlp,
)


class TestBrentq:
    def test_cubic_root(self):
        root = brentq(lambda x: x**3 - 2 * x - 5, 2.0, 3.0)
        assert root == pytest.approx(2.0945514815423265, abs=1e-14)

    def test_linear(self):
        assert brentq(lambda x: 3 * x - 1.5, -1.0, 1.0) == pytest.approx(0.5, abs=1e-15)

    def test_no_sign_change(self):
        with pytest.raises(BracketError):
            brentq(lambda x: x * x + 1.0, -1.0, 1.0)

    def test_endpoint_root(self):
        assert brentq(lambda x: x, 0.0, 1.0) == 0.0


class TestMaximizeBox:
    def test_quadratic_1d(self):
        problem = BoxProblem(
            lower=(0.0,),
            upper=(1.0,),
            objective=lambda v: -(v[0] - 0.3) ** 2,
            derivatives=lambda v: (np.array([-2 * (v[0] - 0.3)]), np.array([[-2.0]])),
        )
        x, val, diag = maximize_box(problem, (0.9,))
        assert x[0] == pytest.approx(0.3, abs=1e-8)
        assert diag.converged

    def test_quadratic_2d(self):
        problem = BoxProblem(
            lower=(-1.0, -1.0),
            upper=(1.0, 1.0),
            objective=lambda v: -(v[0] ** 2) - 2 * v[1] ** 2,
            derivatives=lambda v: (np.array([-2 * v[0], -4 * v[1]]), np.diag([-2.0, -4.0])),
        )
        x, val, _ = maximize_box(problem, (0.7, -0.6))
        assert np.max(np.abs(x)) < 1e-8

    def test_bound_active(self):
        problem = BoxProblem(
            lower=(0.0,),
            upper=(2.0,),
            objective=lambda v: v[0],
            derivatives=lambda v: (np.array([1.0]), np.zeros((1, 1))),
        )
        x, val, diag = maximize_box(problem, (0.1,))
        assert x[0] == pytest.approx(2.0, abs=1e-12)
        assert diag.converged

    def test_bound_held_while_others_move(self):
        # the maximum sits on the lower bound of v[1]; v[0] is interior
        problem = BoxProblem(
            lower=(-1.0, 0.0),
            upper=(1.0, 1.0),
            objective=lambda v: -(v[0] - 0.25) ** 2 - (v[1] + 0.5) ** 2 + v[0] * v[1],
            derivatives=lambda v: (
                np.array([-2 * (v[0] - 0.25) + v[1], -2 * (v[1] + 0.5) + v[0]]),
                np.array([[-2.0, 1.0], [1.0, -2.0]]),
            ),
        )
        x, _, diag = maximize_box(problem, (0.9, 0.8))
        assert x[1] == 0.0
        assert x[0] == pytest.approx(0.25, abs=1e-12)
        assert diag.converged

    def test_analytic_gradient_path(self):
        problem = BoxProblem(
            lower=(-2.0, -2.0),
            upper=(2.0, 2.0),
            objective=lambda v: -(v[0] - 1) ** 2 - (v[1] + 0.5) ** 2,
            derivatives=lambda v: (
                np.array([-2 * (v[0] - 1), -2 * (v[1] + 0.5)]),
                -2.0 * np.eye(2),
            ),
        )
        x, _, _ = maximize_box(problem, (0.0, 0.0))
        assert x == pytest.approx([1.0, -0.5], abs=1e-10)

    def test_deterministic(self):
        f = lambda v: math.sin(3 * v[0]) * math.cos(2 * v[1])

        def derivatives(v):
            s0, c0 = math.sin(3 * v[0]), math.cos(3 * v[0])
            s1, c1 = math.sin(2 * v[1]), math.cos(2 * v[1])
            g = np.array([3 * c0 * c1, -2 * s0 * s1])
            return g, np.array([[-9 * s0 * c1, -6 * c0 * s1], [-6 * c0 * s1, -4 * s0 * c1]])

        problem = BoxProblem(
            lower=(0.0, 0.0),
            upper=(1.0, 1.0),
            objective=f,
            derivatives=derivatives,
            multistart_seeds=(0, 1, 2),
        )
        x1, v1, _ = maximize_box(problem, (0.5, 0.5))
        x2, v2, _ = maximize_box(problem, (0.5, 0.5))
        assert tuple(x1) == tuple(x2) and v1 == v2
        assert v1 == pytest.approx(1.0, abs=1e-12)

    def test_bad_bounds(self):
        with pytest.raises(ValueError):
            BoxProblem(
                lower=(1.0,),
                upper=(0.0,),
                objective=lambda v: 0.0,
                derivatives=lambda v: (np.zeros(1), np.zeros((1, 1))),
            )

    def test_derivatives_required(self):
        with pytest.raises(TypeError):
            BoxProblem(lower=(0.0,), upper=(1.0,), objective=lambda v: 0.0)
        with pytest.raises(TypeError):
            BoxProblem(lower=(0.0,), upper=(1.0,), objective=lambda v: 0.0, derivatives=None)

    def test_winner_by_tolerance(self):
        # peaks at +-0.5 whose heights differ by 1e-14; seed 3 moves the
        # start 0.4 to about -0.43, into the other peak's basin
        problem = BoxProblem(
            lower=(-10.0,),
            upper=(10.0,),
            objective=lambda v: -((v[0] ** 2 - 0.25) ** 2) - 1e-14 * v[0],
            derivatives=lambda v: (
                np.array([-4 * v[0] * (v[0] ** 2 - 0.25) - 1e-14]),
                np.array([[1.0 - 12 * v[0] ** 2]]),
            ),
            multistart_seeds=(3,),
        )
        x, value, diag = maximize_box(problem, (0.4,))
        base, jittered = diag.start_values
        assert 0.0 < jittered - base <= AREA_TIE
        assert x[0] == pytest.approx(0.5, abs=1e-12) and value == base

    def test_reports_winner_convergence(self):
        # f' = v (v - 0.1): the base start sits on the upper bound, a lower
        # local maximum, and has converged; seed 3 moves it to about 0.03,
        # which climbs towards the higher maximum at 0 but stops unconverged
        # after one step, and wins
        def problem(max_iter):
            return BoxProblem(
                lower=(-2.0,),
                upper=(0.12,),
                objective=lambda v: v[0] ** 3 / 3 - 0.05 * v[0] ** 2,
                derivatives=lambda v: (
                    np.array([v[0] * (v[0] - 0.1)]),
                    np.array([[2 * v[0] - 0.1]]),
                ),
                max_iter=max_iter,
                multistart_seeds=(3,),
            )

        x, value, diag = maximize_box(problem(1), (0.12,))
        base, jittered = diag.start_values
        assert value == jittered > base
        assert not diag.converged
        x, value, diag = maximize_box(problem(300), (0.12,))
        assert diag.converged and x[0] == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("n", [120, 1000])
    def test_reduced_family_r16_converges(self, n):
        from smallpoly.reduced import derivatives, objective, parameter_bounds, start_vector

        lo, hi = parameter_bounds(n, 16)
        problem = BoxProblem(
            lower=lo,
            upper=hi,
            objective=lambda v: objective(n, 16, v),
            derivatives=lambda v: derivatives(n, 16, v),
            multistart_seeds=(0, 1),
        )
        _, _, diag = maximize_box(problem, start_vector(n, 16))
        assert diag.converged and diag.grad_norm <= 1e-8
        assert diag.multistart_spread <= 1e-12


class TestObjectiveGradient:
    def test_matches_finite_differences(self, feasible_sampler):
        for _ in range(20):
            _, angles = feasible_sampler()
            theta = np.array(angles.theta)
            g = objective_gradient(angles)
            fd = np.zeros(len(theta))
            h = 1e-6
            for i in range(len(theta)):
                tp, tm = theta.copy(), theta.copy()
                tp[i] += h
                tm[i] -= h
                fd[i] = (nlp_objective(tp) - nlp_objective(tm)) / (2 * h)
            assert np.max(np.abs(g - fd)) / np.max(np.abs(g)) <= 1e-6

    def test_apex_term(self):
        theta = np.array([math.pi / 10, math.pi / 5, math.pi / 5])
        g = objective_gradient(theta)
        # the apex triangle contributes sin(theta_0), hence cos(theta_0) here
        rest = lambda t: nlp_objective([t, theta[1], theta[2]]) - math.sin(t)
        h = 1e-6
        fd_rest = (rest(theta[0] + h) - rest(theta[0] - h)) / (2 * h)
        assert g[0] == pytest.approx(math.cos(theta[0]) + fd_rest, abs=1e-9)

    def test_accepts_angle_vector(self):
        av = AngleVector(6, (math.pi / 10, math.pi / 5, math.pi / 5))
        assert np.allclose(objective_gradient(av), objective_gradient(av.theta))

    def test_stationary_on_tangent_space(self):
        # at the constrained optimum the gradient lies in the row space of
        # the constraint Jacobian
        angles, _, _ = solve_full_nlp(6, multistart=1)
        theta = np.array(angles.theta)
        g = objective_gradient(theta)
        J = constraint_jacobian(theta, 6)
        proj = g - J.T @ np.linalg.solve(J @ J.T, J @ g)
        assert np.linalg.norm(proj) <= 1e-7


class TestConstraints:
    def test_feasible_point_residuals(self, feasible_sampler):
        _, angles = feasible_sampler()
        c = constraint_values(angles.theta, angles.n)
        assert np.max(np.abs(c)) < 1e-10

    def test_jacobian_matches_fd(self):
        theta = np.array([0.26, 0.45, 0.40, 0.46])
        J = constraint_jacobian(theta, 8)
        h = 1e-7
        for i in range(4):
            tp, tm = theta.copy(), theta.copy()
            tp[i] += h
            tm[i] -= h
            col = (constraint_values(tp, 8) - constraint_values(tm, 8)) / (2 * h)
            assert np.allclose(J[:, i], col, atol=1e-7)


def _lagrangian_gradient(theta, lam, n):
    return -objective_gradient(theta) + constraint_jacobian(theta, n).T @ lam


class TestLagrangianHessian:
    @pytest.mark.parametrize("n", [6, 20, 120, 512])
    def test_matches_fd_of_analytic_derivatives(self, n):
        rng = np.random.default_rng(n)
        theta = rng.uniform(0.01, 0.5, n // 2)
        lam = rng.standard_normal(2)
        H = lagrangian_hessian(theta, lam)
        fd = np.zeros_like(H)
        h = 1e-6
        for i in range(len(theta)):
            tp, tm = theta.copy(), theta.copy()
            tp[i] += h
            tm[i] -= h
            fd[:, i] = _lagrangian_gradient(tp, lam, n) - _lagrangian_gradient(tm, lam, n)
            fd[:, i] /= 2 * h
        assert np.max(np.abs(H - fd)) <= 1e-8 * max(1.0, np.max(np.abs(H)))
        assert np.max(np.abs(H - H.T)) <= 1e-12 * np.max(np.abs(H))

    @pytest.mark.parametrize("n", [6, 16, 100, 512])
    def test_solution_is_a_constrained_maximum(self, n):
        # -area + lam @ c has a positive definite Hessian on the tangent
        # space of the constraints, so the area has a strict local maximum
        angles, _, diag = solve_full_nlp(n, multistart=1)
        theta = np.array(angles.theta)
        _, _, vt = np.linalg.svd(constraint_jacobian(theta, n))
        Z = vt[2:].T
        reduced = Z.T @ lagrangian_hessian(theta, np.array(diag.multipliers)) @ Z
        assert np.min(np.linalg.eigvalsh(reduced)) > 0.0


class TestSolveFullNlp:
    def test_hexagon(self):
        angles, area, diag = solve_full_nlp(6, multistart=2)
        assert area == pytest.approx(0.6749814429, abs=1e-9)
        assert angles.theta == pytest.approx(
            (0.350930, 0.653342, 0.566524), abs=1e-6
        )
        assert diag.constraint_residual <= 1e-10
        assert diag.kkt_norm <= 1e-8

    def test_sixteen_gon(self):
        _, area, _ = solve_full_nlp(16, multistart=2)
        assert area == pytest.approx(0.7718613220, abs=1e-8)

    def test_hundred_gon(self):
        angles, area, _ = solve_full_nlp(100, multistart=1)
        assert area == pytest.approx(0.7850715895, abs=1e-8)
        # reference angles carry solver noise in the flattest direction,
        # so compare a touch looser than their printed precision
        assert angles.theta[0] == pytest.approx(0.0208046, abs=5e-6)
        assert angles.theta[1] == pytest.approx(0.0345883, abs=5e-6)

    def test_dominates_reduced_families(self):
        from smallpoly.reduced import construct_Q

        _, area, _ = solve_full_nlp(10, multistart=2)
        for r in (0, 1, 2, 3):
            _, report, _ = construct_Q(10, r, multistart=2)
            assert area >= report.area - 1e-9

    def test_deterministic(self):
        a1, v1, _ = solve_full_nlp(8, multistart=3, seed=7)
        a2, v2, _ = solve_full_nlp(8, multistart=3, seed=7)
        assert a1.theta == a2.theta and v1 == v2

    @pytest.mark.parametrize("n", [6, 14, 34, 120, 256, 512])
    def test_cold_start_from_r0_angles(self, n):
        # the closed-form r = 0 construction: alpha = pi/(2n-2), equal tail;
        # the same start perturbed by up to 20% per angle must also converge
        alpha = math.pi / (2 * n - 2)
        cold = np.array([alpha] + [2 * alpha] * (n // 2 - 1))
        perturbed = cold * (1.0 + 0.2 * np.random.default_rng(n).uniform(-1.0, 1.0, n // 2))
        _, warm_area, _ = solve_full_nlp(n, multistart=1)
        for start in (cold, perturbed):
            _, area, _ = solve_full_nlp(n, start=start, multistart=1)
            assert area == pytest.approx(warm_area, abs=1e-12)

    def test_newton_steps_per_start(self):
        _, _, base = solve_full_nlp(120, multistart=1)
        _, _, both = solve_full_nlp(120, multistart=2)
        assert 1 <= base.iterations <= 8
        assert 1 <= both.iterations - base.iterations <= 8
        assert both.nfev > base.nfev

    def test_base_start_wins_ties(self):
        base, base_area, _ = solve_full_nlp(256, multistart=1)
        angles, area, diag = solve_full_nlp(256, multistart=2)
        assert angles.theta == base.theta and area == base_area
        assert diag.multistart_spread <= 1e-12

    def test_explicit_start(self):
        start = AngleVector(6, (math.pi / 10, math.pi / 5, math.pi / 5))
        _, area, _ = solve_full_nlp(6, start=start, multistart=1)
        assert area == pytest.approx(0.6749814429, abs=1e-9)

    def test_unreachable_tolerance_raises(self):
        with pytest.raises(InfeasibleError) as err:
            solve_full_nlp(8, ctol=1e-30, ktol=1e-30, multistart=1)
        assert err.value.diagnostics is not None

    def test_domain(self):
        with pytest.raises(ValueError):
            solve_full_nlp(7)
        with pytest.raises(ValueError):
            solve_full_nlp(514)
