import math

import numpy as np
import pytest

from smallpoly.geometry import AngleVector
from smallpoly.solver import (
    BoxProblem,
    BracketError,
    InfeasibleError,
    NlpProblem,
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
        problem = BoxProblem(lower=(0.0,), upper=(1.0,), objective=lambda v: -(v[0] - 0.3) ** 2)
        x, val, diag = maximize_box(problem, (0.9,))
        assert x[0] == pytest.approx(0.3, abs=1e-8)
        assert diag.converged

    def test_quadratic_2d(self):
        problem = BoxProblem(
            lower=(-1.0, -1.0),
            upper=(1.0, 1.0),
            objective=lambda v: -(v[0] ** 2) - 2 * v[1] ** 2,
        )
        x, val, _ = maximize_box(problem, (0.7, -0.6))
        assert np.max(np.abs(x)) < 1e-8

    def test_bound_active(self):
        problem = BoxProblem(lower=(0.0,), upper=(2.0,), objective=lambda v: v[0])
        x, val, _ = maximize_box(problem, (0.1,))
        assert x[0] == pytest.approx(2.0, abs=1e-12)

    def test_analytic_gradient_path(self):
        problem = BoxProblem(
            lower=(-2.0, -2.0),
            upper=(2.0, 2.0),
            objective=lambda v: -(v[0] - 1) ** 2 - (v[1] + 0.5) ** 2,
            gradient=lambda v: np.array([-2 * (v[0] - 1), -2 * (v[1] + 0.5)]),
        )
        x, _, _ = maximize_box(problem, (0.0, 0.0))
        assert x == pytest.approx([1.0, -0.5], abs=1e-10)

    def test_deterministic(self):
        problem = BoxProblem(
            lower=(0.0, 0.0),
            upper=(1.0, 1.0),
            objective=lambda v: math.sin(3 * v[0]) * math.cos(2 * v[1]),
            multistart_seeds=(0, 1, 2),
        )
        x1, v1, _ = maximize_box(problem, (0.5, 0.5))
        x2, v2, _ = maximize_box(problem, (0.5, 0.5))
        assert tuple(x1) == tuple(x2) and v1 == v2

    def test_bad_bounds(self):
        with pytest.raises(ValueError):
            BoxProblem(lower=(1.0,), upper=(0.0,), objective=lambda v: 0.0)


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
            NlpProblem(514)
