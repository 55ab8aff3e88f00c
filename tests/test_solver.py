import math

import numpy as np
import pytest

from smallpoly import geometry, solver
from smallpoly.geometry import AngleVector, area_hessian_s
from smallpoly.solver import (
    STOP_CONVERGED,
    STOP_MAX_STEPS,
    STOP_NO_DESCENT,
    STOP_SINGULAR,
    STOP_UNDEFINED,
    BoxProblem,
    BracketError,
    InfeasibleError,
    _newton,
    _nlp_evaluate,
    brentq,
    constraint_jacobian,
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


def _wave_problem(hessian_calls=None):
    """sin(3 v0) cos(2 v1) on the unit square: four Newton steps from (0.5, 0.5)."""

    def derivatives(v):
        s0, c0 = math.sin(3 * v[0]), math.cos(3 * v[0])
        s1, c1 = math.sin(2 * v[1]), math.cos(2 * v[1])

        def hessian():
            if hessian_calls is not None:
                hessian_calls.append(tuple(v))
            return np.array([[-9 * s0 * c1, -6 * c0 * s1], [-6 * c0 * s1, -4 * s0 * c1]])

        return np.array([3 * c0 * c1, -2 * s0 * s1]), hessian

    return BoxProblem(
        lower=(0.0, 0.0),
        upper=(1.0, 1.0),
        objective=lambda v: math.sin(3 * v[0]) * math.cos(2 * v[1]),
        derivatives=derivatives,
    )


class TestMaximizeBox:
    def test_quadratic_1d(self):
        problem = BoxProblem(
            lower=(0.0,),
            upper=(1.0,),
            objective=lambda v: -(v[0] - 0.3) ** 2,
            derivatives=lambda v: (np.array([-2 * (v[0] - 0.3)]), lambda: np.array([[-2.0]])),
        )
        x, val, diag = maximize_box(problem, (0.9,))
        assert x[0] == pytest.approx(0.3, abs=1e-8)
        assert diag.converged

    def test_quadratic_2d(self):
        problem = BoxProblem(
            lower=(-1.0, -1.0),
            upper=(1.0, 1.0),
            objective=lambda v: -(v[0] ** 2) - 2 * v[1] ** 2,
            derivatives=lambda v: (np.array([-2 * v[0], -4 * v[1]]), lambda: np.diag([-2.0, -4.0])),
        )
        x, val, _ = maximize_box(problem, (0.7, -0.6))
        assert np.max(np.abs(x)) < 1e-8

    def test_bound_active(self):
        problem = BoxProblem(
            lower=(0.0,),
            upper=(2.0,),
            objective=lambda v: v[0],
            derivatives=lambda v: (np.array([1.0]), lambda: np.zeros((1, 1))),
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
                lambda: np.array([[-2.0, 1.0], [1.0, -2.0]]),
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
                lambda: -2.0 * np.eye(2),
            ),
        )
        x, _, _ = maximize_box(problem, (0.0, 0.0))
        assert x == pytest.approx([1.0, -0.5], abs=1e-10)

    def test_deterministic(self):
        problem = _wave_problem()
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
                derivatives=lambda v: (np.zeros(1), lambda: np.zeros((1, 1))),
            )

    def test_derivatives_required(self):
        with pytest.raises(TypeError):
            BoxProblem(lower=(0.0,), upper=(1.0,), objective=lambda v: 0.0)
        with pytest.raises(TypeError):
            BoxProblem(lower=(0.0,), upper=(1.0,), objective=lambda v: 0.0, derivatives=None)

    def test_reports_unconverged_solve(self):
        # the objective is undefined everywhere, so the kernel takes no step
        problem = BoxProblem(
            lower=(0.0,),
            upper=(1.0,),
            objective=lambda v: -1.0,
            derivatives=lambda v: None,
        )
        x, value, diag = maximize_box(problem, (0.5,))
        assert x[0] == 0.5 and value == -1.0
        assert not diag.converged and diag.iterations == 0 and diag.nfev == 2
        assert "GRAD_TOL" in diag.message

    @pytest.mark.parametrize("n", [120, 1000])
    def test_reduced_family_r16_converges(self, n):
        from smallpoly.reduced import _box, derivatives, objective, start_vector

        lo, hi = _box(n, 16)
        problem = BoxProblem(
            lower=lo,
            upper=hi,
            objective=lambda v: objective(n, 16, v),
            derivatives=lambda v: derivatives(n, 16, v),
        )
        _, _, diag = maximize_box(problem, start_vector(n, 16))
        assert diag.converged and diag.grad_norm <= 1e-8


class TestBoxEntryChecks:
    """``BoxProblem`` and ``maximize_box`` refuse a malformed problem or start
    at entry, before any evaluation."""

    @staticmethod
    def problem(lower=(0.0,), upper=(1.0,), objective=lambda v: -((v[0] - 0.3) ** 2)):
        return BoxProblem(
            lower=lower,
            upper=upper,
            objective=objective,
            derivatives=lambda v: (np.array([-2 * (v[0] - 0.3)]), lambda: np.array([[-2.0]])),
        )

    def test_nan_bound_is_named(self):
        with pytest.raises(ValueError, match="lower bound 0 is NaN"):
            self.problem(lower=(math.nan,))
        with pytest.raises(ValueError, match="upper bound 1 is NaN"):
            self.problem(lower=(0.0, 0.0), upper=(1.0, math.nan))

    def test_infinite_bounds_are_allowed(self):
        x, _, diag = maximize_box(self.problem(lower=(-math.inf,), upper=(math.inf,)), (0.9,))
        assert x[0] == pytest.approx(0.3, abs=1e-12) and diag.converged

    def test_objective_must_be_callable(self):
        with pytest.raises(TypeError, match="objective"):
            self.problem(objective=None)

    def test_bounds_must_be_flat(self):
        with pytest.raises(ValueError):
            self.problem(lower=[[0.0]], upper=[[1.0]])

    @pytest.mark.parametrize("start", [[[0.5]], (0.5, 0.5), ()])
    def test_start_must_have_the_box_shape(self, start):
        with pytest.raises(ValueError, match="start must have shape"):
            maximize_box(self.problem(), start)

    def test_full_program_start_must_be_flat(self):
        with pytest.raises(ValueError, match="start must be 5 angles"):
            solve_full_nlp(10, np.full((5, 1), math.pi / 10))


class TestBoxBounds:
    def test_bounds_as_tuples_lists_or_arrays(self):
        # each form is held as the same read-only float array, and solves alike
        results = []
        for lower, upper in (
            ((0, -1.0), (1.0, 1)),
            ([0, -1.0], [1.0, 1]),
            (np.array([0, -1.0]), np.array([1.0, 1.0])),
        ):
            problem = BoxProblem(
                lower=lower,
                upper=upper,
                objective=lambda v: -(v[0] ** 2) - 2 * v[1] ** 2,
                derivatives=lambda v: (
                    np.array([-2 * v[0], -4 * v[1]]), lambda: np.diag([-2.0, -4.0])
                ),
            )
            for bound in (problem.lower, problem.upper):
                assert isinstance(bound, np.ndarray) and bound.dtype == float
                assert not bound.flags.writeable
            assert problem.lower.tolist() == [0.0, -1.0] and problem.upper.tolist() == [1.0, 1.0]
            x, value, diag = maximize_box(problem, (0.7, -0.6))
            results.append((x.tobytes(), value, diag.nfev, diag.iterations))
        assert results[0] == results[1] == results[2]

    def test_bounds_are_copied(self):
        lower = np.zeros(1)
        problem = BoxProblem(
            lower=lower, upper=(1.0,), objective=lambda v: 0.0,
            derivatives=lambda v: (np.zeros(1), lambda: np.zeros((1, 1))),
        )
        lower[0] = 5.0
        assert problem.lower[0] == 0.0


class TestHessianOnDemand:
    def test_one_hessian_per_step(self):
        calls = []
        x, _, diag = maximize_box(_wave_problem(calls), (0.5, 0.5))
        assert diag.converged and diag.iterations >= 3
        assert len(calls) == diag.iterations
        # never at the point the solve ends on
        assert tuple(x) not in calls

    @pytest.mark.parametrize("n, r", [(40, 4), (1000, 16)])
    def test_reduced_family(self, n, r):
        from smallpoly.reduced import _box, derivatives, objective, start_vector

        calls = []

        def spied(v):
            g, hessian = derivatives(n, r, v)

            def counted():
                calls.append(tuple(v))
                return hessian()

            return g, counted

        lo, hi = _box(n, r)
        problem = BoxProblem(lower=lo, upper=hi, objective=lambda v: objective(n, r, v), derivatives=spied)
        _, _, diag = maximize_box(problem, start_vector(n, r))
        assert diag.converged and diag.iterations >= 1
        assert len(calls) == diag.iterations


class TestStopReason:
    def test_residual_below_floor(self):
        _, _, diag = maximize_box(_wave_problem(), (0.5, 0.5))
        assert diag.stop_reason == STOP_CONVERGED and diag.message == ""

    def test_max_steps(self, monkeypatch):
        monkeypatch.setattr(solver, "MAX_STEPS", 1)
        _, _, diag = maximize_box(_wave_problem(), (0.5, 0.5))
        assert diag.iterations == 1 and not diag.converged
        assert diag.stop_reason == STOP_MAX_STEPS
        assert STOP_MAX_STEPS in diag.message

    def test_no_halving_accepted(self):
        # f = -(v^2 - 1/4)^2 near its saddle at 0: the Newton step heads for
        # a maximum at +-1/2, but |f'| grows along the way, so no halving
        # lowers the residual
        problem = BoxProblem(
            lower=(-1.0,),
            upper=(1.0,),
            objective=lambda v: -((v[0] ** 2 - 0.25) ** 2),
            derivatives=lambda v: (
                np.array([-4 * v[0] * (v[0] ** 2 - 0.25)]),
                lambda: np.array([[1.0 - 12 * v[0] ** 2]]),
            ),
        )
        x, _, diag = maximize_box(problem, (0.02,))
        assert x[0] == 0.02 and diag.iterations == 0 and not diag.converged
        assert diag.stop_reason == STOP_NO_DESCENT
        assert STOP_NO_DESCENT in diag.message

    def test_singular_kkt_matrix(self):
        # one constraint c = 1 with a zero Jacobian: the KKT matrix
        # [[1, 0], [0, 0]] has no inverse
        def evaluate(x):
            return np.array([x[0] - 0.5]), np.array([1.0]), np.zeros((1, 1)), lambda lam: np.eye(1)

        x, _, gres, cres, steps, _, reason = _newton(
            evaluate, np.array([0.2]), np.zeros(1), np.ones(1), 1
        )
        assert reason == STOP_SINGULAR
        assert x[0] == 0.2 and steps == 0 and cres == 1.0

    def test_undefined_at_the_start(self, capfd):
        # no derivatives, or a gradient that is not finite: undefined, not a
        # small residual (max(0.0, nan) is 0.0)
        for derivatives in (
            lambda v: None,
            lambda v: (np.array([math.nan]), lambda: np.eye(1)),
        ):
            problem = BoxProblem(
                lower=(0.0,), upper=(1.0,), objective=lambda v: -1.0, derivatives=derivatives
            )
            _, _, diag = maximize_box(problem, (0.5,))
            assert diag.stop_reason == STOP_UNDEFINED and diag.iterations == 0
            assert STOP_UNDEFINED in diag.message
        # NaN angles: the full program stops before its least-squares
        # multipliers, so LAPACK neither raises nor writes to stderr
        with pytest.raises(InfeasibleError, match=STOP_UNDEFINED) as err:
            solve_full_nlp(6, start=[math.nan] * 3)
        assert err.value.diagnostics.stop_reason == STOP_UNDEFINED
        assert capfd.readouterr().err == ""

    def test_non_finite_trial_point_is_rejected(self):
        # c = x - 0.9 is NaN from x = 0.75 on: the full step to 0.9 is
        # rejected, as is every halving that lands there; f is constant, so
        # the Lagrangian's gradient is lam
        def evaluate(x):
            c = x[0] - 0.9 if x[0] < 0.75 else math.nan
            return np.zeros(1), np.array([c]), np.ones((1, 1)), lambda lam: np.zeros((1, 1))

        x, _, _, cres, steps, _, reason = _newton(
            evaluate, np.array([0.5]), np.zeros(1), np.ones(1), 1
        )
        assert 0.5 < x[0] < 0.75 and math.isfinite(cres) and steps >= 1
        assert reason == STOP_NO_DESCENT

    def test_full_program_reports_its_reason(self, monkeypatch):
        _, _, diag = solve_full_nlp(6)
        assert diag.stop_reason == STOP_CONVERGED
        alpha = math.pi / 10
        cold = np.array([alpha, 2 * alpha, 2 * alpha])
        monkeypatch.setattr(solver, "MAX_STEPS", 0)
        with pytest.raises(InfeasibleError, match=STOP_MAX_STEPS) as err:
            solve_full_nlp(6, start=cold)
        assert err.value.diagnostics.stop_reason == STOP_MAX_STEPS


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
        angles, _, _ = solve_full_nlp(6)
        theta = np.array(angles.theta)
        g = objective_gradient(theta)
        J = constraint_jacobian(theta, 6)
        proj = g - J.T @ np.linalg.solve(J @ J.T, J @ g)
        assert np.linalg.norm(proj) <= 1e-7


def _kkt(theta, lam, n):
    """The full program's Lagrangian gradient, constraints, Jacobian and Hessian at lam."""
    g, c, J, hessian = _nlp_evaluate(n)(np.asarray(theta, dtype=float))
    lam = np.asarray(lam, dtype=float)
    return g + J.T @ lam, c, J, hessian(lam)


class TestConstraints:
    def test_feasible_point_residuals(self, feasible_sampler):
        _, angles = feasible_sampler()
        c = _kkt(angles.theta, np.zeros(2), angles.n)[1]
        assert np.max(np.abs(c)) < 1e-10

    def test_jacobian_matches_fd(self):
        theta = np.array([0.26, 0.45, 0.40, 0.46])
        J = _kkt(theta, np.zeros(2), 8)[2]
        assert np.array_equal(J, constraint_jacobian(theta, 8))
        h = 1e-7
        for i in range(4):
            tp, tm = theta.copy(), theta.copy()
            tp[i] += h
            tm[i] -= h
            col = (_kkt(tp, np.zeros(2), 8)[1] - _kkt(tm, np.zeros(2), 8)[1]) / (2 * h)
            assert np.allclose(J[:, i], col, atol=1e-7)


class TestLagrangianHessian:
    @pytest.mark.parametrize("n", [6, 20, 120, 512])
    def test_matches_fd_of_analytic_derivatives(self, n):
        rng = np.random.default_rng(n)
        theta = rng.uniform(0.01, 0.5, n // 2)
        lam = rng.standard_normal(2)
        grad, _, _, H = _kkt(theta, lam, n)
        assert np.array_equal(grad, -objective_gradient(theta) + constraint_jacobian(theta, n).T @ lam)
        fd = np.zeros_like(H)
        h = 1e-6
        for i in range(len(theta)):
            tp, tm = theta.copy(), theta.copy()
            tp[i] += h
            tm[i] -= h
            fd[:, i] = (_kkt(tp, lam, n)[0] - _kkt(tm, lam, n)[0]) / (2 * h)
        assert np.max(np.abs(H - fd)) <= 1e-8 * max(1.0, np.max(np.abs(H)))
        assert np.max(np.abs(H - H.T)) <= 1e-12 * np.max(np.abs(H))

    @pytest.mark.parametrize("n", [6, 16, 100, 512])
    def test_solution_is_a_constrained_maximum(self, n):
        # -area + lam @ c has a positive definite Hessian on the tangent
        # space of the constraints, so the area has a strict local maximum
        angles, _, diag = solve_full_nlp(n)
        theta = np.array(angles.theta)
        _, _, vt = np.linalg.svd(constraint_jacobian(theta, n))
        Z = vt[2:].T
        reduced = Z.T @ _kkt(theta, diag.multipliers, n)[3] @ Z
        assert np.min(np.linalg.eigvalsh(reduced)) > 0.0


class TestAreaHessianWeights:
    """``geometry.area_hessian_s`` with its pair weights built once per size."""

    @staticmethod
    def uncached(theta):
        m = len(theta)
        s = np.cumsum(theta)
        idx = np.arange(m)
        sign = np.where(idx % 2 == 0, 1.0, -1.0)
        w = np.maximum(0, m - np.maximum(np.maximum.outer(idx, idx + 2), 2)) * np.outer(sign, sign)
        pair = (w - w.T) * np.sin(s[:, None] - s[None, :])
        hess = pair - np.diag(pair.sum(axis=1))
        hess[0, 0] -= math.sin(s[0])
        return hess

    @pytest.mark.parametrize("m", [1, 2, 3, 17, 256])
    def test_matches_the_uncached_formula(self, m):
        theta = np.random.default_rng(m).uniform(0.0, math.pi / (2 * m), m)
        for _ in range(2):  # a miss, then a hit
            assert np.array_equal(area_hessian_s(np.cumsum(theta)), self.uncached(theta))

    def test_weights_are_read_only(self):
        weights = geometry._pair_weights(17)
        assert not weights.flags.writeable
        with pytest.raises(ValueError):
            weights[0, 1] = 0.0
        assert geometry._pair_weights(17) is weights


class TestSolveFullNlp:
    def test_hexagon(self):
        angles, area, diag = solve_full_nlp(6)
        assert area == pytest.approx(0.6749814429, abs=1e-9)
        assert angles.theta == pytest.approx(
            (0.350930, 0.653342, 0.566524), abs=1e-6
        )
        assert diag.constraint_residual <= 1e-10
        assert diag.grad_norm <= 1e-8

    def test_sixteen_gon(self):
        _, area, _ = solve_full_nlp(16)
        assert area == pytest.approx(0.7718613220, abs=1e-8)

    def test_hundred_gon(self):
        angles, area, _ = solve_full_nlp(100)
        assert area == pytest.approx(0.7850715895, abs=1e-8)
        # reference angles carry solver noise in the flattest direction,
        # so compare a touch looser than their printed precision
        assert angles.theta[0] == pytest.approx(0.0208046, abs=5e-6)
        assert angles.theta[1] == pytest.approx(0.0345883, abs=5e-6)

    def test_dominates_reduced_families(self):
        from smallpoly.reduced import construct_Q

        _, area, _ = solve_full_nlp(10)
        for r in (0, 1, 2, 3):
            _, report, _ = construct_Q(10, r)
            assert area >= report.area - 1e-9

    def test_deterministic(self):
        a1, v1, _ = solve_full_nlp(8)
        a2, v2, _ = solve_full_nlp(8)
        assert a1.theta == a2.theta and v1 == v2

    @pytest.mark.parametrize("n", [6, 14, 34, 120, 256, 512])
    def test_cold_start_from_r0_angles(self, n):
        # the closed-form r = 0 construction: alpha = pi/(2n-2), equal tail;
        # the same start perturbed by up to 20% per angle must also converge
        alpha = math.pi / (2 * n - 2)
        cold = np.array([alpha] + [2 * alpha] * (n // 2 - 1))
        perturbed = cold * (1.0 + 0.2 * np.random.default_rng(n).uniform(-1.0, 1.0, n // 2))
        _, warm_area, _ = solve_full_nlp(n)
        for start in (cold, perturbed):
            _, area, _ = solve_full_nlp(n, start=start)
            assert area == pytest.approx(warm_area, abs=1e-12)

    def test_newton_steps_per_start(self):
        _, _, diag = solve_full_nlp(120)
        assert 1 <= diag.iterations <= 8
        assert diag.nfev > diag.iterations

    @pytest.mark.parametrize("n", [6, 20, 120])
    def test_start_at_the_optimum_is_evaluated_once(self, n):
        # the multipliers are fit to the start's one evaluation, which is
        # already below the residual floor
        angles, area, _ = solve_full_nlp(n)
        again, area_again, diag = solve_full_nlp(n, start=angles)
        assert diag.iterations == 0 and diag.nfev == 1
        assert diag.stop_reason == STOP_CONVERGED
        assert again.theta == angles.theta and area_again == area

    def test_explicit_start(self):
        start = AngleVector(6, (math.pi / 10, math.pi / 5, math.pi / 5))
        _, area, _ = solve_full_nlp(6, start=start)
        assert area == pytest.approx(0.6749814429, abs=1e-9)

    def test_unreachable_tolerance_raises(self):
        with pytest.raises(InfeasibleError) as err:
            solve_full_nlp(8, tol=1e-30)
        assert err.value.diagnostics is not None

    def test_domain(self):
        with pytest.raises(ValueError):
            solve_full_nlp(7)
        with pytest.raises(ValueError):
            solve_full_nlp(514)
