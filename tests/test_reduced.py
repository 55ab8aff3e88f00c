import math

import numpy as np
import pytest

from smallpoly.geometry import area_dissection, validate, vertices_from_angles
from smallpoly.reduced import (
    ReducedParams,
    _prefix_angles,
    _prefix_state,
    area_deficit,
    closure_residual,
    construct_Q,
    construct_Q_theorem,
    derivatives,
    derive,
    expand_angles,
    free_parameter_count,
    parameter_bounds,
    params_from_vector,
    reduced_area,
    solve_beta,
    solve_gamma_last,
    start_vector,
    theorem_r,
)
from smallpoly.reference import OPTIMAL_SMALL_N


def q61_params():
    return derive(ReducedParams(n=6, r=1, alpha=0.3509301888703616))


def q103_params():
    row = OPTIMAL_SMALL_N[10]
    return derive(
        ReducedParams(n=10, r=3, alpha=row.alpha, betas=row.betas, gammas_free=row.gammas)
    )


class TestParams:
    def test_shapes(self):
        assert free_parameter_count(0) == 1
        assert free_parameter_count(1) == 1
        assert free_parameter_count(2) == 2
        assert free_parameter_count(3) == 3
        assert free_parameter_count(4) == 4

    def test_validation(self):
        with pytest.raises(ValueError):
            ReducedParams(n=8, r=3, alpha=0.2)  # n < 2r + 4
        with pytest.raises(ValueError):
            ReducedParams(n=12, r=2, alpha=0.2)  # missing the free beta
        with pytest.raises(ValueError):
            ReducedParams(n=7, r=1, alpha=0.2)


class TestSolveBeta:
    def test_r0(self):
        p = ReducedParams(n=6, r=0, alpha=math.pi / 10)
        assert solve_beta(p) == pytest.approx(math.pi / 5, abs=1e-15)
        p = ReducedParams(n=12, r=0, alpha=math.pi / 22)
        assert solve_beta(p) == pytest.approx(math.pi / 11, abs=1e-15)

    def test_r1_matches_angle_sum(self):
        p = ReducedParams(n=6, r=1, alpha=0.3509301888703616)
        beta = solve_beta(p)
        assert beta == pytest.approx((math.pi / 2 - p.alpha) / 2, abs=1e-15)
        assert beta == pytest.approx(0.6099329, abs=2e-6)

    def test_odd_r_counts_tail(self):
        p = q103_params()
        # alpha + 2 beta_1 + 2 beta (the scheme of r+1 with the last pair at beta)
        total = p.alpha + 2 * p.betas[0] + 2 * p.beta_derived
        assert total == pytest.approx(math.pi / 2, abs=1e-14)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            solve_beta(ReducedParams(n=6, r=1, alpha=2.0))  # tail angle negative


class TestSolveGammaLast:
    def test_hexagon_value(self):
        p = q61_params()
        assert p.gamma_last_derived == pytest.approx(0.0434089, abs=2e-6)

    def test_hexagon_closure_identity(self):
        # for r = 1 the generalized condition is the classic three-variable one
        p = q61_params()
        a, b, g = p.alpha, p.beta_derived, p.gamma_last_derived
        classic = math.sin(a + b + g) - math.sin(a) - math.sin(a + 1.5 * b) / (2 * math.cos(b / 2))
        generalized = closure_residual(p, b, g)
        assert abs(generalized + classic) <= 1e-14
        assert abs(classic) <= 1e-14

    def test_ten_gon_value(self):
        p = q103_params()
        assert p.gamma_last_derived == pytest.approx(0.0034155, abs=1e-6)
        theta = expand_angles(p).theta
        assert theta[3] == pytest.approx(0.339137, abs=1e-6)
        assert theta[4] == pytest.approx(0.332306, abs=1e-6)

    def test_zero_root(self):
        # tune the free beta so the closure already holds at gamma = 0,
        # then the solver must return (numerically) zero
        from smallpoly.solver import brentq

        n, r, alpha = 8, 2, 0.2725
        def residual_at_zero(b1):
            p = ReducedParams(n=n, r=r, alpha=alpha, betas=(b1,), beta_derived=None)
            beta = solve_beta(p)
            return closure_residual(p, beta, 0.0)

        # keep the tail angle positive: b1 < (pi/2 - alpha)/2
        b1 = brentq(residual_at_zero, math.pi / n * 1.001, (math.pi / 2 - alpha) / 2 * 0.98)
        p = ReducedParams(n=n, r=r, alpha=alpha, betas=(b1,))
        p = derive(p)
        assert abs(p.gamma_last_derived) <= 1e-12

    def test_requires_beta(self):
        with pytest.raises(ValueError):
            solve_gamma_last(ReducedParams(n=6, r=1, alpha=0.35))

    def test_r0_has_no_gamma(self):
        with pytest.raises(ValueError):
            solve_gamma_last(derive(ReducedParams(n=6, r=0, alpha=math.pi / 10)))


class TestExpand:
    def test_r0_pentagon_star(self):
        p = derive(ReducedParams(n=6, r=0, alpha=math.pi / 10))
        assert expand_angles(p).theta == pytest.approx(
            (math.pi / 10, math.pi / 5, math.pi / 5), abs=1e-15
        )

    def test_hexagon(self):
        theta = expand_angles(q61_params()).theta
        assert theta == pytest.approx((0.350930, 0.653342, 0.566524), abs=1e-6)

    def test_feasibility_of_derived(self, feasible_sampler):
        for _ in range(50):
            params, angles = feasible_sampler()
            assert abs(angles.angle_sum_residual) <= 1e-10
            assert abs(angles.closure_residual) <= 1e-10

    def test_phi_state_consistency(self, feasible_sampler):
        for _ in range(20):
            params, angles = feasible_sampler()
            if params.r == 0:
                continue
            rp = params.r if params.r % 2 == 0 else params.r + 1
            th = _prefix_angles(params, params.beta_derived, params.gamma_last_derived)
            phi, x, y = _prefix_state(th)
            assert phi == pytest.approx(sum(angles.theta[: rp + 1]), abs=1e-14)
            chain = vertices_from_angles(angles).vertices[rp]
            assert (x, y) == pytest.approx(chain, abs=1e-14)
            # strict only when tail angles remain; at n = 2r + 4 with r odd
            # the prefix is the whole quarter turn
            if rp + 1 < params.n // 2:
                assert phi < math.pi / 2
            else:
                assert phi <= math.pi / 2 + 1e-14


class TestReducedArea:
    def test_hexagon(self):
        assert reduced_area(q61_params()) == pytest.approx(0.6749814429301047, abs=1e-12)

    def test_twelve_gon(self):
        row = OPTIMAL_SMALL_N[12]
        p = derive(
            ReducedParams(n=12, r=4, alpha=row.alpha, betas=row.betas, gammas_free=row.gammas)
        )
        assert reduced_area(p) == pytest.approx(0.7607298734487962, abs=1e-12)

    def test_matches_dissection(self, feasible_sampler):
        for _ in range(200):
            params, angles = feasible_sampler()
            assert reduced_area(params) == pytest.approx(
                area_dissection(angles), abs=1e-12
            )


class TestConstruct:
    def test_hexagon(self):
        _, report, params = construct_Q(6, 1, multistart=2)
        assert report.area == pytest.approx(0.6749814429, abs=1e-9)
        assert params.alpha == pytest.approx(0.3509301888703616, abs=1e-8)

    def test_ten_gon(self):
        _, report, params = construct_Q(10, 3, multistart=2)
        assert report.area == pytest.approx(0.7491373459, abs=1e-9)
        assert params.alpha == pytest.approx(0.2126101953, abs=1e-6)
        assert params.betas[0] == pytest.approx(0.3433714044, abs=1e-6)
        assert params.gammas_free[0] == pytest.approx(0.0247600079, abs=1e-6)

    def test_twelve_gon_two_params(self):
        _, report, _ = construct_Q(12, 2, multistart=2)
        assert report.area == pytest.approx(0.7607228359, abs=1e-9)

    def test_r0_short_circuit(self):
        _, report, params = construct_Q(6, 0)
        assert report.area == pytest.approx(0.6722882584, abs=1e-9)
        assert params.alpha == pytest.approx(math.pi / 10, abs=1e-15)
        assert params.beta_derived == pytest.approx(math.pi / 5, abs=1e-15)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            construct_Q(8, 3)
        with pytest.raises(ValueError):
            construct_Q(7, 1)
        with pytest.raises(ValueError):
            construct_Q(40, 17)

    def test_large_r_behind_flag(self):
        _, report, _ = construct_Q(40, 17, multistart=0, allow_large_r=True)
        _, report4, _ = construct_Q(40, 4, multistart=0)
        assert report.area >= report4.area - 1e-10

    def test_constructed_polygons_validate(self):
        for n, r in ((8, 2), (14, 3), (20, 4)):
            polygon, report, _ = construct_Q(n, r, multistart=1)
            assert report.is_valid
            fresh = validate(polygon)
            assert fresh.is_small and fresh.is_convex and fresh.is_symmetric

    def test_nesting_in_r(self):
        areas = [construct_Q(12, r, multistart=2)[1].area for r in range(5)]
        for lo, hi in zip(areas, areas[1:]):
            assert hi >= lo - 1e-11

    def test_sandwich(self):
        from smallpoly.geometry import regular_area, upper_bound

        _, rep0, _ = construct_Q(12, 0)
        _, rep4, _ = construct_Q(12, 4, multistart=2)
        assert regular_area(12) < rep0.area <= rep4.area < upper_bound(12)

    def test_multistart_agreement(self):
        _, _, params = construct_Q(6, 1, multistart=4)
        # re-derive and check the reported optimum is reproducible
        again = derive(ReducedParams(n=6, r=1, alpha=params.alpha))
        assert reduced_area(again) == pytest.approx(reduced_area(params), abs=1e-14)


class TestTheoremConstruction:
    def test_r_selection(self):
        assert theorem_r(6) == 1
        assert theorem_r(12) == 4
        assert theorem_r(34) == 15
        assert theorem_r(36) == 16

    def test_small_n(self):
        _, report, _ = construct_Q_theorem(6)
        assert report.area == pytest.approx(0.6749814429, abs=1e-9)
        _, report, _ = construct_Q_theorem(12)
        assert report.area == pytest.approx(0.7607298734, abs=1e-9)

    def test_large_n_bracketed(self):
        from smallpoly.geometry import upper_bound

        _, report16, _ = construct_Q_theorem(36, multistart=0)
        _, report4, _ = construct_Q(36, 4, multistart=0)
        assert report4.area < report16.area < upper_bound(36)


class TestDerivatives:
    """Analytic gradient and Hessian of the reduced objective.

    The gradient is checked against fourth-order central differences (step
    1e-2 pi/n) of the area in compensated arithmetic (``-area_deficit``,
    the same closed form as ``objective``): at n = 50000 the plain-double
    objective changes by less than its rounding over any step short enough
    to keep the truncation error small.  The gradient there is about 1e-9,
    summed from terms of order 1, so its tolerance is 1e-3 relative against
    1e-6 elsewhere.  The Hessian is checked against central differences
    (step 1e-3 pi/n) of the analytic gradient, relative 1e-5.  The
    zero-tail families (odd r, n = 2r + 4: no tail angle follows the prefix,
    and beta enters only through the last pair) take both steps ten times
    shorter: at these n the truncation errors of the longer steps reach
    2e-5 and 1.1e-5 relative, falling as the fourth and second powers of
    the step.  The points are the tabulated starts moved by up to 2% of the
    box.
    """

    @pytest.mark.parametrize(
        "n, r, gtol",
        [
            (6, 1, 1e-6),
            (10, 3, 1e-6),
            (14, 5, 1e-6),
            (12, 4, 1e-6),
            (40, 3, 1e-6),
            (120, 16, 1e-6),
            (1000, 16, 1e-6),
            (50000, 16, 1e-3),
        ],
    )
    def test_match_central_differences(self, n, r, gtol):
        lo, hi = parameter_bounds(n, r)
        rng = np.random.default_rng(n)
        x = np.clip(start_vector(n, r) + 0.02 * (hi - lo) * rng.uniform(-1, 1, len(lo)), lo, hi)
        g, H = derivatives(n, r, x)
        area = lambda v: -area_deficit(derive(params_from_vector(n, r, v)))
        shrink = 0.1 if r % 2 and n == 2 * r + 4 else 1.0
        h = shrink * 1e-2 * math.pi / n
        fd_g = np.zeros(len(x))
        fd_H = np.zeros_like(H)
        for i in range(len(x)):
            e = np.zeros(len(x))
            e[i] = 1.0
            f = lambda k: area(x + k * h * e)
            fd_g[i] = (8 * (f(1) - f(-1)) - (f(2) - f(-2))) / (12 * h)
            hh = shrink * 1e-3 * math.pi / n
            fd_H[:, i] = (derivatives(n, r, x + hh * e)[0] - derivatives(n, r, x - hh * e)[0]) / (2 * hh)
        assert np.max(np.abs(g - fd_g)) <= gtol * np.max(np.abs(g))
        assert np.max(np.abs(H - fd_H)) <= 1e-5 * np.max(np.abs(H))
        assert np.max(np.abs(H - H.T)) <= 1e-14 * np.max(np.abs(H))

    def test_none_outside_the_domain(self):
        # alpha at the top of its box with large betas leaves no tail angle
        lo, hi = parameter_bounds(12, 4)
        assert derivatives(12, 4, hi) is None
