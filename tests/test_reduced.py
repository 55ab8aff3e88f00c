import dataclasses
import math
import re
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from smallpoly import asymptotics, reduced
from smallpoly.geometry import (
    area_dissection,
    area_gradient_s,
    chain_coordinates,
    half_sign,
    validate,
    vertices_from_angles,
    walk_chain,
)
from smallpoly.reduced import (
    CLOSURE_RESIDUAL_TOL,
    ReducedParams,
    _closure,
    _g,
    _prefix_angles,
    _sum_map,
    _sum_skeleton,
    area_deficit,
    best_params,
    construct_Q,
    construct_Q_theorem,
    derivatives,
    derive,
    expand_angles,
    free_shape,
    parameter_bounds,
    params_from_vector,
    reduced_area,
    solve_beta,
    start_vector,
    theorem_r,
)
from smallpoly.reference import MAX_TABULATED_R, OPTIMAL_SMALL_N
from smallpoly.solver import STOP_CONVERGED, BracketError, brentq, maximize_box
from tests.conftest import mp_walk_oracle


def q61_params():
    return derive(ReducedParams(n=6, r=1, alpha=0.3509301888703616))


def q103_params():
    row = OPTIMAL_SMALL_N[10]
    return derive(
        ReducedParams(n=10, r=3, alpha=row.alpha, betas=row.betas, gammas_free=row.gammas)
    )


class TestParams:
    def test_shapes(self):
        assert free_shape(0) == (0, 0)
        assert free_shape(1) == (0, 0)
        assert free_shape(2) == (1, 0)
        assert free_shape(3) == (1, 1)
        assert free_shape(4) == (2, 1)

    def test_validation(self):
        with pytest.raises(ValueError):
            ReducedParams(n=8, r=3, alpha=0.2)  # n < 2r + 4
        with pytest.raises(ValueError):
            ReducedParams(n=12, r=2, alpha=0.2)  # missing the free beta
        with pytest.raises(ValueError):
            ReducedParams(n=7, r=1, alpha=0.2)

    def test_from_vector_is_the_constructed_point(self):
        # built without the constructor, stored as the constructor stores it
        x = start_vector(40, 5)
        x[3] = -0.0
        p = params_from_vector(40, 5, x)
        q = ReducedParams(n=40, r=5, alpha=x[0], betas=tuple(x[1:3]), gammas_free=tuple(x[3:]))
        assert type(p) is ReducedParams and type(p.alpha) is float
        assert p == q and hash(p) == hash(q) and repr(p) == repr(q)
        for n, r in ((8, 3), (7, 1), (12, -1)):
            with pytest.raises(ValueError) as built:
                ReducedParams(n=n, r=r, alpha=0.2)
            with pytest.raises(ValueError, match=re.escape(str(built.value))):
                params_from_vector(n, r, [0.2])


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
        generalized = _closure(p, b)(g)
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
        # then the root solve in derive must return (numerically) zero
        n, r, alpha = 8, 2, 0.2725
        def residual_at_zero(b1):
            p = ReducedParams(n=n, r=r, alpha=alpha, betas=(b1,))
            return _closure(p, solve_beta(p))(0.0)

        # keep the tail angle positive: b1 < (pi/2 - alpha)/2
        b1 = brentq(residual_at_zero, math.pi / n * 1.001, (math.pi / 2 - alpha) / 2 * 0.98)
        p = ReducedParams(n=n, r=r, alpha=alpha, betas=(b1,))
        p = derive(p)
        assert abs(p.gamma_last_derived) <= 1e-12


def walked_residual(p, beta, gamma_last):
    """The closure residual by walking every prefix angle from scratch."""
    th = _prefix_angles(p, beta, gamma_last)
    s = x = 0.0
    for j, t in enumerate(th[:-1]):
        s += t
        x += (1.0 if j % 2 == 0 else -1.0) * math.sin(s)
    return x + math.sin(s + th[-1] - beta / 2) / (2.0 * math.cos(beta / 2))


def walked_gamma_last(p, beta):
    f = lambda g: walked_residual(p, beta, g)
    gamma = brentq(f, -math.pi / p.n, math.pi / p.n)
    if abs(f(gamma)) > CLOSURE_RESIDUAL_TOL:
        raise BracketError("residual above tolerance")
    return gamma


def test_hoisted_closure_matches_prefix_walk():
    """One prefix walk per root solve gives the root of the full walk, bit for bit.

    1000 points, 125 per family, up to 10% of the box off the tabulated
    start; (6, 1), (10, 3), (14, 5) and (30, 13) are zero-tail families.
    """
    families = [(6, 1), (10, 3), (14, 5), (12, 4), (30, 13), (120, 16), (1000, 7), (50000, 16)]
    solved = 0
    for n, r in families:
        lo, hi = parameter_bounds(n, r)
        rng = np.random.default_rng(7 * n + r)
        for _ in range(125):
            x = np.clip(start_vector(n, r) + 0.1 * (hi - lo) * rng.uniform(-1, 1, len(lo)), lo, hi)
            p = params_from_vector(n, r, x)
            try:
                beta = solve_beta(p)
            except ValueError:
                continue
            g = float(rng.uniform(-math.pi / n, math.pi / n))
            assert _closure(p, beta)(g) == walked_residual(p, beta, g)
            try:
                expected = walked_gamma_last(p, beta)
            except BracketError:
                with pytest.raises(BracketError):
                    derive(p)
                continue
            assert derive(p).gamma_last_derived == expected
            solved += 1
    assert solved >= 900


@pytest.mark.parametrize("n, r", [(6, 1), (12, 4), (14, 5), (40, 3), (120, 16), (50000, 16)])
def test_sum_map_is_the_jacobian_of_the_partial_sums(n, r):
    A = _sum_map(n, r)
    assert not A.flags.writeable
    with pytest.raises(ValueError):
        A[0, 0] = 2.0

    def z(u):
        # u = (free parameters, gamma_last) -> (S_0, ..., S_rp, beta)
        p = params_from_vector(n, r, u[:-1])
        beta = solve_beta(p)
        return np.append(np.cumsum(_prefix_angles(p, beta, u[-1])), beta)

    u0 = np.append(start_vector(n, r), 0.1 * math.pi / n)
    h = 1e-3 * math.pi / n
    fd = np.column_stack(
        [(z(u0 + h * e) - z(u0 - h * e)) / (2 * h) for e in np.eye(len(u0))]
    )
    assert A.shape == fd.shape
    assert np.max(np.abs(A - fd)) <= 1e-9


@pytest.mark.parametrize("r", range(1, 17))
def test_prefix_walk_matches_the_numpy_path(r):
    """``walk_chain`` and ``area_gradient_s`` on the family's prefixes.

    The partial sums are the additions of ``np.cumsum`` in its order, so
    they agree bit for bit.  The vertices and steps agree with
    ``chain_coordinates`` and ``np.diff`` bit for bit where ``np.sin`` and
    ``np.cos`` round as ``math.sin`` and ``math.cos``; the bound of 4 ulp of
    the largest entry leaves room for a numpy whose vectorized sine rounds
    differently.  The triangle sum and its gradient in the partial sums are
    checked against 50-digit mpmath (``mp_walk_oracle``) within 8 and 32
    eps: over random chains of m = 3 to 256 angles the worst errors seen
    were 2.5 and 13.7 eps.  Tabulated starts and points up to 5% of the box
    off them, at n = 2r + 4 (no tail angle for odd r), 100 and 1000; the
    mpmath check runs at every third point, the start among them.
    """
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(300 + r)
    walked = 0
    for n in (2 * r + 4, 100, 1000):
        lo, hi = parameter_bounds(n, r)
        start = start_vector(n, r)
        points = [start] + [
            np.clip(start + 0.05 * (hi - lo) * rng.uniform(-1, 1, len(lo)), lo, hi)
            for _ in range(8)
        ]
        for i, vec in enumerate(points):
            try:
                p = derive(params_from_vector(n, r, vec))
            except ValueError:
                continue
            th = _prefix_angles(p, p.beta_derived, p.gamma_last_derived)
            assert len(th) == 2 * ((r + 1) // 2) + 1  # 3 angles at r = 1
            S, x, y, tri = walk_chain(th)
            assert S == list(np.cumsum(th))
            steps_p, steps_q, grad = area_gradient_s(x, y)
            nx, ny = chain_coordinates(th)
            for got, want in [(x, nx), (y, ny), (steps_p, np.diff(nx)), (steps_q, np.diff(ny))]:
                assert len(got) == len(want)
                ulp = np.spacing(np.max(np.abs(want)))
                assert np.max(np.abs(np.array(got) - want)) <= 4 * ulp
            if i % 3 == 0:
                with mpmath.workdps(50):
                    exact_tri, exact_grad = mp_walk_oracle(S, mpmath)
                    assert abs(tri - exact_tri) <= 8 * np.spacing(1.0)
                    assert max(abs(g - e) for g, e in zip(grad, exact_grad)) <= 32 * np.spacing(1.0)
            walked += 1
    assert walked >= 20


class TestExpand:
    def test_r0_pentagon_star(self):
        p = derive(ReducedParams(n=6, r=0, alpha=math.pi / 10))
        assert expand_angles(p).theta == pytest.approx(
            (math.pi / 10, math.pi / 5, math.pi / 5), abs=1e-15
        )

    @pytest.mark.parametrize(
        "change, named",
        [
            ({"alpha": 1.0}, "theta_0 = 1.0 outside [0, pi/6]"),
            ({"beta_derived": 1.2}, "theta_1 = 1.2 outside [0, pi/3]"),
            ({"beta_derived": -0.1}, "theta_1 = -0.1 outside [0, pi/3]"),
            ({"alpha": 1.0, "beta_derived": 1.2}, "theta_0 = 1.0 outside [0, pi/6]"),
        ],
    )
    def test_bounds_name_first_offender(self, change, named):
        # ``AngleVector`` checks the expanded angles' box and names the first
        # angle outside it
        p = replace(derive(ReducedParams(n=12, r=0, alpha=math.pi / 22)), **change)
        with pytest.raises(ValueError, match=re.escape(named)):
            expand_angles(p)

    def test_hexagon(self):
        theta = expand_angles(q61_params()).theta
        assert theta == pytest.approx((0.350930, 0.653342, 0.566524), abs=1e-6)

    def test_feasibility_of_derived(self, feasible_sampler):
        for _ in range(50):
            params, angles = feasible_sampler()
            assert abs(angles.angle_sum_residual) <= 1e-10
            x, _ = chain_coordinates(angles.theta)
            assert abs(x[angles.n // 2 - 1] - half_sign(angles.n)) <= 1e-10

    def test_phi_state_consistency(self, feasible_sampler):
        for _ in range(20):
            params, angles = feasible_sampler()
            if params.r == 0:
                continue
            rp = params.r if params.r % 2 == 0 else params.r + 1
            th = _prefix_angles(params, params.beta_derived, params.gamma_last_derived)
            S, x, y, _ = walk_chain(th)
            phi = S[rp]
            assert phi == pytest.approx(sum(angles.theta[: rp + 1]), abs=1e-14)
            chain = tuple(vertices_from_angles(angles).points[rp].tolist())
            assert (x[rp], y[rp]) == pytest.approx(chain, abs=1e-14)
            # the closure the root solve met, through the same walk
            closure = _closure(params, params.beta_derived)
            assert abs(closure(params.gamma_last_derived)) <= CLOSURE_RESIDUAL_TOL
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
        _, report, params = construct_Q(6, 1)
        assert report.area == pytest.approx(0.6749814429, abs=1e-9)
        assert params.alpha == pytest.approx(0.3509301888703616, abs=1e-8)

    def test_ten_gon(self):
        _, report, params = construct_Q(10, 3)
        assert report.area == pytest.approx(0.7491373459, abs=1e-9)
        assert params.alpha == pytest.approx(0.2126101953, abs=1e-6)
        assert params.betas[0] == pytest.approx(0.3433714044, abs=1e-6)
        assert params.gammas_free[0] == pytest.approx(0.0247600079, abs=1e-6)

    def test_twelve_gon_two_params(self):
        _, report, _ = construct_Q(12, 2)
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

    def test_constructed_polygons_validate(self):
        for n, r in ((8, 2), (14, 3), (20, 4)):
            polygon, report, _ = construct_Q(n, r)
            assert report.is_valid
            fresh = validate(polygon)
            assert fresh.is_small and fresh.is_convex and fresh.is_symmetric

    def test_nesting_in_r(self):
        areas = [construct_Q(12, r)[1].area for r in range(5)]
        for lo, hi in zip(areas, areas[1:]):
            assert hi >= lo - 1e-11

    def test_sandwich(self):
        from smallpoly.geometry import regular_area, upper_bound

        _, rep0, _ = construct_Q(12, 0)
        _, rep4, _ = construct_Q(12, 4)
        assert regular_area(12) < rep0.area <= rep4.area < upper_bound(12)


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

    @pytest.mark.parametrize("n", [4, 7, -2])
    def test_domain_error_names_n(self, n):
        with pytest.raises(ValueError, match=re.escape(f"n must be even and >= 6, got {n}")):
            construct_Q_theorem(n)

    def test_large_n_bracketed(self):
        from smallpoly.geometry import upper_bound

        _, report16, _ = construct_Q_theorem(36)
        _, report4, _ = construct_Q(36, 4)
        assert report4.area < report16.area < upper_bound(36)


class TestDerivatives:
    """Analytic gradient and Hessian of the reduced objective.

    The gradient is checked against fourth-order central differences (step
    1e-2 pi/n) of the area as ``-area_deficit`` (the same closed form as
    ``objective``, summed without its O(1) terms): at n = 50000 the
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
        g, hessian = derivatives(n, r, x)
        H = hessian()
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
        # alpha at the top of its box with large betas leaves no tail angle;
        # the objective there raises derive's error
        lo, hi = parameter_bounds(12, 4)
        assert derivatives(12, 4, hi) is None
        with pytest.raises(ValueError, match="derived tail angle"):
            reduced.objective(12, 4, hi)


@pytest.mark.parametrize(
    "n, r",
    [(6, 0), (1000, 0), (6, 1), (10, 3), (12, 4), (36, 16), (120, 16), (1000, 7), (100000, 16)],
)
def test_tail_angle_is_correctly_rounded(n, r):
    # the tail angle (pi/2 - alpha - 2 sum(betas)) / tail against the same
    # quotient in exact rationals, pi/2 taken as its high and low parts: at
    # most half an ulp off, i.e. the quotient correctly rounded
    m = n // 2
    tail = m - 1 if r == 0 else m - r - 1 if r % 2 == 0 else m - r
    quarter = Fraction(math.pi / 2) + Fraction(reduced._PI_LO / 2)
    lo, hi = parameter_bounds(n, r)
    # r = 0 samples on both sides of its one point, alpha = pi/(2n - 2),
    # which is the bottom of its box
    start = start_vector(n, r) if r else lo
    rng = np.random.default_rng(n + r)
    for _ in range(200):
        x = start + 0.02 * (hi - lo) * rng.uniform(-1, 1, len(lo))
        p = params_from_vector(n, r, np.clip(x, lo, hi) if r else x)
        exact = (quarter - Fraction(p.alpha) - 2 * sum(map(Fraction, p.betas))) / tail
        beta = solve_beta(p)
        assert abs(Fraction(beta) - exact) <= Fraction(math.ulp(beta)) / 2


def test_every_tabulated_start_is_defined_and_converges(monkeypatch):
    # the sizes a family solve meets: every r, every even n from 2r + 4 to
    # 120 and three large n; no start is undefined and every box solve
    # stops on a small residual
    reasons = []

    def recording(problem, start):
        assert problem.derivatives(start) is not None
        x, value, diag = maximize_box(problem, start)
        reasons.append(diag.stop_reason)
        return x, value, diag

    monkeypatch.setattr(reduced, "maximize_box", recording)
    sizes = [
        (n, r)
        for r in range(1, MAX_TABULATED_R + 1)
        for n in [*range(2 * r + 4, 121, 2), 1000, 50000, 10**6]
    ]
    for n, r in sizes:
        best_params(n, r)
    assert reasons == [STOP_CONVERGED] * len(sizes)


def whole_sum_map(n, r):
    """``_sum_map`` built whole, row by row, without the per-r skeleton."""
    nb, ng = free_shape(r)
    k = 1 + nb + ng
    rp = 2 * (ng + 1)
    tail = n // 2 - rp - 1 + 2 * (r % 2)
    A = np.zeros((rp + 2, k + 1))
    eye = np.eye(k + 1)
    A[rp + 1, 0] = -1.0 / tail
    A[rp + 1, 1 : 1 + nb] = -2.0 / tail
    A[0, 0] = 1.0
    bs = [eye[1 + i] for i in range(nb)] + [A[rp + 1]] * (r % 2)
    gs = [eye[1 + nb + i] for i in range(ng)] + [eye[k]]
    for i, (b, g) in enumerate(zip(bs, gs)):
        A[2 * i + 1] = b + g
        A[2 * i + 2] = b - g
    A[: rp + 1] = np.cumsum(A[: rp + 1], axis=0)
    return A


@pytest.mark.parametrize("r", range(1, 17))
def test_sum_map_from_the_skeleton_is_bit_identical(r):
    for n in (2 * r + 4, 2 * r + 6, 40, 120, 1000, 12346, 50000):
        assert _sum_map(n, r).tobytes() == whole_sum_map(n, r).tobytes()
    # the skeleton is shared, read-only and left as it was
    skeleton = _sum_skeleton(r)
    assert skeleton is _sum_skeleton(r) and not skeleton.flags.writeable
    assert not skeleton[-1].any()


class TestPlainFloatOracles:
    """The plain-float family against 50-digit mpmath."""

    @staticmethod
    def exact_deficit(p, mp):
        """pi/4 - area - 5 pi^3/48n^2 of the closed form at p's free
        parameters and gamma_last, with the tail angle recomputed exactly."""
        m = p.n // 2
        tail = m - p.r - 1 if p.r % 2 == 0 else m - p.r
        beta = (mp.pi / 2 - mp.mpf(p.alpha) - 2 * mp.fsum(map(mp.mpf, p.betas))) / tail
        gamma = mp.mpf(p.gamma_last_derived or 0.0)
        bs = [mp.mpf(b) for b in p.betas] + ([beta] if p.r % 2 else [])
        gs = [mp.mpf(g) for g in p.gammas_free] + [gamma]
        th = [mp.mpf(p.alpha)]
        for b, g in zip(bs, gs):
            th += [b + g, b - g]
        s = mp.mpf(0)
        x, y = [mp.mpf(0)], [mp.mpf(0)]
        for j, t in enumerate(th):
            s += t
            sign = -1 if j % 2 else 1
            x.append(x[-1] + sign * mp.sin(s))
            y.append(y[-1] + sign * mp.cos(s))
        tri = x[1] + mp.fsum(
            x[k + 1] * y[k - 1] - y[k + 1] * x[k - 1] for k in range(2, len(th))
        )
        half = mp.tan(beta / 2)
        correction = (x[-2] * mp.sin(s) + y[-2] * mp.cos(s) + mp.mpf(1) / 2) * half
        area = (m - len(th)) * (mp.sin(beta) - half) + tri - correction
        return mp.pi / 4 - area - 5 * mp.pi**3 / (48 * p.n**2)

    @pytest.mark.parametrize(
        "n, bound",
        [(40, 1e-11), (120, 1e-10), (300, 1e-9), (1000, 1e-8), (5000, 1e-7),
         (20000, 1e-6), (50000, 1e-5)],
    )
    def test_deficit(self, n, bound):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(50):
            for r in (0, 1, 4, 16):
                p = reduced.best_params(n, r)
                exact = self.exact_deficit(p, mpmath)
                rel = abs((area_deficit(p) - exact) / exact)
                assert rel <= bound, (r, float(rel))

    def test_g(self):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(50):
            for beta in np.geomspace(1e-9, 1.0, 15).tolist():
                b = mpmath.mpf(beta)
                exact = mpmath.sin(b) - mpmath.tan(b / 2) - b / 2
                rel = abs((_g(beta) - exact) / exact)
                assert rel <= (4e-16 if beta < 0.02 else 1e-12), (beta, float(rel))


class TestDeriveCopy:
    """``derive`` copies its validated input without validating it again."""

    @pytest.mark.parametrize("n, r", [(6, 0), (6, 1), (10, 3), (12, 4), (120, 16), (1000, 7)])
    def test_derived_fields_are_floats(self, n, r):
        if r == 0:
            p = ReducedParams(n=n, r=0, alpha=math.pi / (2 * n - 2))
        else:
            p = params_from_vector(n, r, start_vector(n, r))
        d = derive(p)
        assert type(d) is ReducedParams
        assert type(d.beta_derived) is float
        assert type(d.gamma_last_derived) is (float if r else type(None))
        assert p.beta_derived is None and p.gamma_last_derived is None
        # the copy passes the construction checks it skipped
        assert replace(d) == d
        with pytest.raises(dataclasses.FrozenInstanceError):
            d.alpha = 0.0


class TestPointDerivedOnce:
    """The end of a box solve reuses the point its last Newton evaluation derived."""

    @staticmethod
    def spy(monkeypatch, owner, name):
        """Count the root solves that run outside every Newton evaluation."""
        counts = {"inside": 0, "outside": 0}
        depth = [0]
        real_brentq = reduced.brentq
        real_derivatives = getattr(owner, name)

        def brentq(*args, **kwargs):
            counts["inside" if depth[0] else "outside"] += 1
            return real_brentq(*args, **kwargs)

        def derivatives(*args):
            depth[0] += 1
            try:
                return real_derivatives(*args)
            finally:
                depth[0] -= 1

        monkeypatch.setattr(reduced, "brentq", brentq)
        monkeypatch.setattr(owner, name, derivatives)
        return counts

    def test_construct_q(self, monkeypatch):
        counts = self.spy(monkeypatch, reduced, "derivatives")
        construct_Q(40, 4)
        assert counts["outside"] == 0 and counts["inside"] > 0

    def test_estimate_q_numeric(self, monkeypatch):
        counts = self.spy(monkeypatch, reduced, "derivatives")
        asymptotics.estimate_q_numeric(2, (1000, 2000))
        assert counts["outside"] == 0 and counts["inside"] > 0

    def test_memo_stores_zero_without_its_sign(self):
        x = start_vector(40, 5)
        x[3] = 0.0  # the first free gamma, at its lower bound
        pos = params_from_vector(40, 5, x)
        neg = replace(pos, gammas_free=(-0.0, pos.gammas_free[1]))
        # -0.0 is stored as 0.0: the two points have identical bits (repr
        # shows the sign of a zero and round-trips every float)
        assert math.copysign(1.0, neg.gammas_free[0]) == 1.0
        assert repr(neg) == repr(pos)
        first = derive(pos)
        reduced_area(first)
        misses = reduced._derive.cache_info().misses, reduced._area_terms.cache_info().misses
        # the second point is served from both memos
        assert derive(neg) is first
        reduced_area(derive(neg))
        assert (
            reduced._derive.cache_info().misses, reduced._area_terms.cache_info().misses
        ) == misses
        # a bit-identical input, even a new object, is served from the memo
        assert derive(params_from_vector(40, 5, x)) is first
