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
    triangle_terms,
    validate,
    vertices_from_angles,
    walk_chain,
)
from smallpoly.reduced import (
    CLOSURE_RESIDUAL_TOL,
    ReducedParams,
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
    params_to_vector,
    reduced_area,
    solve_beta,
    start_vector,
    theorem_r,
)
from smallpoly.reference import MAX_TABULATED_R, OPTIMAL_SMALL_N, START_DRIFT, coeff_row
from smallpoly.solver import STOP_CONVERGED, BoxProblem, BracketError, brentq, maximize_box
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

    def test_r_must_be_an_integer(self):
        # a float r is refused, not laid out as an odd r or truncated, and a
        # bool is not an r; each with a ValueError, not a TypeError
        with pytest.raises(ValueError, match="r must be an integer, got 2.5"):
            ReducedParams(n=40, r=2.5, alpha=0.05, betas=(0.08,))
        for r in (2.5, 2.0, True):
            with pytest.raises(ValueError, match=f"r must be an integer, got {r!r}"):
                best_params(40, r)
        # a numpy integer passes, as it does for n
        assert reduced_area(best_params(40, np.int64(2))) == reduced_area(best_params(40, 2))

    def test_wrong_split_is_refused(self):
        # betas and gammas are counted each on its own: the right total in
        # the wrong split is refused, not re-split
        with pytest.raises(ValueError, match="r = 3 takes 1 free betas, got 2"):
            ReducedParams(n=40, r=3, alpha=0.05, betas=(0.08, 0.01), gammas_free=())
        with pytest.raises(ValueError, match="r = 3 takes 1 free gammas, got 0"):
            ReducedParams(n=40, r=3, alpha=0.05, betas=(0.08,))
        with pytest.raises(ValueError, match="r = 4 takes 2 free betas, got 1"):
            ReducedParams(n=40, r=4, alpha=0.05, betas=(0.08,), gammas_free=(0.01, 0.02))
        # a vector of the wrong length fails the count of its gammas
        for vec in ([0.05, 0.08], [0.05, 0.08, 0.01, 0.02]):
            with pytest.raises(ValueError, match="r = 3 takes 1 free gammas"):
                params_from_vector(40, 3, vec)

    def test_from_vector_is_the_constructed_point(self):
        # split from the vector, then stored and checked as every point is
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
        generalized = walked_residual(p, b, g)
        assert abs(generalized + classic) <= 1e-14
        assert abs(classic) <= 1e-14

    def test_ten_gon_value(self):
        p = q103_params()
        assert p.gamma_last_derived == pytest.approx(0.0034155, abs=1e-6)
        theta = expand_angles(p).theta
        assert theta[3] == pytest.approx(0.339137, abs=1e-6)
        assert theta[4] == pytest.approx(0.332306, abs=1e-6)

    def test_zero_root(self, monkeypatch):
        # tune the free beta so the closure already holds at gamma = 0,
        # then the root solve in derive must return (numerically) zero; the
        # stop test is relative to the root, so it ends on its absolute
        # floor, far inside brentq's 200-step cap
        n, r, alpha = 8, 2, 0.2725
        def residual_at_zero(b1):
            p = ReducedParams(n=n, r=r, alpha=alpha, betas=(b1,))
            return walked_residual(p, solve_beta(p), 0.0)

        # keep the tail angle positive: b1 < (pi/2 - alpha)/2
        b1 = brentq(residual_at_zero, math.pi / n * 1.001, (math.pi / 2 - alpha) / 2 * 0.98)
        evaluations = []

        def counting_brentq(f, a, b):
            return brentq(lambda g: evaluations.append(g) or f(g), a, b)

        monkeypatch.setattr(reduced, "brentq", counting_brentq)
        p = derive(ReducedParams(n=n, r=r, alpha=alpha, betas=(b1,)))
        assert abs(p.gamma_last_derived) <= 1e-12
        assert len(evaluations) <= 100  # 59 seen


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


def closure_corpus():
    """1000 points, 125 per family, up to 10% of the box off the tabulated
    start; (6, 1), (10, 3), (14, 5) and (30, 13) are zero-tail families.
    Yields each point whose tail angle is defined, with that angle."""
    families = [(6, 1), (10, 3), (14, 5), (12, 4), (30, 13), (120, 16), (1000, 7), (50000, 16)]
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
            yield p, beta


def test_hoisted_closure_matches_prefix_walk():
    """One walk of the fixed prefix per root solve gives the root of the
    full walk, bit for bit, on the 1000 points of ``closure_corpus``."""
    solved = 0
    for p, beta in closure_corpus():
        try:
            expected = walked_gamma_last(p, beta)
        except BracketError:
            with pytest.raises(BracketError):
                derive(p)
            continue
        assert derive(p).gamma_last_derived == expected
        solved += 1
    assert solved >= 900


def test_stored_walk_is_the_walk_of_the_prefix():
    """The walk ``derive`` keeps, the fixed prefix continued by the last
    pair, is the walk of the whole prefix from scratch, bit for bit."""
    walked = 0
    for p, _ in closure_corpus():
        try:
            d = derive(p)
        except BracketError:
            continue
        th = _prefix_angles(d, d.beta_derived, d.gamma_last_derived)
        # repr shows every bit of a float, the sign of a zero included
        assert repr(d._walk) == repr((th, *walk_chain(th)))
        walked += 1
    assert walked >= 900


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


def plain_chain(theta):
    """The numpy chain ``walk_chain`` follows: plain ``np.cumsum`` partial sums.

    ``chain_coordinates`` compensates its partial sums, which ``walk_chain``
    does not, so this uncompensated chain is the one to compare it with.
    """
    s = np.cumsum(theta)
    sign = np.where(np.arange(len(s)) % 2 == 0, 1.0, -1.0)
    x = np.concatenate(([0.0], np.cumsum(sign * np.sin(s))))
    y = np.concatenate(([0.0], np.cumsum(sign * np.cos(s))))
    return x, y


@pytest.mark.parametrize("r", range(1, 17))
def test_prefix_walk_matches_the_numpy_path(r):
    """``walk_chain`` and ``area_gradient_s`` on the family's prefixes.

    The partial sums are the additions of ``np.cumsum`` in its order, so
    they agree bit for bit.  The vertices and steps agree with the plain
    numpy chain (``plain_chain``) and ``np.diff`` bit for bit where
    ``np.sin`` and ``np.cos`` round as ``math.sin`` and ``math.cos``; the
    bound of 4 ulp of the largest entry leaves room for a numpy whose
    vectorized sine rounds differently.  The triangle sum and its gradient
    in the partial sums, the ``math.fsum`` of ``triangle_terms`` and
    ``area_gradient_s``, are checked against 50-digit mpmath
    (``mp_walk_oracle``) within 8 and 32 eps: over random chains of m = 3
    to 256 angles the worst errors seen were 2.5 and 13.7 eps.  The solve's
    starts and points up to 5% of the box off them, at n = 2r + 4 (no tail
    angle for odd r), 100 and 1000; the mpmath check runs at every third
    point, the start among them.
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
            S, x, y = walk_chain(th)
            tri = math.fsum(triangle_terms(th, S, x, y))
            assert S == list(np.cumsum(th))
            steps_p, steps_q, grad = area_gradient_s(x, y)
            nx, ny = plain_chain(th)
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
        ],
    )
    def test_bounds_name_first_offender(self, change, named):
        # ``AngleVector`` checks the expanded angles' box and names the first
        # angle outside it; a derived tail angle outside its box cannot be
        # reached through ``derive`` (test_geometry's AngleVector tests name it)
        p = derive(replace(ReducedParams(n=12, r=0, alpha=math.pi / 22), **change))
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
            S, x, y = walk_chain(th)
            phi = S[rp]
            assert phi == pytest.approx(sum(angles.theta[: rp + 1]), abs=1e-14)
            chain = tuple(vertices_from_angles(angles).points[rp].tolist())
            assert (x[rp], y[rp]) == pytest.approx(chain, abs=1e-14)
            # the closure the root solve met, walked from scratch
            residual = walked_residual(params, params.beta_derived, params.gamma_last_derived)
            assert abs(residual) <= CLOSURE_RESIDUAL_TOL
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
    the step.  The points are the plain limits pi/n u* moved by up to 2% of
    the box, not ``start_vector``: around the second-order start the
    five-point difference at (12, 4) misses the gradient by 1.26e-6
    relative, its truncation error, not the gradient's.
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
        x = np.clip(math.pi / n * scaled_limits(r) + 0.02 * (hi - lo) * rng.uniform(-1, 1, len(lo)), lo, hi)
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
    # 120, three large n and 40 even n drawn log-uniformly from 2r + 4 to
    # 1e7 (both parities of r, whose pair layouts and tail counts differ);
    # no start is undefined and every box solve stops on a small residual
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
    rng = np.random.default_rng(7)
    for r in range(1, MAX_TABULATED_R + 1):
        for v in rng.uniform(math.log(2 * r + 4), math.log(1e7), 40).tolist():
            sizes.append((max(2 * r + 4, 2 * round(math.exp(v) / 2)), r))
    for n, r in sizes:
        best_params(n, r)
    assert reasons == [STOP_CONVERGED] * len(sizes)


def scaled_limits(r):
    """The tabulated limits u* of ``coeff_row(r)``, in ``start_vector``'s order."""
    row = coeff_row(r)
    return np.array([row.a, *row.b, *row.c])


def solve_from(n, r, start):
    """One box solve of the family from ``start``: (optimum, diagnostics)."""
    lo, hi = parameter_bounds(n, r)
    problem = BoxProblem(
        lower=lo,
        upper=hi,
        objective=lambda v: reduced.objective(n, r, v),
        derivatives=lambda v: derivatives(n, r, v),
    )
    x, _, diag = maximize_box(problem, start)
    return x, diag


def record_box_solves(monkeypatch):
    """Route ``reduced``'s box solves through a recorder; returns its list of
    diagnostics, one appended per solve."""
    diags = []

    def recording(problem, start):
        x, value, diag = maximize_box(problem, start)
        diags.append(diag)
        return x, value, diag

    monkeypatch.setattr(reduced, "maximize_box", recording)
    return diags


class TestDriftStart:
    @pytest.mark.parametrize("r", range(1, MAX_TABULATED_R + 1))
    def test_drift_table_regenerates(self, r):
        # the least-squares fit of x_1 + x_2/n to w(n) = n (u(n) - u*) at n =
        # 700, 1400, 2800, each optimum the solve from the plain limits pi/n
        # u* plus one Newton step.  The same fit at (1000, 2000, 4000)
        # differs by up to 4.0e-6 in x_1 and 5.0e-3 in x_2, which sets the
        # tolerances
        limits = scaled_limits(r)
        w = []
        for n in (700, 1400, 2800):
            x, diag = solve_from(n, r, math.pi / n * limits)
            assert diag.stop_reason == STOP_CONVERGED
            g, hessian = derivatives(n, r, x)
            x = x - np.linalg.solve(hessian(), g)
            w.append(n * (x * n / math.pi - limits))
        x1 = (2 * w[2] + w[1] - w[0]) / 2
        x2 = 200 * (5 * w[0] - w[1] - 4 * w[2])
        table_x1, table_x2 = map(np.array, START_DRIFT[r])
        assert table_x1.shape == table_x2.shape == limits.shape
        assert np.max(np.abs(x1 - table_x1)) <= 1e-5
        assert np.max(np.abs(x2 - table_x2)) <= 1e-2

    def test_no_more_steps_than_from_the_limits(self, monkeypatch):
        # every r at its two smallest n, three moderate and two large n:
        # best_params converges in no more steps than a solve from the plain
        # limits, to the same area within 2e-15
        diags = record_box_solves(monkeypatch)
        stepped = 0
        for r in range(1, MAX_TABULATED_R + 1):
            for n in (2 * r + 4, 2 * r + 6, 40, 120, 1000, 10**5, 10**7):
                p = best_params(n, r)
                diag = diags.pop()
                assert diag.stop_reason == STOP_CONVERGED, (n, r)
                x, plain = solve_from(n, r, math.pi / n * scaled_limits(r))
                assert plain.stop_reason == STOP_CONVERGED, (n, r)
                assert diag.iterations <= plain.iterations, (n, r)
                stepped += diag.iterations < plain.iterations
                area = reduced_area(derive(params_from_vector(n, r, x)))
                assert abs(reduced_area(p) - area) <= 2e-15, (n, r)
        assert stepped >= 75  # 78 of the 112 cases take fewer steps (64 from x_1 alone)

    def test_no_step_on_the_acceptance_grid_from_2000(self, monkeypatch):
        # the start is within the 1e-13 stop at every grid n >= 2000, so
        # estimate_q_numeric solves nothing there
        diags = record_box_solves(monkeypatch)
        for r in range(1, MAX_TABULATED_R + 1):
            for n in (2000, 5000, 10000, 20000, 50000):
                best_params(n, r)
                diag = diags.pop()
                assert diag.stop_reason == STOP_CONVERGED, (n, r)
                assert diag.iterations == 0, (n, r)


class TestZeroStepSolve:
    """A family solve from a start already within the stop pays for its two
    evaluations and nothing more."""

    def test_one_derivatives_one_objective_no_hessian(self, monkeypatch):
        calls = {"derivatives": 0, "objective": 0, "hessian": 0}
        real_derivatives, real_objective = reduced.derivatives, reduced.objective

        def derivatives(n, r, v):
            calls["derivatives"] += 1
            g, hessian = real_derivatives(n, r, v)

            def counted():
                calls["hessian"] += 1
                return hessian()

            return g, counted

        def objective(n, r, v):
            calls["objective"] += 1
            return real_objective(n, r, v)

        monkeypatch.setattr(reduced, "derivatives", derivatives)
        monkeypatch.setattr(reduced, "objective", objective)
        diags = record_box_solves(monkeypatch)
        p = best_params(5000, 16)
        assert calls == {"derivatives": 1, "objective": 1, "hessian": 0}
        (diag,) = diags
        assert diag.stop_reason == STOP_CONVERGED and diag.iterations == 0
        assert diag.nfev == 2
        # the result is the start, derived
        assert params_to_vector(p).tolist() == start_vector(5000, 16).tolist()


def count_derives(monkeypatch):
    """Record every point ``reduced.derive`` returns; returns the list."""
    derived = []
    real_derive = reduced.derive

    def derive(p):
        derived.append(real_derive(p))
        return derived[-1]

    monkeypatch.setattr(reduced, "derive", derive)
    return derived


def count_builds(monkeypatch):
    """Count the ``ReducedParams`` constructions (``__init__`` calls)."""
    builds = [0]
    real_init = ReducedParams.__init__

    def init(self, *args, **kwargs):
        builds[0] += 1
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(ReducedParams, "__init__", init)
    return builds


class TestOnePointPerIterate:
    """A family solve builds and derives each Newton iterate's point once:
    ``derivatives``, the closing ``objective`` and ``best_params``' result
    share it through the vector memo."""

    def test_zero_step_solve_builds_and_derives_once(self, monkeypatch):
        monkeypatch.setattr(reduced, "_last_derived", ((), None))
        builds = count_builds(monkeypatch)
        derives = count_derives(monkeypatch)
        diags = record_box_solves(monkeypatch)
        p = best_params(5000, 16)
        assert diags[0].iterations == 0
        assert builds == [1] and len(derives) == 1
        assert p is derives[0]

    def test_one_step_solve_builds_once_per_derivatives_call(self, monkeypatch):
        monkeypatch.setattr(reduced, "_last_derived", ((), None))
        calls = [0]
        real_derivatives = reduced.derivatives

        def derivatives(n, r, v):
            calls[0] += 1
            return real_derivatives(n, r, v)

        monkeypatch.setattr(reduced, "derivatives", derivatives)
        builds = count_builds(monkeypatch)
        derives = count_derives(monkeypatch)
        diags = record_box_solves(monkeypatch)
        p = best_params(1000, 16)
        assert diags[0].iterations == 1 and calls[0] == 2
        assert builds == calls and len(derives) == calls[0]
        assert p is derives[-1]

    def test_a_vector_one_ulp_away_derives_anew(self, monkeypatch):
        n, r = 40, 5
        x = start_vector(n, r)
        reduced.objective(n, r, x)
        derives = count_derives(monkeypatch)
        for i in range(len(x)):
            y = x.copy()
            y[i] = np.nextafter(y[i], 1.0)
            reduced.objective(n, r, y)
            assert len(derives) == i + 1
            assert params_to_vector(derives[-1]).tolist() == y.tolist()

    def test_minus_zero_is_served_the_point_of_zero(self, monkeypatch):
        n, r = 40, 5
        x = start_vector(n, r)
        x[3] = 0.0  # the first free gamma, at its lower bound
        derives = count_derives(monkeypatch)
        reduced.objective(n, r, x)
        x[3] = -0.0
        reduced.objective(n, r, x)
        (p,) = derives
        assert math.copysign(1.0, p.gammas_free[0]) == 1.0

    def test_a_float_n_or_a_bool_r_is_not_served_an_int_point(self):
        x = start_vector(40, 1)
        reduced.objective(40, 1, x)
        with pytest.raises(ValueError, match="r must be an integer"):
            reduced.objective(40, True, x)
        # a malformed size is refused, not reported as an undefined point
        with pytest.raises(ValueError, match="n must be an integer"):
            derivatives(40.0, 1, x)
        with pytest.raises(ValueError, match="r must be an integer"):
            derivatives(40, True, x)
        assert derivatives(40, 1, x) is not None


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


def mp_deficit(p, mp, solve=True):
    """pi/4 - area - 5 pi^3/48n^2 of the family at p's free parameters, in mpmath.

    The caller sets the precision (``mp.workdps(50)``).  The tail angle is
    recomputed from the angle sum and gamma_last solved from the closure
    x_rp + sin(S_rp - beta/2) / (2 cos(beta/2)) = 0 by ``mp.findroot``,
    started at p's float root, so the error of that root is seen too.  With
    ``solve`` false, p's own float gamma_last is taken instead, and only the
    rounding of the area's terms is seen.
    """
    m = p.n // 2
    tail = m - p.r - 1 if p.r % 2 == 0 else m - p.r
    beta = (mp.pi / 2 - mp.mpf(p.alpha) - 2 * mp.fsum(map(mp.mpf, p.betas))) / tail
    bs = [mp.mpf(b) for b in p.betas] + ([beta] if p.r % 2 else [])

    def walk(gamma, trig):
        """The prefix angles, S_rp and one coordinate of vertices 0..rp+1:
        the sums of the steps (-1)^j trig(S_j)."""
        th = [mp.mpf(p.alpha)]
        for b, g in zip(bs, [*map(mp.mpf, p.gammas_free), gamma]):
            th += [b + g, b - g]
        s = mp.mpf(0)
        coord = [mp.mpf(0)]
        for j, t in enumerate(th):
            s += t
            coord.append(coord[-1] + (-1 if j % 2 else 1) * trig(s))
        return th, s, coord

    den = 2 * mp.cos(beta / 2)

    def closure(gamma):
        _, s, x = walk(gamma, mp.sin)
        return x[-2] + mp.sin(s - beta / 2) / den

    gamma = mp.mpf(p.gamma_last_derived or 0.0)
    if p.r and solve:
        gamma = mp.findroot(closure, (gamma, gamma + mp.pi / p.n * mp.mpf("1e-3")))
    th, s, x = walk(gamma, mp.sin)
    y = walk(gamma, mp.cos)[2]
    tri = x[1] + mp.fsum(x[k + 1] * y[k - 1] - y[k + 1] * x[k - 1] for k in range(2, len(th)))
    half = mp.tan(beta / 2)
    correction = (x[-2] * mp.sin(s) + y[-2] * mp.cos(s) + mp.mpf(1) / 2) * half
    area = (m - len(th)) * (mp.sin(beta) - half) + tri - correction
    return mp.pi / 4 - area - 5 * mp.pi**3 / (48 * p.n**2)


class TestPlainFloatOracles:
    """The plain-float family against 50-digit mpmath (``mp_deficit``)."""

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
                exact = mp_deficit(p, mpmath)
                rel = abs((area_deficit(p) - exact) / exact)
                assert rel <= bound, (r, float(rel))

    def test_deficit_near_the_optimum(self):
        # 30 points within a relative 1e-9 of the r = 16 optimum at n =
        # 20000: with the triangles formed from small differences the worst
        # relative rounding is 1.9e-7, with plain cross products 2.7e-6.
        # The oracle takes each point's own gamma_last: gamma_last is about
        # 1.8e-11 here, and the float closure residual, whose terms are
        # O(1e-3), is flat over several of their ulps around its root, so
        # the root is resolved to about 1e-18, up to 2.8e-6 of the deficit,
        # which would hide the rounding this test measures
        mpmath = pytest.importorskip("mpmath")
        n, r = 20000, 16
        x0 = params_to_vector(reduced.best_params(n, r))
        rng = np.random.default_rng(1)
        worst = 0.0
        with mpmath.workdps(50):
            for _ in range(30):
                x = x0 * (1 + 1e-9 * rng.uniform(-1, 1, len(x0)))
                p = derive(params_from_vector(n, r, x))
                exact = mp_deficit(p, mpmath, solve=False)
                worst = max(worst, float(abs((area_deficit(p) - exact) / exact)))
        assert worst <= 5e-7

    def test_g(self):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(50):
            for beta in np.geomspace(1e-9, 1.0, 15).tolist():
                b = mpmath.mpf(beta)
                exact = mpmath.sin(b) - mpmath.tan(b / 2) - b / 2
                rel = abs((_g(beta) - exact) / exact)
                assert rel <= (4e-16 if beta < 0.02 else 1e-12), (beta, float(rel))


def test_deficit_resolved_to_n_1e6(monkeypatch):
    """The family's optimum and deficit over 200 seeded draws up to n = 1e6.

    r is uniform on 1..16 and n even and log-uniform on [2r + 4, 1e6].  Each
    box solve stops on ``STOP_CONVERGED``, each deficit is positive and
    within a per-decade relative bound of the 50-digit ``mp_deficit``, which
    solves the closure itself, and for n <= 1e5 ``construct_Q`` gives a
    valid polygon.  The worst errors seen over seeds 1-5 and 11 were 2.4e-7
    below n = 1e4, 2.3e-5 below 1e5 and 1.8e-3 below 1e6, where the rounding
    of the plain-double prefix terms sets them; the bounds leave a margin of
    4x, 4x and 2.8x.  A root solve that stops short of the deficit's scale
    fails them (an absolute tolerance of 1e-15 gave 7.1e-6 below 1e4 and
    deficits <= 0 past 1e5).
    """
    mpmath = pytest.importorskip("mpmath")
    diags = record_box_solves(monkeypatch)
    rng = np.random.default_rng(11)
    bounds = ((1e4, 1e-6), (1e5, 1e-4), (1e6 + 1, 5e-3))
    with mpmath.workdps(50):
        for _ in range(200):
            r = int(rng.integers(1, MAX_TABULATED_R + 1))
            v = rng.uniform(math.log(2 * r + 4), math.log(1e6))
            n = min(10**6, max(2 * r + 4, 2 * round(math.exp(v) / 2)))
            p = best_params(n, r)
            deficit = area_deficit(p)
            exact = mp_deficit(p, mpmath)
            bound = next(b for top, b in bounds if n < top)
            assert deficit > 0, (n, r)
            assert abs((deficit - exact) / exact) <= bound, (n, r, deficit, float(exact))
            if n <= 10**5:
                assert construct_Q(n, r)[1].is_valid, (n, r)
    assert len(diags) >= 200
    assert all(d.stop_reason == STOP_CONVERGED for d in diags)


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

    def test_memo_stores_zero_without_its_sign(self, monkeypatch):
        x = start_vector(40, 5)
        x[3] = 0.0  # the first free gamma, at its lower bound
        pos = params_from_vector(40, 5, x)
        neg = replace(pos, gammas_free=(-0.0, pos.gammas_free[1]))
        # -0.0 is stored as 0.0: the two points have identical bits (repr
        # shows the sign of a zero and round-trips every float)
        assert math.copysign(1.0, neg.gammas_free[0]) == 1.0
        assert repr(neg) == repr(pos)
        derives = count_derives(monkeypatch)
        area = reduced.objective(40, 5, x)
        first = reduced._last_derived[1]
        # the vector with -0.0 is served the point of the one with 0.0, and
        # its area from that point's sums
        x_neg = x.copy()
        x_neg[3] = -0.0
        assert reduced.objective(40, 5, x_neg) == area
        assert reduced._last_derived[1] is first and derives == [first]
        assert math.copysign(1.0, first.gammas_free[0]) == 1.0
        # a bit-identical input, even a new object, is served from the memo
        assert reduced._derived(40, 5, x.tolist()) is first and len(derives) == 1


class TestOneWalkPerPoint:
    """``derive`` walks a point's prefix once and keeps the walk; the area,
    the deficit, ``expand_angles`` and ``derivatives`` read it."""

    @staticmethod
    def spy(monkeypatch):
        """Record (angles walked, whether the walk starts afresh) for each
        ``walk_chain`` call that ``reduced`` makes."""
        calls = []
        real_walk_chain = reduced.walk_chain

        def walk_chain(theta, walk=None):
            calls.append((len(theta), walk is None))
            return real_walk_chain(theta, walk)

        monkeypatch.setattr(reduced, "walk_chain", walk_chain)
        return calls

    @pytest.mark.parametrize("n, r", [(6, 0), (12, 4), (40, 5), (1000, 16)])
    def test_one_walk_per_derive_miss(self, monkeypatch, n, r):
        # every derive (each one a miss of the vector memo) starts one walk
        # and steps each prefix angle once; nothing else in the family's
        # solve walks the prefix
        monkeypatch.setattr(reduced, "_last_derived", ((), None))
        calls = self.spy(monkeypatch)
        derives = count_derives(monkeypatch)
        construct_Q(n, r)
        prefix = 2 * ((r + 1) // 2) + 1
        assert derives
        assert sum(fresh for _, fresh in calls) == len(derives)
        assert sum(m for m, _ in calls) == len(derives) * prefix

    def test_readers_walk_nothing(self, monkeypatch):
        n, r = 40, 5
        vec = start_vector(n, r)
        d = reduced._derived(n, r, vec)
        calls = self.spy(monkeypatch)
        reduced_area(d)
        area_deficit(d)
        expand_angles(d)
        _, hessian = derivatives(n, r, vec)
        hessian()
        assert calls == []

    def test_readers_refuse_a_point_derive_did_not_make(self, monkeypatch):
        n, r = 40, 5
        vec = start_vector(n, r)
        d = derive(params_from_vector(n, r, vec))
        # the memos hold d's area and deficit: a copy equal to d must still
        # be refused, not served from them
        reduced_area(d)
        area_deficit(d)
        copies = [
            replace(d),
            ReducedParams(n, r, d.alpha, d.betas, d.gammas_free, d.beta_derived,
                          d.gamma_last_derived),
        ]
        for copy in copies:
            assert copy == d and copy._walk is None
            for read in (reduced_area, area_deficit, expand_angles):
                with pytest.raises(ValueError, match="derive the parameters before"):
                    read(copy)
        # ``derivatives`` derives its own point; hand it the copy instead,
        # from an empty memo
        real_derive = reduced.derive
        monkeypatch.setattr(reduced, "_last_derived", ((), None))
        monkeypatch.setattr(reduced, "derive", lambda p: replace(real_derive(p)))
        with pytest.raises(ValueError, match="derive the parameters before differentiating"):
            derivatives(n, r, vec)
