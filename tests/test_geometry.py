import math
import os
import re
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

from smallpoly import geometry, reference
from smallpoly.geometry import (
    AngleVector,
    SkeletonError,
    SmallPolygon,
    area_dissection,
    area_gradient_s,
    boundary_order,
    chain_coordinates,
    half_sign,
    max_pairwise_distance,
    polygon_from_vertices,
    regular_area,
    shoelace,
    upper_bound,
    validate,
    vertices_from_angles,
    walk_chain,
)
from smallpoly.reduced import construct_Q, construct_Q_theorem
from smallpoly.solver import solve_full_nlp
from tests.conftest import brute_force_diameter, mp_walk_oracle

LARGE_N = (20000, 100000)


@pytest.fixture(scope="module")
def large_polygons():
    """Constructed r = 16 polygons at the sizes where rounding matters most."""
    return {n: construct_Q(n, 16)[0] for n in LARGE_N}


def turn_cross(polygon):
    """Boundary ring and the cross product of the two edges at each vertex."""
    ring = polygon.boundary
    pts = polygon.points
    u, v, w = pts[np.roll(ring, 1)], pts[ring], pts[np.roll(ring, -1)]
    a, b = v - u, w - v
    return ring, a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0]


PENTAGON_STAR = AngleVector(6, (math.pi / 10, math.pi / 5, math.pi / 5))
HEXAGON_BEST = AngleVector(6, (0.3509301888703616, 0.653341777949459, 0.566524359975076))


class TestBounds:
    def test_upper_bound_values(self):
        assert upper_bound(6) == pytest.approx(0.6877007594, abs=1e-9)
        assert upper_bound(12) == pytest.approx(0.7621336536, abs=1e-9)
        assert upper_bound(120) == pytest.approx(0.7851731162, abs=1e-9)

    def test_regular_area_values(self):
        assert regular_area(8) == pytest.approx(0.7071067812, abs=1e-9)
        assert regular_area(6) == pytest.approx(0.6495190528, abs=1e-9)
        assert regular_area(4) == 0.5

    @pytest.mark.parametrize("bad", [5, 7, 4, -2, 0])
    def test_upper_bound_domain(self, bad):
        with pytest.raises(ValueError):
            upper_bound(bad)

    def test_regular_area_domain(self):
        with pytest.raises(ValueError):
            regular_area(7)

    def test_gap_matches_cubic_scaling(self):
        # upper_bound - regular_area approaches pi^3 / 16 n^2
        for n in (120, 400):
            ratio = (upper_bound(n) - regular_area(n)) / (math.pi**3 / (16 * n * n))
            assert abs(ratio - 1.0) < 0.05


class TestAngleVector:
    def test_validation(self):
        with pytest.raises(ValueError):
            AngleVector(7, (0.1,) * 3)
        with pytest.raises(ValueError):
            AngleVector(6, (0.1, 0.2))
        with pytest.raises(ValueError):
            AngleVector(6, (1.0, 0.3, 0.27))  # theta_0 beyond pi/6
        with pytest.raises(ValueError):
            AngleVector(6, (0.1, 1.2, 0.27))  # theta_1 beyond pi/3

    @pytest.mark.parametrize(
        "theta, named",
        [
            ((1.0, 0.3, 0.27), "theta_0 = 1.0 outside [0, pi/6]"),
            ((0.1, 1.2, 0.27), "theta_1 = 1.2 outside [0, pi/3]"),
            ((0.1, 0.2, -0.5), "theta_2 = -0.5 outside [0, pi/3]"),
            ((0.1, 1.2, 1.3), "theta_1 = 1.2"),
            ((0.6, 1.2, 1.3), "theta_0 = 0.6"),
            ((0.1, math.nan, 0.27), "theta_1 = nan"),
        ],
    )
    def test_bounds_name_first_offender(self, theta, named):
        with pytest.raises(ValueError, match=re.escape(named)):
            AngleVector(6, theta)

    def test_feasible_residuals(self):
        assert abs(PENTAGON_STAR.angle_sum_residual) < 1e-15
        x, _ = chain_coordinates(PENTAGON_STAR.theta)
        assert abs(x[2] - half_sign(6)) < 1e-15


class TestVertices:
    def test_first_vertex(self):
        p = vertices_from_angles(PENTAGON_STAR)
        t0 = PENTAGON_STAR.theta[0]
        assert p.points[1].tolist() == pytest.approx([math.sin(t0), math.cos(t0)], abs=1e-15)

    def test_pentagon_star_midpoint(self):
        x, _ = chain_coordinates(PENTAGON_STAR.theta)
        assert x[2] == pytest.approx(-0.5, abs=1e-15)
        assert x[2] == pytest.approx(math.sin(math.pi / 10) - math.sin(3 * math.pi / 10), abs=1e-15)

    def test_hexagon_unit_skeleton_and_diameter(self):
        p = vertices_from_angles(HEXAGON_BEST)
        verts = p.points
        for i, j in p.skeleton_edges:
            assert np.hypot(*(verts[i] - verts[j])) == pytest.approx(1.0, abs=1e-12)
        # brute force over all pairs as the independent diameter oracle
        dmax = max(
            math.dist(p.points[i], p.points[j])
            for i in range(p.n)
            for j in range(i + 1, p.n)
        )
        assert dmax == pytest.approx(1.0, abs=1e-12)

    def test_mirror_is_exact(self, feasible_sampler):
        for _ in range(20):
            p = vertices_from_angles(feasible_sampler()[1])
            n, m = p.n, p.n // 2
            for k in range(m + 1, n - 1):
                x, y = p.points[n - 1 - k].tolist()
                assert p.points[k].tolist() == [-x, y]

    def test_anchor_vertices(self):
        p = vertices_from_angles(HEXAGON_BEST)
        assert p.points[0].tolist() == [0.0, 0.0]
        assert p.points[p.n - 1].tolist() == [0.0, 1.0]

    def test_chain_midpoint_pair(self, feasible_sampler):
        # the two middle chain vertices sit at x = +-1/2 (order set by parity)
        from smallpoly.geometry import half_sign

        for _ in range(20):
            _, angles = feasible_sampler()
            m = angles.n // 2
            p = vertices_from_angles(angles)
            assert p.points[m - 1, 0] == pytest.approx(half_sign(angles.n), abs=1e-9)
            assert p.points[m, 0] == pytest.approx(-half_sign(angles.n), abs=1e-9)

    def test_closure_violation_raises(self):
        crooked = AngleVector(6, (0.30, 0.70, math.pi / 2 - 1.0))
        with pytest.raises(SkeletonError):
            vertices_from_angles(crooked)

    def test_angle_sum_violation_raises(self):
        with pytest.raises(ValueError):
            vertices_from_angles(AngleVector(6, (0.3, 0.3, 0.3)))


class TestAreas:
    def test_hexagon_areas(self):
        assert area_dissection(HEXAGON_BEST) == pytest.approx(0.6749814429, abs=1e-9)
        assert area_dissection(PENTAGON_STAR) == pytest.approx(0.6722882584, abs=1e-9)

    def test_shoelace_square(self):
        assert shoelace([(0, 0), (1, 0), (1, 1), (0, 1)]) == 1.0

    def test_shoelace_degenerate(self):
        assert shoelace([(0, 0), (1, 1), (2, 2)]) == 0.0

    def test_shoelace_hexagon(self):
        p = vertices_from_angles(HEXAGON_BEST)
        assert shoelace(p.points[p.boundary]) == pytest.approx(0.6749814429, abs=1e-9)

    def test_shoelace_any_rotation(self):
        # the same ring from any starting vertex, and with a translation
        square = np.array([(0, 0), (1, 0), (1, 1), (0, 1)], dtype=float)
        for k in range(4):
            assert shoelace(np.roll(square, k, axis=0) + 5.0) == 1.0

    def test_shoelace_is_the_rolled_sum(self):
        # the closed ring's slices give the np.roll formula's sum bit for bit
        for n, r in ((6, 1), (24, 4), (120, 16), (1000, 16)):
            p, _, _ = construct_Q(n, r)
            ring = p.points[p.boundary]
            x, y = (ring - ring.mean(axis=0)).T
            rolled = 0.5 * abs(float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y)))
            assert shoelace(ring) == rolled

    def test_shoelace_exact_at_n_100000(self, large_polygons):
        # the exact shoelace sum of the float vertices, in 50 digits
        mpmath = pytest.importorskip("mpmath")
        p = large_polygons[100000]
        ring = p.points[p.boundary]
        with mpmath.workdps(50):
            x = [mpmath.mpf(v) for v in ring[:, 0]]
            y = [mpmath.mpf(v) for v in ring[:, 1]]
            terms = (x[k - 1] * y[k] - x[k] * y[k - 1] for k in range(len(x)))
            exact = abs(mpmath.fsum(terms)) / 2
            assert abs(mpmath.mpf(shoelace(ring)) - exact) <= 1e-14

    def test_dissection_matches_shoelace(self, feasible_sampler):
        for _ in range(200):
            _, angles = feasible_sampler()
            poly = vertices_from_angles(angles)
            assert abs(area_dissection(angles) - shoelace(poly.points[poly.boundary])) <= 1e-12

    @pytest.mark.parametrize("m", [3, 30, 256])
    def test_walk_against_mpmath(self, m):
        # whole chains up to the full program's 256 angles: the triangle sum
        # is the dissection area, and 16 entries of its gradient in the
        # partial sums (all at m = 3) match 50-digit central differences,
        # to the bounds of the prefix test (measured worst 2.5 and 13.7 eps)
        mpmath = pytest.importorskip("mpmath")
        theta = np.random.default_rng(m).uniform(0.0, math.pi / (m - 0.5), m)
        S, x, y, tri = walk_chain(theta)
        components = sorted(set(np.linspace(0, m - 1, 16).astype(int).tolist()))
        grad = area_gradient_s(x, y)[2]
        with mpmath.workdps(50):
            exact_tri, exact_grad = mp_walk_oracle(S, mpmath, components)
            assert abs(tri - exact_tri) <= 8 * np.spacing(1.0)
            for j, exact in zip(components, exact_grad):
                assert abs(grad[j] - exact) <= 32 * np.spacing(1.0), j

    def test_triangle_terms_sine_difference_form(self, feasible_sampler):
        # each cross-product triangle term equals its telescoped sine sum;
        # the cross-product form is the canonical evaluation, this identity
        # is exercised as a property only
        for _ in range(30):
            _, angles = feasible_sampler()
            th = angles.theta
            m = angles.n // 2
            x, y = chain_coordinates(th)
            for k in range(2, m):
                cross = x[k + 1] * y[k - 1] - y[k + 1] * x[k - 1]
                sines = 0.0
                for i in range(0, k - 1):
                    s1 = sum(th[k - j] for j in range(0, i + 2))
                    s2 = sum(th[k - j] for j in range(1, i + 2))
                    sines += (-1) ** i * (math.sin(s1) - math.sin(s2))
                assert cross == pytest.approx(sines, abs=1e-13)


class TestDiameter:
    def test_degenerate_sets(self):
        assert max_pairwise_distance([(0.3, 0.7)]) == 0.0
        assert max_pairwise_distance([(0.3, 0.7)] * 5) == 0.0
        line = [(0.1 * k, 0.3 * k) for k in (4, 0, 7, 2, 7)]
        assert max_pairwise_distance(line) == brute_force_diameter(line)
        # nearly collinear: turns within rounding need the exact sign
        sliver = [(0.0, 1.0), (1.0, -162.0), (1e-05, 0.99837), (-2.0, 327.0)]
        assert max_pairwise_distance(sliver) == brute_force_diameter(sliver)
        with pytest.raises(ValueError):
            max_pairwise_distance(np.zeros((0, 2)))
        for bad in ([1.0, 2.0, 3.0], [[0.0], [1.0]], [[0, 0, 0], [1, 1, 1]]):
            with pytest.raises(ValueError, match=r"\(k, 2\) array"):
                max_pairwise_distance(bad)
        for bad in (math.inf, -math.inf, math.nan):
            with pytest.raises(ValueError, match="finite"):
                max_pairwise_distance([(0.0, 0.0), (1.0, 0.0), (bad, 1.0), (0.0, 1.0)])

    @pytest.mark.parametrize("n", [6, 8, 14, 40, 120, 500, 2000, 5000])
    def test_constructed_polygons_bit_for_bit(self, n):
        for r in sorted({0, 1, 3, 16} & set(range(n // 2 - 1))):
            verts = construct_Q(n, r)[0].points
            assert max_pairwise_distance(verts) == brute_force_diameter(verts)

    def test_random_sets_bit_for_bit(self):
        rng = np.random.default_rng(7)
        for trial in range(300):
            k = int(rng.integers(1, 80))
            t = np.sort(rng.uniform(0.0, 2 * np.pi, k))
            radius = rng.uniform(0.5, 1.0, (k, 1)) if trial % 2 else 1.0
            pts = np.c_[np.cos(t), np.sin(t)] * radius  # convex, then star-shaped
            pts = np.r_[pts, pts[: k // 3]]  # duplicates
            rng.shuffle(pts)
            assert max_pairwise_distance(pts) == brute_force_diameter(pts)


def far_low_closed_arc(k=2048):
    """A convex arc closed by one far point below the arc's last tangent.

    The lower hull follows the arc up to the tangent from the far point;
    the stack pops the arc's last points, past that tangent, one after the
    other when the far point comes.  A hull that prunes every reflex turn
    of a ring at once would lose only one of them per pass.  The
    coordinates are dyadic, so every turn is exact in floats.
    """
    t = np.arange(k + 1) / k
    return np.r_[np.c_[t, t * t - 5 * t], [(10.0, -35.0)]]


def sorted_distinct(points):
    """Coordinates of the distinct points, sorted by (x, y)."""
    pts = np.unique(np.asarray(points, dtype=float), axis=0)
    return pts[:, 0], pts[:, 1]


def gift_wrapping_hull(x, y):
    """Hull vertices of sorted distinct points by Jarvis's march, in Fractions.

    From each vertex the next is the point that no other lies right of,
    the farthest one on a tie, so collinear points are left out.  The walk
    starts at the first point, a vertex, and goes counter-clockwise.
    """
    px, py = [Fraction(v) for v in x], [Fraction(v) for v in y]
    hull = [0]
    while True:
        o = hull[-1]
        best = None
        for k in range(len(px)):
            if k == o:
                continue
            if best is not None:
                bx, by = px[best] - px[o], py[best] - py[o]
                kx, ky = px[k] - px[o], py[k] - py[o]
                turn = bx * ky - by * kx
                if turn > 0 or (turn == 0 and kx * kx + ky * ky <= bx * bx + by * by):
                    continue
            best = k
        if best in (None, 0):
            return hull
        hull.append(best)


def sequential_far(x, y):
    """Far pointers of the sequential calipers sweep, with signs in Fractions."""
    h = len(x)
    px, py = [Fraction(v) for v in x], [Fraction(v) for v in y]
    ex = [px[(k + 1) % h] - px[k] for k in range(h)]
    ey = [py[(k + 1) % h] - py[k] for k in range(h)]
    far, j = [], 1
    for i in range(h):
        while j < i + h - 1 and ex[i] * ey[j % h] - ey[i] * ex[j % h] > 0:
            j += 1
        far.append(j % h)
    return far


def regular_ring(k):
    """The regular k-gon on the unit circle, counter-clockwise."""
    t = 2 * np.pi * np.arange(k) / k
    return np.c_[np.cos(t), np.sin(t)]


def dyadic_ring(k, rng):
    """A centrally symmetric 2k-gon on a dyadic grid, shuffled.

    Opposite edges are exactly parallel, so the calipers meet exact ties.
    """
    t = np.pi * np.arange(k) / k
    half = np.round(np.c_[np.cos(t), np.sin(t)] * 2**20) / 2**20
    ring = np.r_[half, -half]
    rng.shuffle(ring)
    return ring


def rectangle_with_side_points(rng):
    """An axis-aligned rectangle with extra dyadic points on its sides."""
    w, h = rng.integers(1, 64, 2) / 8
    s = rng.integers(0, 65, (4, int(rng.integers(0, 12)))) / 64
    pts = np.r_[
        [(0, 0), (w, 0), (w, h), (0, h)],
        np.c_[s[0] * w, 0 * s[0]], np.c_[s[1] * w, 0 * s[1] + h],
        np.c_[0 * s[2], s[2] * h], np.c_[0 * s[3] + w, s[3] * h],
    ]
    rng.shuffle(pts)
    return pts


class TestHullAndCalipers:
    def test_far_low_closed_arc(self):
        pts = far_low_closed_arc()
        assert max_pairwise_distance(pts) == brute_force_diameter(pts)

    def test_hull_matches_sequential_stack(self):
        # the stack's hull is the exact gift-wrapping hull, vertex for vertex
        rng = np.random.default_rng(5)
        sets = [far_low_closed_arc(256), rng.uniform(-1, 1, (500, 2))]
        sets += [rng.integers(-4, 5, (int(rng.integers(1, 60)), 2)) / 4 for _ in range(200)]
        sets += [rectangle_with_side_points(rng) for _ in range(50)]
        for pts in sets:
            x, y = sorted_distinct(pts)
            assert geometry._convex_hull(x, y).tolist() == gift_wrapping_hull(x, y)

    @pytest.mark.parametrize("k", [2, 3, 4, 5, 8, 17, 64])
    def test_parallel_opposite_edges(self, k):
        rng = np.random.default_rng(k)
        for _ in range(5):
            ring = dyadic_ring(k, rng)
            assert max_pairwise_distance(ring) == brute_force_diameter(ring)
            x, y = sorted_distinct(ring)
            hull = geometry._convex_hull(x, y)
            assert len(hull) == 2 * k
            far = geometry._antipodal_pairs(x[hull], y[hull])[1][: 2 * k]
            assert far.tolist() == sequential_far(x[hull], y[hull])

    def test_rectangles_with_collinear_points(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            pts = rectangle_with_side_points(rng)
            assert max_pairwise_distance(pts) == brute_force_diameter(pts)
            x, y = sorted_distinct(pts)
            assert len(geometry._convex_hull(x, y)) == 4

    def test_calipers_match_sequential_sweep(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            k = int(rng.integers(3, 60))
            t = np.sort(rng.uniform(0.0, 2 * np.pi, k))
            x, y = sorted_distinct(np.c_[np.cos(t), np.sin(t)] * rng.uniform(0.1, 10))
            hull = geometry._convex_hull(x, y)
            far = geometry._antipodal_pairs(x[hull], y[hull])[1][: len(hull)]
            assert far.tolist() == sequential_far(x[hull], y[hull])

    @pytest.mark.parametrize("case", ["first point repeated", "clockwise"])
    def test_calipers_refuse_a_ring_that_is_not_strictly_convex(self, case):
        # calipers that step forever on such a ring must fail the test, not
        # hang the suite: the ring runs in a child process with a timeout
        if case == "clockwise":
            ring = regular_ring(8)[::-1]
        else:
            ring = np.r_[regular_ring(9), regular_ring(9)[:1]]
        code = (
            "import sys\nimport numpy as np\nfrom smallpoly import geometry\n"
            f"x, y = np.array({ring.tolist()!r}).T\n"
            "try:\n    geometry._antipodal_pairs(x, y)\n"
            "except ValueError as e:\n    sys.exit(str(e))\n"
        )
        src = os.path.dirname(os.path.dirname(os.path.abspath(geometry.__file__)))
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=30
        )
        assert proc.returncode == 1
        assert "strictly convex counter-clockwise" in proc.stderr

    @pytest.mark.parametrize("count", [1, 2, 3, 50])
    def test_all_duplicates(self, count):
        assert max_pairwise_distance([(0.3, 0.7)] * count) == 0.0
        pair = [(0.3, 0.7)] * count + [(-1.5, 2.25)] * count
        assert max_pairwise_distance(pair) == brute_force_diameter(pair)


class TestValidate:
    def test_two_point_diameter(self):
        assert max_pairwise_distance([(0.0, 0.0), (0.0, 1.0)]) == 1.0

    def test_hexagon_report(self):
        report = validate(vertices_from_angles(HEXAGON_BEST))
        assert report.is_small and report.is_convex and report.is_symmetric
        assert report.diameter == pytest.approx(1.0, abs=1e-12)
        assert report.gap >= 0.0

    def test_perturbed_vertex_not_small(self):
        p = vertices_from_angles(HEXAGON_BEST)
        verts = p.points.tolist()
        verts[2][0] -= 0.1  # push one flank vertex outward
        report = validate(polygon_from_vertices(p.n, verts))
        assert not report.is_small

    @pytest.mark.parametrize("k", [1, 2, 5, 6, 9, 10])
    def test_broken_mirror_pair(self, k):
        p = construct_Q(12, 3)[0]
        verts = np.array(p.points)
        verts[k, 1] += 1e-9
        assert not validate(polygon_from_vertices(p.n, verts)).is_symmetric

    def test_edge_error(self):
        p = construct_Q(40, 4)[0]
        assert validate(p).edge_error <= 1e-15
        shrunk = polygon_from_vertices(p.n, 0.9 * p.points)
        assert validate(shrunk).edge_error == pytest.approx(0.1, abs=1e-12)

    @pytest.mark.parametrize("edge", ["pendant", "closing"])
    def test_edge_error_sees_one_moved_end(self, edge):
        p = construct_Q(40, 4)[0]
        n = p.n
        verts = np.array(p.points)
        if edge == "pendant":
            verts[n - 1, 1] += 1e-6  # the apex, along the axis
        else:
            # v_{n-2} along the closing edge (n - 2, 0), away from v_0
            step = verts[n - 2] - verts[0]
            verts[n - 2] += 1e-6 * step / np.hypot(*step)
        moved = polygon_from_vertices(n, verts)
        assert validate(moved).edge_error == pytest.approx(1e-6, abs=1e-12)

    @pytest.mark.parametrize("n", LARGE_N)
    def test_large_constructions_valid(self, large_polygons, n):
        report = validate(large_polygons[n])
        assert report.is_convex and report.is_symmetric and report.is_small
        assert report.edge_error <= 1e-12

    @pytest.mark.parametrize("n", LARGE_N)
    def test_dent_is_not_convex(self, large_polygons, n):
        # push the chain vertex with the smallest turn, and its mirror,
        # inward until its cross product is minus what it was
        p = large_polygons[n]
        ring, cross = turn_cross(p)
        chain = (ring != 0) & (ring != n - 1)
        k = np.flatnonzero(chain)[np.argmin(cross[chain])]
        smallest = cross[k]
        pts = np.array(p.points)
        chord = pts[ring[(k + 1) % n]] - pts[ring[k - 1]]
        length = np.hypot(*chord)
        shift = 2 * smallest / length * np.array([-chord[1], chord[0]]) / length
        pts[ring[k]] += shift
        pts[n - 1 - ring[k]] += shift * [-1.0, 1.0]
        dented = polygon_from_vertices(n, pts)
        assert turn_cross(dented)[1][k] == pytest.approx(-smallest, rel=1e-3)
        report = validate(dented)
        assert report.is_symmetric
        assert not report.is_convex

    def test_dent_below_rounding_is_not_convex(self):
        # the midpoint of the bottom edge moved inward by 2^-55: its turn,
        # -2^-55, is far inside the float tolerance 4 eps s (|a| + |b|) that
        # convexity was once judged by, but its exact sign is negative
        dent = 2.0**-55
        pts = [(0.0, 0.0), (0.5, dent), (1.0, 0.0), (1.0, 1.0), (0.5, 1.5), (0.0, 1.0)]
        assert dent < 4 * np.finfo(float).eps * 1.5 * 2 * math.hypot(0.5, dent)
        p = polygon_from_vertices(6, pts)
        assert p.boundary.tolist() == [0, 1, 2, 3, 4, 5]
        assert not validate(p).is_convex
        flat = polygon_from_vertices(6, [(x, 0.0 if y == dent else y) for x, y in pts])
        assert validate(flat).is_convex

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_vertex_is_refused(self, bad):
        # the one check of a vertex array refuses it before validate sees it:
        # no RuntimeWarning from the ring (the suite runs with warnings as
        # errors), no OverflowError from an exact sign
        pts = np.array(construct_Q(12, 3)[0].points)
        pts[4, 0] = bad
        with pytest.raises(ValueError, match="finite"):
            validate(polygon_from_vertices(12, pts))

    def test_mirror_symmetry_by_construction(self, feasible_sampler):
        for _ in range(50):
            _, angles = feasible_sampler()
            report = validate(vertices_from_angles(angles))
            assert report.is_symmetric
            assert report.is_convex
            assert report.is_small


@pytest.fixture
def diameter_calls(monkeypatch):
    """Count the calls of the general diameter ``max_pairwise_distance``."""
    calls = []
    general = geometry.max_pairwise_distance

    def spy(points):
        calls.append(len(points))
        return general(points)

    monkeypatch.setattr(geometry, "max_pairwise_distance", spy)
    return calls


class TestRing:
    def test_constructor_takes_no_ring(self):
        # the ring comes from the points alone, so no caller can pass another
        p = vertices_from_angles(PENTAGON_STAR)
        with pytest.raises(TypeError):
            SmallPolygon(n=p.n, points=p.points, boundary=p.boundary)

    def test_star_ring_winds_three_times(self):
        # every turn of the {10/3} star ring of the decagon is left, as on
        # its boundary ring; only the winding count tells the two apart
        p = construct_Q(10, 3)[0]
        ring = p.boundary
        for order, once in ((ring, True), ([ring[3 * i % 10] for i in range(10)], False)):
            x, y = p.points[list(order) + list(order[:2])].T
            turn = geometry._cross_sign(
                x[:-2], y[:-2], x[1:-1], y[1:-1], x[1:-1], y[1:-1], x[2:], y[2:]
            )
            assert np.all(turn > 0)
            assert geometry._winds_once(y[:-1]) == once


@pytest.fixture(scope="module")
def ring_corpus(large_polygons):
    """The 138 polygons whose diameter ``validate`` takes from the ring.

    The 94 family cells of table5, the 20 headline polygons that warm-start
    its full programs, the 20 full-program optima, and r = 16 at n = 1000,
    2000, 5000 and 100000.
    """
    polygons = []
    for n, row in sorted(reference.AREA_COMPARISON.items()):
        polygons += [construct_Q(n, r)[0] for r, ref in enumerate(row.q) if ref is not None]
        polygons.append(construct_Q_theorem(n)[0])
        polygons.append(vertices_from_angles(solve_full_nlp(n)[0]))
    polygons += [construct_Q(n, 16)[0] for n in (1000, 2000, 5000)]
    polygons.append(large_polygons[100000])
    return polygons


class TestRingDiameter:
    def test_corpus_takes_the_ring_path_bit_for_bit(self, ring_corpus, monkeypatch):
        assert len(ring_corpus) == 138
        general = geometry.max_pairwise_distance
        monkeypatch.setattr(geometry, "max_pairwise_distance", None)
        reports = [validate(p) for p in ring_corpus]
        monkeypatch.undo()
        for p, report in zip(ring_corpus, reports):
            assert report.is_valid
            assert report.diameter == general(p.points)

    def test_corpus_rings_are_the_points_polar_order(self, ring_corpus):
        for p in ring_corpus:
            assert p.boundary.tolist() == boundary_order(p.points).tolist()

    @pytest.mark.parametrize("case", ["collinear", "duplicate", "reflex", "moved inside"])
    def test_other_rings_take_the_general_path(self, case, diameter_calls):
        hexagon = [(0.0, 0.0), (0.5, -0.25), (1.0, 0.0), (1.0, 1.0), (0.5, 1.5), (0.0, 1.0)]
        if case == "collinear":  # vertex 1 on the bottom edge
            p = polygon_from_vertices(6, hexagon[:1] + [(0.5, 0.0)] + hexagon[2:])
        elif case == "duplicate":  # a convex hexagon with two of its vertices twice
            p = polygon_from_vertices(8, [
                (0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.6, 1.6),
                (0.3, 1.5), (0.3, 1.5), (0.0, 1.0), (0.0, 1.0),
            ])
        elif case == "reflex":  # vertex 1 pushed in past the bottom edge
            p = polygon_from_vertices(6, hexagon[:1] + [(0.5, 0.25)] + hexagon[2:])
        else:  # moved inside
            p = construct_Q(40, 4)[0]
            pts = np.array(p.points)
            pts[7] = 0.5 * pts[7] + 0.5 * pts.mean(axis=0)
            p = polygon_from_vertices(40, pts)
        diameter_calls.clear()  # building p may validate other polygons
        report = validate(p)
        assert diameter_calls == [p.n]
        assert report.diameter == brute_force_diameter(p.points)
        assert report.is_convex == (case in ("collinear", "duplicate"))


def sorted_boundary(vertices):
    """Boundary order by Python's stable sort on the polar angle."""
    pts = np.asarray(vertices, dtype=float)
    cx, cy = pts.mean(axis=0)
    ang = np.arctan2(pts[:, 1] - cy, pts[:, 0] - cx)
    order = sorted(range(len(pts)), key=lambda i: ang[i])
    k = order.index(0)
    return order[k:] + order[:k]


class TestBoundaryOrder:
    def test_matches_stable_sort(self, feasible_sampler, large_polygons):
        polygons = [vertices_from_angles(feasible_sampler()[1]) for _ in range(30)]
        polygons.append(large_polygons[20000])
        for p in polygons:
            assert boundary_order(p.points).tolist() == sorted_boundary(p.points)

    def test_random_sets_with_ties(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            pts = rng.uniform(-1.0, 1.0, (int(rng.integers(2, 40)), 2))
            pts = np.r_[pts, pts[::3]]  # repeated points share an angle
            rng.shuffle(pts)
            order = boundary_order(pts)
            assert isinstance(order, np.ndarray) and order.dtype.kind == "i"
            assert not order.flags.writeable
            assert order.tolist() == sorted_boundary(pts)
