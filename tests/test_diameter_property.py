"""Property tests: the hull-and-calipers diameter equals the all-pairs oracle."""

import math

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from smallpoly.geometry import max_pairwise_distance, polygon_from_vertices, validate  # noqa: E402
from tests.conftest import brute_force_diameter  # noqa: E402

COORD = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
POINT = st.tuples(COORD, COORD)
# a dyadic grid on which every cross product and squared distance is exact
GRID = st.integers(-(2**20), 2**20).map(lambda k: k / 2**20)


@st.composite
def point_sets(draw):
    kind = draw(st.sampled_from(["scattered", "few", "duplicates", "collinear", "grid"]))
    if kind == "scattered":  # convex and non-convex alike
        return draw(st.lists(POINT, min_size=1, max_size=40))
    if kind == "few":
        return draw(st.lists(POINT, min_size=1, max_size=3))
    if kind == "duplicates":
        base = draw(st.lists(POINT, min_size=1, max_size=8))
        picks = draw(st.lists(st.sampled_from(base), min_size=1, max_size=30))
        return base + picks
    if kind == "collinear":
        (ax, ay), (dx, dy) = draw(POINT), draw(POINT)
        ts = draw(st.lists(st.floats(-10, 10), min_size=1, max_size=30))
        return [(ax + t * dx, ay + t * dy) for t in ts]
    return draw(st.lists(st.tuples(GRID, GRID), min_size=1, max_size=40))


@settings(max_examples=500, deadline=None)
@given(point_sets())
def test_matches_all_pairs_bit_for_bit(points):
    assert max_pairwise_distance(points) == brute_force_diameter(points)


@st.composite
def convex_polygons(draw):
    """Even-n vertex lists on a rotated ellipse, in random index order.

    The vertices are in convex position at distinct angles of a 4096-step
    grid, so their polar order about the centroid is the boundary ring.  On
    a thin ellipse rounding may leave a turn flat or reflex, and
    ``validate`` then takes the general path.
    """
    n = 2 * draw(st.integers(3, 30))
    steps = draw(st.lists(st.integers(0, 4095), min_size=n, max_size=n, unique=True))
    a, b = draw(st.floats(0.01, 10.0)), draw(st.floats(0.01, 10.0))
    phi = draw(st.floats(0.0, math.pi))
    cx, cy = draw(st.floats(-10.0, 10.0)), draw(st.floats(-10.0, 10.0))
    c, s = math.cos(phi), math.sin(phi)
    vertices = []
    for k in steps:
        u, v = a * math.cos(2 * math.pi * k / 4096), b * math.sin(2 * math.pi * k / 4096)
        vertices.append((cx + u * c - v * s, cy + u * s + v * c))
    return n, vertices


@settings(max_examples=200, deadline=None)
@given(convex_polygons())
def test_validate_matches_all_pairs_on_convex_polygons(polygon):
    n, vertices = polygon
    p = polygon_from_vertices(n, vertices)
    assert validate(p).diameter == brute_force_diameter(p.points)
