"""Symmetric skeleton polygons: coordinates, areas, and validity checks.

A polygon here has an even number n of sides, unit diameter, and a skeleton
(the graph of vertex pairs at distance exactly 1) consisting of an (n-1)-cycle
star plus one pendant edge lying on the polygon's axis of symmetry.  The whole
shape is determined by the n/2 turning angles of the star chain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

ANGLE_SUM_TOL = 1e-9
CLOSURE_TOL = 1e-9
MIRROR_TOL = 1e-12
SMALL_TOL = 1e-9
_BOUND_SLACK = 1e-9
_EPS = float(np.finfo(float).eps)
# Shewchuk's ccwerrboundA: (3 + 16u) u with u = eps / 2
_CROSS_BOUND = (3 + 8 * _EPS) * _EPS / 2
# absolute rounding of products that underflow
_TINY = float(np.finfo(float).tiny)


class SkeletonError(ValueError):
    """The angles do not close up into a valid star skeleton."""


@dataclass(frozen=True)
class AngleVector:
    """Turning angles theta_0..theta_{n/2-1} of the star chain.

    theta_0 is the half-aperture at the apex (between the pendant edge and the
    first chain edge); theta_k is the interior turn at chain vertex k.  A
    feasible vector sums to pi/2, and the chain then ends on a horizontal step.
    """

    n: int
    theta: tuple[float, ...]

    def __post_init__(self):
        if self.n % 2 != 0 or self.n < 6:
            raise ValueError(f"n must be even and >= 6, got {self.n}")
        object.__setattr__(self, "theta", tuple(float(t) for t in self.theta))
        if len(self.theta) != self.n // 2:
            raise ValueError(f"expected {self.n // 2} angles, got {len(self.theta)}")
        if not (-_BOUND_SLACK <= self.theta[0] <= math.pi / 6 + _BOUND_SLACK):
            raise ValueError(f"theta_0 = {self.theta[0]} outside [0, pi/6]")
        for k, t in enumerate(self.theta[1:], start=1):
            if not (-_BOUND_SLACK <= t <= math.pi / 3 + _BOUND_SLACK):
                raise ValueError(f"theta_{k} = {t} outside [0, pi/3]")

    @property
    def angle_sum_residual(self) -> float:
        return math.fsum(self.theta) - math.pi / 2

    @property
    def closure_residual(self) -> float:
        m = self.n // 2
        x, _ = chain_coordinates(self.theta)
        return x[m - 1] - half_sign(self.n)


@dataclass(frozen=True)
class SmallPolygon:
    """An n-gon with its unit-distance skeleton and convex boundary order."""

    n: int
    vertices: tuple[tuple[float, float], ...]
    skeleton_edges: tuple[tuple[int, int], ...]
    boundary: tuple[int, ...]


@dataclass(frozen=True)
class AreaReport:
    area: float
    upper_bound: float
    gap: float
    diameter: float
    edge_error: float
    is_convex: bool
    is_symmetric: bool
    is_small: bool

    @property
    def is_valid(self) -> bool:
        return self.is_convex and self.is_symmetric and self.is_small


def upper_bound(n: int) -> float:
    """Area bound no unit-diameter n-gon (n even) can reach."""
    _require_even(n, minimum=6)
    return n / 2 * math.sin(math.pi / n) - (n - 1) / 2 * math.tan(math.pi / (2 * n - 2))


def regular_area(n: int) -> float:
    """Area of the regular unit-diameter n-gon, n even."""
    _require_even(n, minimum=4)
    return n / 8 * math.sin(2 * math.pi / n)


def half_sign(n: int) -> float:
    """The required x-coordinate of chain vertex n/2 - 1: +1/2 or -1/2."""
    return 0.5 if (n // 2) % 2 == 0 else -0.5


def chain_coordinates(theta) -> tuple[np.ndarray, np.ndarray]:
    """Vertices 0..m of the star chain from its m turning angles.

    Steps are unit vectors that alternate direction: step j points at angle
    (sum of the first j+1 turns) from the +y axis, flipped every other step.
    """
    th = np.asarray(theta, dtype=float)
    s = np.cumsum(th)
    sign = np.where(np.arange(len(th)) % 2 == 0, 1.0, -1.0)
    x = np.concatenate(([0.0], np.cumsum(sign * np.sin(s))))
    y = np.concatenate(([0.0], np.cumsum(sign * np.cos(s))))
    return x, y


def skeleton_edge_list(n: int) -> tuple[tuple[int, int], ...]:
    """The (n-1)-cycle v_0 v_1 ... v_{n-2} plus the pendant edge v_0 v_{n-1}."""
    edges = [(k, k + 1) for k in range(n - 2)]
    edges.append((n - 2, 0))
    edges.append((0, n - 1))
    return tuple(edges)


def boundary_order(vertices) -> tuple[int, ...]:
    """Convex boundary order by polar angle about the vertex centroid.

    Ties in angle keep index order; the order starts at vertex 0.
    """
    pts = np.asarray(vertices, dtype=float)
    cx, cy = pts.mean(axis=0)
    order = np.argsort(np.arctan2(pts[:, 1] - cy, pts[:, 0] - cx), kind="stable")
    return tuple(np.roll(order, -int(np.flatnonzero(order == 0)[0])).tolist())


def polygon_from_vertices(n: int, vertices) -> SmallPolygon:
    """Assemble a SmallPolygon from raw vertices (standard skeleton indexing)."""
    _require_even(n, minimum=6)
    verts = tuple((float(x), float(y)) for x, y in vertices)
    if len(verts) != n:
        raise ValueError(f"expected {n} vertices, got {len(verts)}")
    return SmallPolygon(
        n=n,
        vertices=verts,
        skeleton_edges=skeleton_edge_list(n),
        boundary=boundary_order(verts),
    )


def vertices_from_angles(a: AngleVector) -> SmallPolygon:
    """Build the polygon: chain vertices 0..n/2, mirrors, and the apex (0, 1).

    Raises SkeletonError when the chain does not end at x = +-1/2, i.e. the
    horizontal closing edge of the star cannot exist for these angles.
    """
    if abs(a.angle_sum_residual) > ANGLE_SUM_TOL:
        raise ValueError(
            f"angles sum to pi/2 + {a.angle_sum_residual:.3e}; not a closed star"
        )
    n, m = a.n, a.n // 2
    x, y = chain_coordinates(a.theta)
    residual = x[m - 1] - half_sign(n)
    if abs(residual) > CLOSURE_TOL:
        raise SkeletonError(
            f"chain midpoint x = {x[m - 1]:.12f}, expected {half_sign(n):+.1f} "
            f"(residual {residual:.3e})"
        )
    verts = np.zeros((n, 2))
    verts[: m + 1, 0] = x
    verts[: m + 1, 1] = y
    for k in range(m + 1, n - 1):
        verts[k, 0] = -verts[n - 1 - k, 0]
        verts[k, 1] = verts[n - 1 - k, 1]
    verts[n - 1] = (0.0, 1.0)
    return polygon_from_vertices(n, verts)


def area_dissection(a: AngleVector) -> float:
    """Polygon area as twice the sum of the star's triangle areas.

    The first triangle (apex, origin, first chain vertex) contributes
    sin(theta_0)/2; triangle k >= 2 spans the origin and chain vertices
    k-1, k+1, giving the cross-product form below.
    """
    m = a.n // 2
    x, y = chain_coordinates(a.theta)
    k = np.arange(2, m)
    return math.sin(a.theta[0]) + float(np.sum(x[k + 1] * y[k - 1] - y[k + 1] * x[k - 1]))


def area_shoelace(p: SmallPolygon) -> float:
    """Standard signed-area sum over the convex boundary, as an absolute value."""
    pts = np.asarray(p.vertices, dtype=float)[list(p.boundary)]
    return shoelace(pts)


def shoelace(points) -> float:
    """Absolute area of the ring ``points`` (in boundary order).

    The cross products are taken of coordinates relative to the vertex
    centroid.  For a convex ring the centroid is inside, so every term is
    positive and the sum does not cancel.  With raw coordinates it does:
    at n = 100000 that sum is 2e-11 off the exact area, this one 1e-15.
    """
    pts = np.asarray(points, dtype=float)
    pts = pts - pts.mean(axis=0)
    x, y = pts[:, 0], pts[:, 1]
    return 0.5 * abs(float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y)))


def _exact_cross(ax, ay, bx, by, cx, cy, dx, dy) -> Fraction:
    """(b - a) x (d - c) for float inputs, exactly."""
    f = Fraction
    return (f(bx) - f(ax)) * (f(dy) - f(cy)) - (f(by) - f(ay)) * (f(dx) - f(cx))


def _convex_hull(xs: list, ys: list) -> list:
    """Indices of the vertices of the convex hull, counter-clockwise.

    Andrew's monotone chain over points already sorted by (x, y): build the
    lower and the upper chain, dropping every point that does not make a
    strict left turn, so collinear points and duplicates are left out.  Each
    turn is (a - o) x (b - o) in floats, recomputed exactly when it is within
    the rounding bound ``_CROSS_BOUND``.
    """
    def chain(indices):
        out = []
        for k in indices:
            x, y = xs[k], ys[k]
            while len(out) >= 2:
                o, a = out[-2], out[-1]
                ox, oy = xs[o], ys[o]
                left = (xs[a] - ox) * (y - oy)
                right = (ys[a] - oy) * (x - ox)
                turn = left - right
                if abs(turn) <= _CROSS_BOUND * (abs(left) + abs(right)) + _TINY:
                    turn = _exact_cross(ox, oy, xs[a], ys[a], ox, oy, x, y)
                if turn > 0:
                    break
                out.pop()
            out.append(k)
        return out

    m = len(xs)
    lower = chain(range(m))
    upper = chain(range(m - 1, -1, -1))
    # each chain ends where the other starts; one point is its own hull
    return lower[:-1] + upper[:-1] or lower


def _antipodal_pairs(hull: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every antipodal vertex pair of a strictly convex counter-clockwise ring.

    Rotating calipers (Shamos 1978): for each edge i the far pointer j
    advances while vertex j + 1 lies farther from the edge's line than
    vertex j, i.e. while e_i x e_j > 0, and never moves back.  Both ends of
    edge i are antipodal to the vertex j where it stops.  Two vertices are
    antipodal when their ranges of outward edge normals overlap by at least
    a point (opposite directions), and then an end of one range lies in the
    other: the pair is met from that end's edge.  The signs are exact, as
    in ``_convex_hull``.
    """
    h = len(hull)
    xs, ys = hull[:, 0].tolist() * 2, hull[:, 1].tolist() * 2
    ex = np.diff(hull[:, 0], append=hull[0, 0]).tolist() * 2
    ey = np.diff(hull[:, 1], append=hull[0, 1]).tolist() * 2
    far = []
    j = 1 % h
    for i in range(h):
        exi, eyi = ex[i], ey[i]
        while j < i + h - 1:
            left = exi * ey[j]
            right = eyi * ex[j]
            turn = left - right
            if abs(turn) <= _CROSS_BOUND * (abs(left) + abs(right)) + _TINY:
                turn = _exact_cross(
                    xs[i], ys[i], xs[i + 1], ys[i + 1], xs[j], ys[j], xs[j + 1], ys[j + 1]
                )
            if turn <= 0:
                break
            j += 1
        far.append(j)
    ends = np.arange(h)
    far = np.array(far) % h
    return np.concatenate((ends, (ends + 1) % h)), np.concatenate((far, far))


def max_pairwise_distance(points) -> float:
    """Diameter of a point set: the largest distance between two of its points.

    Any non-empty set, in any order, duplicates and collinear points
    included.  The diameter is attained at a pair of antipodal vertices of
    the convex hull, points with parallel supporting lines through them, so
    only those pairs are measured: the hull by Andrew's monotone chain, the
    pairs by rotating calipers, both with exact orientation signs.  Each
    pair's distance is ``sqrt(dx**2 + dy**2)``, the expression an all-pairs
    search evaluates, so the result is the all-pairs value bit for bit
    unless a pair that is not antipodal comes within rounding (an ulp or
    so) of the diameter.  O(n log n) time and O(n) memory.
    """
    pts = np.asarray(points, dtype=float)
    if len(pts) == 0:
        raise ValueError("the diameter of an empty point set is undefined")
    by_xy = pts[np.lexsort((pts[:, 1], pts[:, 0]))]
    hull = by_xy[_convex_hull(by_xy[:, 0].tolist(), by_xy[:, 1].tolist())]
    i, j = _antipodal_pairs(hull)
    diff = hull[i] - hull[j]
    return float(np.sqrt((diff ** 2).sum(axis=-1)).max())


def validate(p: SmallPolygon) -> AreaReport:
    """Check diameter, convexity, mirror symmetry and skeleton edge lengths.

    Failures set flags; ``edge_error`` is the largest |length - 1| over the
    skeleton edges, reported for the caller to judge.  Every step is O(n) in
    memory and at most O(n log n) in time.
    """
    pts = np.asarray(p.vertices, dtype=float)
    n = p.n
    diameter = max_pairwise_distance(pts)

    ordered = pts[list(p.boundary)]
    edges = np.roll(ordered, -1, axis=0) - ordered
    nxt = np.roll(edges, -1, axis=0)
    cross = edges[:, 0] * nxt[:, 1] - edges[:, 1] * nxt[:, 0]
    # Rounding alone can make a cross product slightly negative.  With
    # coordinates of size up to s, storing a vertex moves it by up to
    # eps * s / sqrt(2), which moves the cross product of the edges a, b
    # around it by up to about 1.4 * eps * s * (|a| + |b|) over the three
    # vertices involved; evaluating it adds up to 1.5 * eps * |a| * |b|, which
    # is at most 2.1 * eps * s * (|a| + |b|) since |a|, |b| <= 2 * sqrt(2) * s.
    # The tolerance 4 * eps * s * (|a| + |b|) covers both.  It falls as 1/n;
    # the smallest real cross product of a constructed polygon falls as n^-3
    # but is still 1e5 times larger at n = 100000 (9e-15 against 6e-20).
    length = np.hypot(edges[:, 0], edges[:, 1])
    tol = 4 * _EPS * np.abs(ordered).max() * (length + np.roll(length, -1))
    is_convex = bool(np.all(cross >= -tol) or np.all(cross <= tol))

    mirror = np.concatenate((
        np.abs(pts[n - 2:0:-1, 0] + pts[1:n - 1, 0]),
        np.abs(pts[n - 2:0:-1, 1] - pts[1:n - 1, 1]),
    ))
    is_symmetric = bool(mirror.max() <= MIRROR_TOL)

    a, b = np.array(p.skeleton_edges).T
    edge_error = float(np.abs(np.hypot(*(pts[a] - pts[b]).T) - 1.0).max())

    area = area_shoelace(p)
    ub = upper_bound(n)
    return AreaReport(
        area=area,
        upper_bound=ub,
        gap=ub - area,
        diameter=diameter,
        edge_error=edge_error,
        is_convex=is_convex,
        is_symmetric=is_symmetric,
        is_small=diameter <= 1.0 + SMALL_TOL,
    )


def _require_even(n: int, minimum: int) -> None:
    if not isinstance(n, (int, np.integer)):
        raise ValueError(f"n must be an integer, got {n!r}")
    if n % 2 != 0 or n < minimum:
        raise ValueError(f"n must be even and >= {minimum}, got {n}")
