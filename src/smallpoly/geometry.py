"""Symmetric skeleton polygons: coordinates, areas, and validity checks.

A polygon here has an even number n of sides, unit diameter, and a skeleton
(the graph of vertex pairs at distance exactly 1) consisting of an (n-1)-cycle
star plus one pendant edge lying on the polygon's axis of symmetry.  The whole
shape is determined by the n/2 turning angles of the star chain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
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
# whole-array pruning passes of a hull chain before the sequential stack
_PRUNE_PASSES = 8


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
        th = np.array(self.theta, dtype=float)
        if th.shape != (self.n // 2,):
            raise ValueError(f"expected {self.n // 2} angles, got {len(self.theta)}")
        object.__setattr__(self, "theta", tuple(th.tolist()))
        hi = np.full(len(th), math.pi / 3)
        hi[0] = math.pi / 6
        outside = np.flatnonzero(~((th >= -_BOUND_SLACK) & (th <= hi + _BOUND_SLACK)))
        if len(outside):
            k = int(outside[0])
            raise ValueError(
                f"theta_{k} = {self.theta[k]} outside [0, {'pi/6' if k == 0 else 'pi/3'}]"
            )

    @property
    def angle_sum_residual(self) -> float:
        return math.fsum(self.theta) - math.pi / 2

    @property
    def closure_residual(self) -> float:
        m = self.n // 2
        x, _ = chain_coordinates(self.theta)
        return x[m - 1] - half_sign(self.n)


@dataclass(frozen=True, eq=False)
class SmallPolygon:
    """An n-gon with its unit-distance skeleton and convex boundary order.

    ``points`` holds the vertices as one read-only (n, 2) float array, the
    form every check works on; ``vertices`` is the same coordinates as a
    tuple of pairs.  The skeleton depends on n alone (``skeleton_edge_list``).
    """

    n: int
    points: np.ndarray = field(repr=False)
    boundary: tuple[int, ...]

    @property
    def vertices(self) -> tuple[tuple[float, float], ...]:
        return tuple(map(tuple, self.points.tolist()))

    @property
    def skeleton_edges(self) -> tuple[tuple[int, int], ...]:
        return skeleton_edge_list(self.n)


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
    k = int(np.flatnonzero(order == 0)[0])
    return tuple(np.concatenate((order[k:], order[:k])).tolist())


def polygon_from_vertices(n: int, vertices) -> SmallPolygon:
    """Assemble a SmallPolygon from raw vertices (standard skeleton indexing)."""
    _require_even(n, minimum=6)
    pts = np.array(vertices, dtype=float)
    if pts.shape != (n, 2):
        raise ValueError(f"expected {n} (x, y) vertices, got an array of shape {pts.shape}")
    pts.flags.writeable = False
    return SmallPolygon(n=n, points=pts, boundary=boundary_order(pts))


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
    # vertex k > m mirrors vertex n - 1 - k
    verts[m + 1 : n - 1, 0] = -x[m - 2 : 0 : -1]
    verts[m + 1 : n - 1, 1] = y[m - 2 : 0 : -1]
    verts[n - 1] = (0.0, 1.0)
    return polygon_from_vertices(n, verts)


def area_dissection(a) -> float:
    """Polygon area as twice the sum of the star's triangle areas.

    The first triangle (apex, origin, first chain vertex) contributes
    sin(theta_0)/2; triangle k >= 2 spans the origin and chain vertices
    k-1, k+1, giving the cross-product form below.  Accepts an AngleVector
    or a raw sequence of angles (the sum is then over its chain alone).
    """
    theta = a.theta if isinstance(a, AngleVector) else a
    x, y = chain_coordinates(theta)
    k = np.arange(2, len(x) - 1)
    return math.sin(theta[0]) + float(np.sum(x[k + 1] * y[k - 1] - y[k + 1] * x[k - 1]))


def area_shoelace(p: SmallPolygon) -> float:
    """Standard signed-area sum over the convex boundary, as an absolute value."""
    return shoelace(p.points[list(p.boundary)])


def shoelace(points) -> float:
    """Absolute area of the ring ``points`` (in boundary order).

    The cross products are taken of coordinates relative to the vertex
    centroid.  For a convex ring the centroid is inside, so every term is
    positive and the sum does not cancel.  With raw coordinates it does:
    at n = 100000 that sum is 2e-11 off the exact area, this one 1e-15.
    """
    pts = np.asarray(points, dtype=float)
    pts = pts - pts.mean(axis=0)
    x, y = np.concatenate((pts, pts[:1])).T  # the ring, closed
    return 0.5 * abs(float(np.sum(x[:-1] * y[1:] - x[1:] * y[:-1])))


def _exact_cross(ax, ay, bx, by, cx, cy, dx, dy) -> Fraction:
    """(b - a) x (d - c) for float inputs, exactly."""
    f = Fraction
    return (f(bx) - f(ax)) * (f(dy) - f(cy)) - (f(by) - f(ay)) * (f(dx) - f(cx))


def _cross_sign(ax, ay, bx, by, cx, cy, dx, dy) -> np.ndarray:
    """The sign of (b - a) x (d - c), elementwise over broadcast float arrays.

    The float cross product decides every entry farther from zero than its
    rounding bound ``_CROSS_BOUND``; the few entries inside it are
    recomputed in ``Fraction``s, so every sign is exact.
    """
    left = (bx - ax) * (dy - cy)
    right = (by - ay) * (dx - cx)
    turn = left - right
    sign = np.sign(turn)
    unsure = np.abs(turn) <= _CROSS_BOUND * (np.abs(left) + np.abs(right)) + _TINY
    if np.count_nonzero(unsure):
        args = np.broadcast_arrays(ax, ay, bx, by, cx, cy, dx, dy)
        for k in np.flatnonzero(unsure).tolist():
            exact = _exact_cross(*(v[k] for v in args))
            sign[k] = (exact > 0) - (exact < 0)
    return sign


def _sequential_chain(xs: list, ys: list) -> list:
    """Andrew's monotone chain stack: positions of the strict left turns."""
    out = []
    for k, (x, y) in enumerate(zip(xs, ys)):
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


def _convex_hull(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Indices of the vertices of the convex hull, counter-clockwise.

    Andrew's monotone chain over distinct points sorted by (x, y): the
    lower chain runs through them in order and the upper chain back, each
    keeping only strict left turns, so collinear points are left out.  The
    line from the first point to the last splits the candidates of the two
    chains, which are then closed into one ring at those two points and
    pruned a whole pass at a time: every point but the two ends that does
    not make a strict left turn with its current neighbours goes at once.
    Such a point is no vertex of the hull of the points left, so dropping
    any number of them keeps the hull.  The points must be distinct, or
    two copies of a vertex witness each other and both go.  A chain can
    lose as few as one point per pass (a convex arc closed by one far
    point), so after ``_PRUNE_PASSES`` the survivors go through the
    sequential stack, which keeps the worst case O(n log n).  Turn signs
    are exact (``_cross_sign``).
    """
    m = len(x)
    if m < 3:
        return np.arange(m)
    # only points right of the line from the first point to the last can be
    # vertices of the lower chain, only points left of it of the upper one
    side = _cross_sign(x[0], y[0], x[-1], y[-1], x[0], y[0], x[1:-1], y[1:-1])
    lower, upper = np.flatnonzero(side < 0) + 1, np.flatnonzero(side > 0) + 1
    ring = np.concatenate(([0], lower, [m - 1], upper[::-1]))
    for _ in range(_PRUNE_PASSES):
        keep = (ring == 0) | (ring == m - 1)
        inner = ~keep
        around = np.concatenate((ring[-1:], ring, ring[:1]))
        o, a, b = around[:-2][inner], ring[inner], around[2:][inner]
        left = _cross_sign(x[o], y[o], x[a], y[a], x[o], y[o], x[b], y[b]) > 0
        if left.all():
            return ring
        keep[inner] = left
        ring = ring[keep]
    top = int(np.flatnonzero(ring == m - 1)[0])
    lower, upper = ring[: top + 1], np.append(ring[top:], 0)
    lower = lower[_sequential_chain(x[lower].tolist(), y[lower].tolist())]
    upper = upper[_sequential_chain(x[upper].tolist(), y[upper].tolist())]
    return np.concatenate((lower[:-1], upper[:-1]))


def _antipodal_pairs(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every antipodal vertex pair of a strictly convex counter-clockwise ring.

    Rotating calipers (Shamos 1978): the far pointer of edge i is the first
    edge j after it with e_i x e_j <= 0, the first vertex j from which the
    ring no longer moves away from the edge's line, and both ends of edge i
    are antipodal to vertex j.  Two vertices are antipodal when their ranges
    of outward edge normals overlap by at least a point (opposite
    directions), and then an end of one range lies in the other: the pair
    is met from that end's edge.  The edge directions increase around the
    ring, so each pointer is placed by a binary search on the unwrapped
    directions and then checked exactly, e_i x e_{j-1} > 0 and
    e_i x e_j <= 0; the few that fail step by one until both hold.  The
    pointers are those of the sequential sweep, which advances one pointer
    while e_i x e_j > 0.
    """
    h = len(x)
    ends = np.arange(h)
    if h < 3:  # a point or a segment
        return ends, ends[::-1]
    nxt = ends + 1
    nxt[-1] = 0
    xn, yn = x[nxt], y[nxt]
    # each turn of the ring is in (0, pi); clipping to [0, pi] keeps the
    # unwrapped directions increasing through the rounding of arctan2
    direction = np.arctan2(yn - y, xn - x)
    turn = np.mod(direction[1:] - direction[:-1] + np.pi / 2, 2 * np.pi) - np.pi / 2
    unwrapped = np.concatenate(([0.0], np.cumsum(np.minimum(np.maximum(turn, 0.0), np.pi))))
    far = np.searchsorted(
        np.concatenate((unwrapped, unwrapped + 2 * np.pi)), unwrapped + np.pi
    )
    # strict convexity puts the pointer between the next edge but one and
    # the previous edge
    far = np.minimum(np.maximum(far, ends + 2), ends + h - 1) % h
    todo = ends
    while len(todo):
        edge = x[todo], y[todo], xn[todo], yn[todo]
        j = far[todo]
        # e_i x e_j > 0: the ring still moves away from edge i at vertex j
        ahead = _cross_sign(*edge, x[j], y[j], xn[j], yn[j]) > 0
        j = j - 1  # -1 indexes the last vertex
        behind = _cross_sign(*edge, x[j], y[j], xn[j], yn[j]) <= 0
        far[todo] = (far[todo] + ahead - behind) % h
        todo = todo[ahead | behind]
    return np.concatenate((ends, nxt)), np.concatenate((far, far))


def max_pairwise_distance(points) -> float:
    """Diameter of a point set: the largest distance between two of its points.

    Any non-empty set of finite points, in any order, duplicates and
    collinear points included.  The diameter is attained at a pair of antipodal vertices of
    the convex hull, points with parallel supporting lines through them, so
    only those pairs are measured: the hull by Andrew's monotone chain, the
    pairs by rotating calipers, both with exact orientation signs and both
    in whole-array numpy passes.  The hull drops duplicate points, then
    every reflex turn at once, pass after pass, and hands what is left after
    ``_PRUNE_PASSES`` to the sequential stack (``_convex_hull``); the
    calipers place every far pointer by binary search and step the few
    misplaced ones (``_antipodal_pairs``).  Each pair's distance is
    ``sqrt(dx**2 + dy**2)``, the expression an all-pairs search evaluates,
    so the result is the all-pairs value bit for bit unless a pair that is
    not antipodal comes within rounding (an ulp or so) of the diameter.
    O(n log n) time, also on inputs that defeat the pruning, and O(n)
    memory.
    """
    pts = np.asarray(points, dtype=float)
    if len(pts) == 0:
        raise ValueError("the diameter of an empty point set is undefined")
    if not np.isfinite(pts).all():
        raise ValueError("the diameter needs finite coordinates")
    by_xy = pts[np.lexsort((pts[:, 1], pts[:, 0]))]
    distinct = np.concatenate(([True], np.any(by_xy[1:] != by_xy[:-1], axis=1)))
    x, y = by_xy[distinct].T
    hull = _convex_hull(x, y)
    x, y = x[hull], y[hull]
    i, j = _antipodal_pairs(x, y)
    dx, dy = x[i] - x[j], y[i] - y[j]
    return float(np.sqrt(dx * dx + dy * dy).max())


def validate(p: SmallPolygon) -> AreaReport:
    """Check diameter, convexity, mirror symmetry and skeleton edge lengths.

    Failures set flags; ``edge_error`` is the largest |length - 1| over the
    skeleton edges, reported for the caller to judge.  Every step works on
    the polygon's one array ``p.points`` in whole-array numpy passes, the
    diameter included (``max_pairwise_distance``), and is O(n) in memory
    and at most O(n log n) in time.
    """
    pts = p.points
    n = p.n
    diameter = max_pairwise_distance(pts)

    # convex when no turn of the boundary ring has the other sign; the signs
    # are exact (``_cross_sign``), as in the hull and the calipers
    ordered = pts[list(p.boundary)]
    x, y = np.concatenate((ordered, ordered[:2])).T  # the ring, then its first two again
    x0, y0, x1, y1, x2, y2 = x[:-2], y[:-2], x[1:-1], y[1:-1], x[2:], y[2:]
    turn = _cross_sign(x0, y0, x1, y1, x1, y1, x2, y2)
    is_convex = bool(np.all(turn >= 0) or np.all(turn <= 0))

    mirror = np.concatenate((
        np.abs(pts[n - 2:0:-1, 0] + pts[1:n - 1, 0]),
        np.abs(pts[n - 2:0:-1, 1] - pts[1:n - 1, 1]),
    ))
    is_symmetric = bool(mirror.max() <= MIRROR_TOL)

    # the skeleton's edge vectors: the cycle steps v_k v_{k+1}, k < n - 2,
    # then the closing edge v_{n-2} v_0 and the pendant edge v_0 v_{n-1}
    steps = np.concatenate((pts[1 : n - 1] - pts[: n - 2], pts[[n - 2, 0]] - pts[[0, n - 1]]))
    edge_error = float(np.abs(np.hypot(*steps.T) - 1.0).max())

    area = shoelace(ordered)
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
