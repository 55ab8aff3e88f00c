"""Symmetric skeleton polygons: coordinates, areas, and validity checks.

A polygon here has an even number n of sides, unit diameter, and a skeleton
(the graph of vertex pairs at distance exactly 1) consisting of an (n-1)-cycle
star plus one pendant edge lying on the polygon's axis of symmetry.  The whole
shape is determined by the n/2 turning angles of the star chain.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

ANGLE_SUM_TOL = 1e-9
CLOSURE_TOL = 1e-9
MIRROR_TOL = 1e-12
SMALL_TOL = 1e-9
# the turning angles' box: theta_0 in [0, pi/6], every other turn in
# [0, THETA_MAX] (``angle_box``), checked with this slack (``AngleVector``)
THETA_MAX = math.pi / 3
_BOUND_SLACK = 1e-12
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
        require_even(self.n, minimum=6)
        th = np.array(self.theta, dtype=float)
        if th.shape != (self.n // 2,):
            raise ValueError(f"expected {self.n // 2} angles, got {len(self.theta)}")
        object.__setattr__(self, "theta", tuple(th.tolist()))
        # the box's bounds with the slack, as ``angle_box`` gives them; a
        # vector inside passes on three comparisons, any other (a NaN among
        # them) is searched for its first offender
        if (th.min() >= -_BOUND_SLACK and th[0] <= math.pi / 6 + _BOUND_SLACK
                and th.max() <= THETA_MAX + _BOUND_SLACK):
            return
        lo, hi = angle_box(len(th))
        outside = np.flatnonzero(~((th >= lo - _BOUND_SLACK) & (th <= hi + _BOUND_SLACK)))
        if len(outside):
            k = int(outside[0])
            raise ValueError(
                f"theta_{k} = {self.theta[k]} outside [0, {'pi/6' if k == 0 else 'pi/3'}]"
            )

    @property
    def angle_sum_residual(self) -> float:
        return math.fsum(self.theta) - math.pi / 2


@dataclass(frozen=True, eq=False)
class SmallPolygon:
    """An n-gon with its unit-distance skeleton and convex boundary order.

    ``points`` holds the vertices as one read-only, finite (n, 2) float
    array, the form every check works on (``polygon_from_vertices``).  The
    skeleton depends on n alone (``skeleton_edge_list``), the boundary ring
    on the points alone (``boundary_order``).
    """

    n: int
    points: np.ndarray = field(repr=False)

    @property
    def boundary(self) -> np.ndarray:
        return boundary_order(self.points)

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


def angle_box(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Lower and upper bounds of m turning angles: [0, pi/6], then [0, pi/3]."""
    hi = np.full(m, THETA_MAX)
    hi[0] = math.pi / 6
    return np.zeros(m), hi


def require_even(n: int, minimum: int) -> int:
    """The one check of a side count: an even integer at least ``minimum``."""
    if not isinstance(n, (int, np.integer)):
        raise ValueError(f"n must be an integer, got {n!r}")
    if n % 2 != 0 or n < minimum:
        raise ValueError(f"n must be even and >= {minimum}, got {n}")
    return n


def upper_bound(n: int) -> float:
    """Area bound no unit-diameter n-gon (n even) can reach."""
    require_even(n, minimum=6)
    return n / 2 * math.sin(math.pi / n) - (n - 1) / 2 * math.tan(math.pi / (2 * n - 2))


def regular_area(n: int) -> float:
    """Area of the regular unit-diameter n-gon, n even."""
    require_even(n, minimum=4)
    return n / 8 * math.sin(2 * math.pi / n)


def half_sign(n: int) -> float:
    """The required x-coordinate of chain vertex n/2 - 1: +1/2 or -1/2."""
    return 0.5 if (n // 2) % 2 == 0 else -0.5


def chain_coordinates(theta) -> tuple[np.ndarray, np.ndarray]:
    """Vertices 0..m of the star chain from its m turning angles.

    Steps are unit vectors that alternate direction: step j points at angle
    (sum of the first j+1 turns) from the +y axis, flipped every other step.
    The partial sums are compensated: the rounding error of each addition
    of ``np.cumsum`` (Knuth's TwoSum) is summed alongside and added back,
    so each is the correctly rounded sum of its prefix, and the closing
    edge stays horizontal within an ulp up to n = 1e6.  A plain ``cumsum``
    drifts by about an ulp per turn along the constant tail.  x and y are
    the two rows of one (2, m + 1) array.
    """
    th = np.asarray(theta, dtype=float)
    m = len(th)
    partial = np.zeros(m + 1)  # 0, then the plain partial sums
    s = th.cumsum(out=partial[1:])
    prev = partial[:-1]
    b = s - prev
    err = (prev - (s - b)) + (th - b)
    s = s + err.cumsum()
    xy = np.zeros((2, m + 1))
    steps = xy[:, 1:]
    np.sin(s, out=steps[0])
    np.cos(s, out=steps[1])
    np.negative(steps[:, 1::2], out=steps[:, 1::2])  # odd steps go left
    steps.cumsum(axis=1, out=steps)
    return xy[0], xy[1]


def walk_chain(theta, walk=None) -> tuple[list, list, list]:
    """Partial sums S_j and chain vertices 0..m of m angles.

    The chain of ``chain_coordinates`` in plain floats, with the partial
    sums added plainly in sequence, as ``np.cumsum`` adds them, and not
    compensated: the one walk behind the triangle sum (``triangle_terms``)
    and every derivative of the area and of the closure.  At the full
    program's m <= 256 angles and the family's prefix of at most 17, numpy's
    fixed cost per call outweighs the arithmetic, and the rounding a
    compensation would remove is a few ulp.  Given the ``walk`` (S, x, y) of
    earlier angles, the angles ``theta`` continue it, in new lists, with the
    bits of one walk of all the angles.
    """
    if isinstance(theta, np.ndarray):
        theta = theta.tolist()
    S, x, y = ([], [0.0], [0.0]) if walk is None else (walk[0][:], walk[1][:], walk[2][:])
    s, X, Y = S[-1] if S else 0.0, x[-1], y[-1]
    sin, cos = math.sin, math.cos
    odd = len(S) % 2  # step j goes right for even j, left for odd j
    for t in theta:
        s += t
        S.append(s)
        if odd:
            X -= sin(s)
            Y -= cos(s)
        else:
            X += sin(s)
            Y += cos(s)
        x.append(X)
        y.append(Y)
        odd = not odd
    return S, x, y


def triangle_terms(theta, S, x, y) -> list[float]:
    """The terms of the triangle sum of m angles, each from small differences.

    Takes the angles and their ``walk_chain``.  The apex triangle is x_1 =
    sin S_0; triangle k >= 2, x_{k+1} y_{k-1} - y_{k+1} x_{k-1}, equals dx
    y_{k-1} - dy x_{k-1} with (dx, dy) = vertex k+1 - vertex k-1, the sum of
    steps k-1 and k.  The two steps have opposite signs, so by the
    sum-to-product formulas (dx, dy) = -+2 sin(theta_k/2) (cos m, -sin m),
    m = S_{k-1} + theta_k/2, minus for odd k.  The rounding of the O(1)
    coordinate y_{k-1} is then multiplied by the O(1/n) dx rather than by
    the O(r/n) x_{k+1}: near the r = 16 optimum at n = 20000 the family's
    deficit's worst relative rounding over 30 points fell from 2.3e-6 to
    2.3e-7.
    """
    terms = [x[1]]
    sin, cos = math.sin, math.cos
    c = 2.0  # -2 h with h = -sin(theta_k/2) for even k, +sin for odd k
    for t, s, xk, yk in zip(theta[2:], S[1:], x[1:], y[1:]):
        half = t / 2
        m = s + half
        terms.append(c * sin(half) * (cos(m) * yk + sin(m) * xk))
        c = -c
    return terms


def area_gradient_s(x, y) -> tuple[list, list, list]:
    """Chain steps and the gradient of the triangle sum in the partial sums.

    Takes the vertices 0..m of ``walk_chain``; returns the steps (p_j, q_j)
    = vertex j+1 - vertex j and the gradient in S_0, ..., S_{m-1}.  Step j
    depends on S_j alone and has derivative (q_j, -p_j) in it; each triangle
    term touches vertices k-1 and k+1, and vertex k collects steps 0..k-1,
    so step j inherits the adjoints of the vertices after it.
    """
    m = len(x) - 1
    p = [x[j + 1] - x[j] for j in range(m)]
    q = [y[j + 1] - y[j] for j in range(m)]
    # the vertex adjoints: triangle k touches vertices k - 1 and k + 1
    ax = [0.0] * (m + 1)
    ay = [0.0] * (m + 1)
    for k in range(3, m + 1):
        ax[k] += y[k - 2]
        ay[k] -= x[k - 2]
    for k in range(1, m - 1):
        ax[k] -= y[k + 2]
        ay[k] += x[k + 2]
    # step j inherits the adjoints of the vertices after it: suffix sums
    grad = [0.0] * m
    sx, sy = ax[m], ay[m]
    for j in range(m - 1, -1, -1):
        grad[j] = q[j] * sx - p[j] * sy
        sx += ax[j]
        sy += ay[j]
    grad[0] += q[0]  # the apex triangle sin S_0
    return p, q, grad


@functools.lru_cache(maxsize=32)
def _pair_weights(m: int) -> np.ndarray:
    """The signed pair counts w - w.T of ``area_hessian_s``, read-only; fixed per m.

    32 sizes hold the reduced family's nine prefix lengths and the 20 sizes
    of a table5 sweep's full programs.
    """
    idx = np.arange(m)
    sign = np.where(idx % 2 == 0, 1.0, -1.0)
    w = np.maximum(0, m - np.maximum(np.maximum.outer(idx, idx + 2), 2)) * np.outer(sign, sign)
    weights = w - w.T
    weights.flags.writeable = False
    return weights


def area_hessian_s(S) -> np.ndarray:
    """Hessian of the triangle sum in the partial sums S of ``walk_chain``.

    With steps (p_j, q_j) = s_j (sin S_j, cos S_j), s_j = (-1)^j, the area is
    sin S_0 + sum_ab w_ab s_a s_b sin(S_a - S_b), where w_ab = max(0, m -
    max(a, b + 2, 2)) counts the triangles whose cross product pairs step a
    with step b.
    """
    s = np.asarray(S, dtype=float)
    hess = _pair_weights(len(s)) * np.sin(s[:, None] - s[None, :])
    # minus the row sums on the diagonal, where the pair weights are zero
    hess.reshape(-1)[:: len(s) + 1] -= hess.sum(axis=1)
    hess[0, 0] -= math.sin(s[0])
    return hess


def skeleton_edge_list(n: int) -> tuple[tuple[int, int], ...]:
    """The (n-1)-cycle v_0 v_1 ... v_{n-2} plus the pendant edge v_0 v_{n-1}."""
    edges = [(k, k + 1) for k in range(n - 2)]
    edges.append((n - 2, 0))
    edges.append((0, n - 1))
    return tuple(edges)


def boundary_order(vertices) -> np.ndarray:
    """Convex boundary order by polar angle about the vertex centroid.

    Ties in angle keep index order; the order starts at vertex 0.  The ring
    is a read-only integer index array, ready to index the vertices with.
    """
    pts = np.asarray(vertices, dtype=float)
    rel = pts - pts.sum(axis=0) / len(pts)  # the bits of pts.mean(axis=0)
    order = np.arctan2(rel[:, 1], rel[:, 0]).argsort(kind="stable")
    k = int(order.argmin())  # the position of vertex 0
    ring = np.concatenate((order[k:], order[:k]))
    ring.flags.writeable = False
    return ring


def polygon_from_vertices(n: int, vertices) -> SmallPolygon:
    """The one check of a vertex array: n finite (x, y) rows, in skeleton indexing."""
    require_even(n, minimum=6)
    pts = np.array(vertices, dtype=float)
    if pts.shape != (n, 2):
        raise ValueError(f"expected {n} (x, y) vertices, got an array of shape {pts.shape}")
    if not np.isfinite(pts).all():
        raise ValueError("vertices must have finite coordinates")
    pts.flags.writeable = False
    return SmallPolygon(n=n, points=pts)


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
    np.negative(x[m - 2 : 0 : -1], out=verts[m + 1 : n - 1, 0])
    verts[m + 1 : n - 1, 1] = y[m - 2 : 0 : -1]
    verts[n - 1] = (0.0, 1.0)
    return polygon_from_vertices(n, verts)


def area_dissection(a) -> float:
    """Polygon area as twice the sum of the star's triangle areas.

    The first triangle (apex, origin, first chain vertex) contributes
    sin(theta_0)/2; triangle k >= 2 spans the origin and chain vertices
    k-1, k+1.  The ``math.fsum`` of ``triangle_terms``.  Accepts an
    AngleVector or a raw sequence of angles (the sum is then over its chain
    alone).
    """
    theta = a.theta if isinstance(a, AngleVector) else a
    return math.fsum(triangle_terms(theta, *walk_chain(theta)))


def shoelace(points) -> float:
    """Absolute area of the ring ``points`` (in boundary order).

    The cross products are taken of coordinates relative to the vertex
    centroid.  For a convex ring the centroid is inside, so every term is
    positive and the sum does not cancel.  With raw coordinates it does:
    at n = 100000 that sum is 2e-11 off the exact area.  Each term is
    formed from its edge, x_i (y_{i+1} - y_i) - y_i (x_{i+1} - x_i), so the
    rounding of a product is relative to the short edge rather than to an
    O(1) coordinate: on the constructed r = 16 polygons up to n = 200000
    the result is within an ulp of the exact sum of the float vertices,
    where x_i y_{i+1} - x_{i+1} y_i was up to 2.7e-15 off.
    """
    pts = np.asarray(points, dtype=float)
    k = len(pts)
    ring = np.empty((k + 1, 2))  # the ring, closed
    np.subtract(pts, pts.sum(axis=0) / k, out=ring[:k])  # the bits of pts.mean(axis=0)
    ring[k] = ring[0]
    x, y = ring.T
    dx, dy = x[1:] - x[:-1], y[1:] - y[:-1]
    return 0.5 * abs(float((x[:-1] * dy - y[:-1] * dx).sum()))


def _exact_cross(ax, ay, bx, by, cx, cy, dx, dy) -> Fraction:
    """(b - a) x (d - c) for float inputs, exactly."""
    f = Fraction
    return (f(bx) - f(ax)) * (f(dy) - f(cy)) - (f(by) - f(ay)) * (f(dx) - f(cx))


def _cross_sign(x, y, ex, ey, i, j) -> np.ndarray:
    """The sign of e_i x e_j, elementwise over broadcast indices i and j.

    Edge m of the path of points (x, y) is (ex_m, ey_m) = (x_{m+1} - x_m,
    y_{m+1} - y_m), formed once by the caller; i and j index the edges
    (slices or integer arrays).  The float cross product of the edges
    decides every entry farther from zero than its rounding bound
    ``_CROSS_BOUND``; the few entries inside it are recomputed in
    ``Fraction``s from the points, so every sign is exact.
    """
    left = ex[i] * ey[j]
    right = ey[i] * ex[j]
    turn = left - right
    sign = np.sign(turn)
    unsure = np.abs(turn) <= _CROSS_BOUND * (np.abs(left) + np.abs(right)) + _TINY
    if np.count_nonzero(unsure):
        index = np.arange(len(ex))
        a, b = (np.broadcast_to(index[k], sign.shape).ravel() for k in (i, j))
        flat = sign.reshape(-1)
        for k in np.flatnonzero(unsure).tolist():
            p, q = a[k], b[k]
            exact = _exact_cross(x[p], y[p], x[p + 1], y[p + 1], x[q], y[q], x[q + 1], y[q + 1])
            flat[k] = (exact > 0) - (exact < 0)
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

    Andrew's monotone chain over points sorted by (x, y): the stack
    (``_sequential_chain``) runs through them in order for the lower chain
    and back for the upper one, and the two chains join at the first and
    last points.  Only strict left turns stay, by exact sign, so collinear
    points and every copy of a repeated point but one are left out.
    """
    m = len(x)
    if m < 3:
        return np.arange(m)
    xs, ys = x.tolist(), y.tolist()
    lower = _sequential_chain(xs, ys)
    upper = [m - 1 - k for k in _sequential_chain(xs[::-1], ys[::-1])]
    return np.array(lower[:-1] + upper[:-1])


def _closed_ring(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, ...]:
    """A ring of h vertices as the calipers take it: (x, y, ex, ey), its
    vertices and then its first again, and its h edges."""
    x, y = np.append(x, x[:1]), np.append(y, y[:1])
    return x, y, x[1:] - x[:-1], y[1:] - y[:-1]


def _antipodal_pairs(x, y, ex, ey) -> tuple[np.ndarray, np.ndarray]:
    """Every antipodal vertex pair of a strictly convex counter-clockwise ring.

    The ring of h vertices comes closed, as ``_closed_ring`` gives it: x
    and y hold its vertices and then its first one again, ex and ey its h
    edges, edge i from vertex i to vertex i + 1.  Rotating calipers
    (Shamos 1978): the far pointer of edge i is the first edge j after it
    with e_i x e_j <= 0, the first vertex j from which the ring no longer
    moves away from the edge's line, and both ends of edge i are antipodal
    to vertex j.  Two vertices are antipodal when their ranges of outward
    edge normals overlap by at least a point (opposite directions), and
    then an end of one range lies in the other: the pair is met from that
    end's edge.  The edge directions increase around the ring, so each
    pointer is placed by a binary search on the unwrapped directions and
    then checked exactly, e_i x e_{j-1} > 0 and e_i x e_j <= 0, both in
    one ``_cross_sign`` call; the few that fail step by one until both
    hold, which on such a ring takes fewer than h rounds.  The pointers
    are those of the sequential sweep, which advances one pointer while
    e_i x e_j > 0.  Raises ValueError when h rounds leave a pointer
    unplaced: the ring is not strictly convex and counter-clockwise.
    """
    h = len(ex)
    ends = np.arange(h)
    if h < 3:  # a point or a segment
        return ends, ends[::-1]
    nxt = ends + 1
    nxt[-1] = 0
    # each turn of the ring is in (0, pi); clipping to [0, pi] keeps the
    # unwrapped directions increasing through the rounding of arctan2
    direction = np.arctan2(ey, ex)
    turn = direction[1:] - direction[:-1]
    turn += np.pi / 2
    np.mod(turn, 2 * np.pi, out=turn)
    turn -= np.pi / 2
    # the unwrapped directions, then the same a full turn on
    unwrapped = np.zeros(2 * h)
    np.minimum(np.maximum(turn, 0.0, out=turn), np.pi, out=turn).cumsum(out=unwrapped[1:h])
    np.add(unwrapped[:h], 2 * np.pi, out=unwrapped[h:])
    far = unwrapped.searchsorted(unwrapped[:h] + np.pi)
    # strict convexity puts the pointer between the next edge but one and
    # the previous edge
    far = np.minimum(np.maximum(far, ends + 2), ends + h - 1) % h
    todo = ends
    for _ in range(h):
        j = far[todo]
        # row 0: e_i x e_j > 0, the ring still moves away from edge i at
        # vertex j; row 1: e_i x e_{j-1} <= 0 (-1 indexes the last edge)
        sign = _cross_sign(x, y, ex, ey, todo, np.add.outer((0, -1), j))
        ahead, behind = sign[0] > 0, sign[1] <= 0
        far[todo] = (j + ahead - behind) % h
        todo = todo[ahead | behind]
        if not len(todo):
            return np.concatenate((ends, nxt)), np.concatenate((far, far))
    raise ValueError("the calipers need a strictly convex counter-clockwise ring")


def _ring_diameter(x, y, ex, ey) -> float:
    """Diameter of a strictly convex counter-clockwise ring, closed as
    ``_antipodal_pairs`` takes it: its longest antipodal pair."""
    i, j = _antipodal_pairs(x, y, ex, ey)
    dx, dy = x[i] - x[j], y[i] - y[j]
    # the square root is monotone, so that of the largest square is the
    # largest distance, bit for bit
    return math.sqrt((dx * dx + dy * dy).max())


def max_pairwise_distance(points) -> float:
    """Diameter of a point set: the largest distance between two of its points.

    Any non-empty (k, 2) array of finite points, in any order, duplicates
    and collinear points included.  The diameter is attained at a pair of
    antipodal vertices of the convex hull, points with parallel supporting
    lines through them, so only those pairs are measured: the hull by
    Andrew's monotone chain (``_convex_hull``), the pairs by rotating
    calipers (``_antipodal_pairs``), both with exact orientation signs.
    Each pair's distance is ``sqrt(dx**2 + dy**2)``, the expression an
    all-pairs search evaluates, so the result is the all-pairs value bit
    for bit unless a pair that is not antipodal comes within rounding (an
    ulp or so) of the diameter.  O(n log n) time and O(n) memory.
    ``validate`` calls it only for a polygon whose boundary ring is not
    proven strictly convex; a proven ring is already the hull.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2 or len(pts) == 0:
        raise ValueError(f"the diameter needs a non-empty (k, 2) array, got shape {pts.shape}")
    if not np.isfinite(pts).all():
        raise ValueError("the diameter needs finite coordinates")
    x, y = pts[np.lexsort((pts[:, 1], pts[:, 0]))].T
    hull = _convex_hull(x, y)
    return _ring_diameter(*_closed_ring(x[hull], y[hull]))


def _winds_once(ey: np.ndarray) -> bool:
    """Whether a ring whose turns all have one sign goes round once.

    Takes the y-components of the ring's edges, in order.  The edge
    direction of such a ring sweeps 2 pi k, k the winding number, so its
    edges switch between going up and going down 2k times, flat and
    zero-length edges left out; the signs are exact, since a difference of
    two floats is zero only when they are equal and otherwise has their
    order's sign.  Counted along the ring, not round it, 2 switches read
    as 1 or 2 and 4 as 3 or 4.
    """
    up = ey[ey != 0.0] > 0.0
    return int(np.count_nonzero(up[1:] != up[:-1])) <= 2


def validate(p: SmallPolygon) -> AreaReport:
    """Check diameter, convexity, mirror symmetry and skeleton edge lengths.

    Failures set flags; ``edge_error`` is the largest |length - 1| over the
    skeleton edges, reported for the caller to judge.  The polygon is convex
    when its ring ``p.boundary``, all n vertices in polar order about their
    centroid, is proven to be its boundary: its turns, by exact sign, all
    have one sign (zero allowed) and it winds once.  A proven ring whose
    turns are all strictly left is its own convex hull, and the diameter is
    one rotating calipers pass over it; any other polygon takes the general
    ``max_pairwise_distance``, and both give the same value bit for bit.
    Every step works on ``p.points`` in whole-array numpy passes, but for
    the general hull's stack, and is O(n) in memory, O(n log n) in time.
    """
    pts = p.points
    n = p.n
    ordered = pts[p.boundary]
    # the ring, then its first two vertices again, and its edges, formed
    # once (one subtraction of the (2, n + 2) coordinate rows): edge k runs
    # from ring vertex k to k + 1, and edge n is edge 0 again; turn k is
    # e_k x e_{k+1}
    ring = np.concatenate((ordered, ordered[:2])).T
    (x, y), (ex, ey) = ring, ring[:, 1:] - ring[:, :-1]
    turn = _cross_sign(x, y, ex, ey, slice(0, n), slice(1, n + 1))
    strict = np.count_nonzero(turn > 0) == n
    is_convex = bool(
        strict or np.count_nonzero(turn >= 0) == n or np.count_nonzero(turn <= 0) == n
    ) and _winds_once(ey[:n])
    if is_convex and strict:
        diameter = _ring_diameter(x[: n + 1], y[: n + 1], ex[:n], ey[:n])
    else:
        diameter = max_pairwise_distance(pts)

    # vertex k > m mirrors vertex n - 1 - k: x_k = -x_{n-1-k}, y_k = y_{n-1-k};
    # subtracting the negated x adds it, bit for bit
    mirror = pts[n - 2 : 0 : -1] - pts[1 : n - 1] * (-1.0, 1.0)
    is_symmetric = bool(np.abs(mirror).max() <= MIRROR_TOL)

    # the skeleton's edge vectors: the cycle steps v_k v_{k+1}, k < n - 2,
    # then the closing edge v_{n-2} v_0 and the pendant edge v_0 v_{n-1}
    # (rows n - 2, 0 less rows 0, n - 1, taken as slices)
    steps = np.concatenate((pts[1 : n - 1] - pts[: n - 2], pts[n - 2 :: 2 - n] - pts[:: n - 1]))
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

