"""The (r+2)-parameter family of symmetric unit-diameter polygons.

Instead of optimizing all n/2 turning angles, the construction lets only the
first few vary: theta_0 = alpha, then pairs (beta_i + gamma_i, beta_i -
gamma_i), then a constant tail angle beta.  Two parameters are eliminated by
the geometry: the tail angle beta from the quarter-turn angle sum, and the
last gamma from the requirement that the chain midpoint reach x = +-1/2.  The
area then collapses to a closed form whose number of terms depends only on r,
so a single evaluation costs the same at n = 10 and n = 100000.

Odd r uses the scheme of r+1 with the last pair's beta set to the tail angle,
so r counts the genuinely free parameters in every case.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .geometry import (
    AngleVector,
    AreaReport,
    SmallPolygon,
    validate,
    vertices_from_angles,
)
from .reference import MAX_TABULATED_R, coeff_row
from .solver import (
    BoxProblem,
    BracketError,
    InfeasibleError,
    _area_hessian_s,
    brentq,
    maximize_box,
)

CLOSURE_RESIDUAL_TOL = 1e-14
_THETA_MAX = math.pi / 3
_PENALTY = -1.0
_PI_LO = 1.2246467991473532e-16  # pi - math.pi, rounded
_SPLITTER = 134217729.0  # 2**27 + 1: Dekker's split into two 26-bit halves
# g(b) = sin b - tan(b/2) - b/2 = -5 b^3/24 + b^5/240 - 5 b^7/8064
#        - 29 b^9/725760 - 139 b^11/31933440 - ..., highest order first
_G_TAYLOR = (-139 / 31933440, -29 / 725760, -5 / 8064, 1 / 240, -5 / 24)


@dataclass(frozen=True)
class ReducedParams:
    """Free and derived parameters of the r-parameter construction.

    ``betas`` holds the floor(r/2) free pair angles, ``gammas_free`` the
    ceil(r/2) - 1 free asymmetries.  ``beta_derived`` (tail angle) and
    ``gamma_last_derived`` (final asymmetry) are filled in by ``derive``.
    Every angle is stored as a Python float, -0.0 as 0.0, so equal points
    have identical bits and the memos below can key on the point alone.
    """

    n: int
    r: int
    alpha: float
    betas: tuple[float, ...] = ()
    gammas_free: tuple[float, ...] = ()
    beta_derived: float | None = None
    gamma_last_derived: float | None = None

    def __post_init__(self):
        _check_size(self.n, self.r)
        object.__setattr__(self, "alpha", float(self.alpha) + 0.0)
        object.__setattr__(self, "betas", tuple(float(b) + 0.0 for b in self.betas))
        object.__setattr__(self, "gammas_free", tuple(float(g) + 0.0 for g in self.gammas_free))
        for name in ("beta_derived", "gamma_last_derived"):
            if getattr(self, name) is not None:
                object.__setattr__(self, name, float(getattr(self, name)) + 0.0)
        nb, ng = free_shape(self.r)
        if len(self.betas) != nb:
            raise ValueError(f"r = {self.r} takes {nb} free betas, got {len(self.betas)}")
        if len(self.gammas_free) != ng:
            raise ValueError(
                f"r = {self.r} takes {ng} free gammas, got {len(self.gammas_free)}"
            )


def _check_size(n: int, r: int) -> None:
    if n % 2 != 0 or n < 6:
        raise ValueError(f"n must be even and >= 6, got {n}")
    if r < 0:
        raise ValueError(f"r must be >= 0, got {r}")
    if n < 2 * r + 4:
        raise ValueError(f"need n >= 2r + 4, got n = {n}, r = {r}")


def free_shape(r: int) -> tuple[int, int]:
    """(number of free betas, number of free gammas) for a given r."""
    if r == 0:
        return 0, 0
    return r // 2, (r + 1) // 2 - 1


def _split(a: float) -> tuple[float, float]:
    """Dekker's split of ``a`` into two halves whose pairwise products are exact."""
    t = _SPLITTER * a
    hi = t - (t - a)
    return hi, a - hi


def solve_beta(p: ReducedParams) -> float:
    """Tail angle from the quarter-turn angle sum, correctly rounded.

    The quotient (pi/2 - alpha - 2 sum(betas)) / tail of the ``fsum`` of
    the terms (pi/2 as its high and low parts), plus the exact remainder,
    itself an ``fsum`` of the same terms and the four exact partial products
    of the split quotient and tail count, divided by the tail count.
    """
    m = p.n // 2
    tail = float(m - p.r - 1 if p.r % 2 == 0 else m - p.r)
    terms = [math.pi / 2, _PI_LO / 2, -p.alpha, *(-2.0 * b for b in p.betas)]
    q = math.fsum(terms) / tail
    qh, ql = _split(q)
    th, tl = _split(tail)
    terms += (-qh * th, -qh * tl, -ql * th, -ql * tl)
    beta = q + math.fsum(terms) / tail
    if not 0.0 < beta < _THETA_MAX:
        raise ValueError(f"derived tail angle {beta:.6f} outside (0, pi/3)")
    return beta


def _prefix_angles(p: ReducedParams, beta: float, gamma_last: float) -> list[float]:
    th = [p.alpha]
    bs = list(p.betas) + ([beta] if p.r % 2 else [])
    gs = list(p.gammas_free) + [gamma_last]
    for b, g in zip(bs, gs):
        th.append(b + g)
        th.append(b - g)
    return th


def _walk(th) -> tuple[list, list, list, float]:
    """Partial sums S_j, chain vertices 0..m and triangle sum of the m angles ``th``.

    The one chain walk of this module, in plain floats with the operations
    of ``chain_coordinates`` in their order (a prefix has at most 17 angles,
    where numpy's fixed cost per call outweighs the arithmetic).  The
    triangle sum is ``area_dissection(th)`` added in sequence.
    """
    m = len(th)
    S = [0.0] * m
    x = [0.0] * (m + 1)
    y = [0.0] * (m + 1)
    s = 0.0
    for j, t in enumerate(th):
        s += t
        S[j] = s
        if j % 2:
            x[j + 1] = x[j] - math.sin(s)
            y[j + 1] = y[j] - math.cos(s)
        else:
            x[j + 1] = x[j] + math.sin(s)
            y[j + 1] = y[j] + math.cos(s)
    tri = 0.0
    for k in range(2, m):
        tri += x[k + 1] * y[k - 1] - y[k + 1] * x[k - 1]
    return S, x, y, x[1] + tri


def _closure(p: ReducedParams, beta: float):
    """The closure residual as a function of gamma_last alone.

    Summing the constant-angle tail in closed form reduces x_{n/2-1} = +-1/2
    to: x_rp + sin(phi - beta/2) / (2 cos(beta/2)) = 0, phi = S_rp.  The
    prefix before the last pair does not depend on gamma_last, so ``_walk``
    runs once here; each evaluation adds only the last pair (b + g, b - g),
    whose first angle is an odd step of the chain, as ``_walk`` would.
    """
    th = _prefix_angles(p, beta, 0.0)[:-2]
    S, x, _, _ = _walk(th)
    s0, x0 = S[-1], x[-1]
    b = beta if p.r % 2 else p.betas[-1]
    half = beta / 2
    den = 2.0 * math.cos(half)

    def residual(g: float) -> float:
        s = s0 + (b + g)
        return x0 - math.sin(s) + math.sin(s + (b - g) - half) / den

    return residual


def derive(p: ReducedParams) -> ReducedParams:
    """Fill in the two derived parameters (one copy of ``p``).

    The tail angle comes from the angle sum (``solve_beta``); for r >= 1 the
    last asymmetry is the ``brentq`` root of the closure (``_closure``),
    checked to ``CLOSURE_RESIDUAL_TOL``.  The last point derived is kept (a
    one-entry memo keyed on ``p``), so the closing ``objective`` of a box
    solve, and the ``derive`` of its result in ``construct_Q`` and
    ``estimate_q_numeric``, reuse the point that the solve's last
    ``derivatives`` call derived, root solve included.
    """
    return _derive(p)


@functools.lru_cache(maxsize=1)
def _derive(p: ReducedParams) -> ReducedParams:
    beta = solve_beta(p)
    gamma = p.gamma_last_derived
    if p.r > 0:
        # the bracket [-pi/n, pi/n] is deliberately wider than the box
        # [0, pi/n], so a negative root is found rather than failing it
        f = _closure(p, beta)
        gamma = brentq(f, -math.pi / p.n, math.pi / p.n) + 0.0
        res = f(gamma)
        if abs(res) > CLOSURE_RESIDUAL_TOL:
            raise BracketError(
                f"closure residual {res:.3e} above {CLOSURE_RESIDUAL_TOL:.0e} at root"
            )
    # a copy of the validated p with the two floats set, stored as
    # ``__post_init__`` stores them; ``dataclasses.replace`` would run it again
    q = object.__new__(ReducedParams)
    q.__dict__.update(p.__dict__, beta_derived=beta, gamma_last_derived=gamma)
    return q


def expand_angles(p: ReducedParams) -> AngleVector:
    """The full n/2 turning angles of the construction."""
    if p.beta_derived is None:
        raise ValueError("derive the parameters before expanding")
    if p.r > 0 and p.gamma_last_derived is None:
        raise ValueError("derive the parameters before expanding")
    beta = p.beta_derived
    prefix = _prefix_angles(p, beta, p.gamma_last_derived)
    th = np.full(p.n // 2, beta)
    th[: len(prefix)] = prefix
    hi = np.full(len(th), _THETA_MAX)
    hi[0] = math.pi / 6
    outside = np.flatnonzero(~((th >= -1e-12) & (th <= hi + 1e-12)))
    if len(outside):
        k = int(outside[0])
        raise ValueError(
            f"expanded angle theta_{k} = {th[k]:.6f} outside [0, {hi[k]:.6f}]"
        )
    return AngleVector(p.n, th)


def reduced_area(p: ReducedParams) -> float:
    """Polygon area in closed form; evaluation cost independent of n.

    The constant-angle tail contributes (n/2 - prefix - 1) copies of
    sin(beta) - tan(beta/2) plus one correction term built from the prefix
    state; the prefix contributes its own triangle areas.  For r = 0 the
    value is the polygon area only at the closure point alpha = beta/2.
    Summed as ``_area_terms`` describes.
    """
    if p.beta_derived is None:
        raise ValueError("derive the parameters before evaluating the area")
    return _area_terms(p)[0]


def area_deficit(p: ReducedParams) -> float:
    """pi/4 - area - 5 pi^3 / 48 n^2 as one ``fsum`` of O(1/n) terms.

    The area lies within 1e-9 of pi/4 at large n, so subtracting it from
    pi/4 would leave rounding noise at the scale of the deficit's own 1/n^3
    term; ``_area_terms`` sums the deficit without forming either.
    """
    if p.beta_derived is None:
        raise ValueError("derive the parameters before evaluating the deficit")
    return _area_terms(p)[1]


def _g(beta: float) -> float:
    """g(beta) = sin(beta) - tan(beta/2) - beta/2 without cancellation.

    The Taylor series ``_G_TAYLOR`` below |beta| = 0.02 (truncated after
    the b^11 term, 2e-23 relative at 0.02), and tan(beta/2) cos(beta)
    - beta/2 from there on.
    """
    if abs(beta) < 0.02:
        b2 = beta * beta
        acc = 0.0
        for coeff in _G_TAYLOR:
            acc = acc * b2 + coeff
        return acc * b2 * beta
    return math.tan(beta / 2) * math.cos(beta) - beta / 2


@functools.lru_cache(maxsize=1)
def _area_terms(p: ReducedParams) -> tuple[float, float]:
    """Area and deficit, each one ``math.fsum`` of O(1/n) terms.

    The prefix contributes the triangle sum ``tri`` of its rp + 1 angles,
    the tail tc = n/2 - rp - 1 copies of sin(beta) - tan(beta/2), and one
    ``correction`` in phi = S_rp and vertex rp joins them, all three from
    one ``_walk``; for r = 0 the prefix is theta_0 = alpha alone.  Since
    tc beta = pi/2 - phi for the exact tail angle, the tail is pi/4 - phi/2
    + tc g(beta) (``_g``), with phi/2 = alpha/2 + sum(betas) (+ beta for
    odd r) taken from the free parameters term by term.  So the deficit is
    phi/2 - tc g(beta) - tri + correction - 5 pi^3/48n^2, with no O(1) term
    to cancel, and the area pi/4 - phi/2 + tc g(beta) + tri - correction.
    Keyed like ``derive``'s memo and, like it, kept for the last point, so
    the ``area_deficit`` after a solve's closing ``objective`` reuses it.
    """
    beta = p.beta_derived
    th = _prefix_angles(p, beta, p.gamma_last_derived)
    S, x, y, tri = _walk(th)
    phi, X, Y = S[-1], x[-2], y[-2]  # S_rp and vertex rp
    correction = (X * math.sin(phi) + Y * math.cos(phi) + 0.5) * math.tan(beta / 2)
    half_phi = [p.alpha / 2, *p.betas] + ([beta] if p.r % 2 else [])
    tail = (p.n // 2 - len(th)) * _g(beta)
    area = math.fsum(
        [math.pi / 4, _PI_LO / 4, *(-h for h in half_phi), tail, tri, -correction]
    )
    deficit = math.fsum(
        [*half_phi, -tail, -tri, correction, -5 * math.pi**3 / (48 * p.n * p.n)]
    )
    return area, deficit


# ---------------------------------------------------------------------------
# optimization over the free parameters
# ---------------------------------------------------------------------------

def parameter_bounds(n: int, r: int) -> tuple[np.ndarray, np.ndarray]:
    nb, ng = free_shape(r)
    lo = np.array([math.pi / (2 * n - 2)] + [math.pi / n] * nb + [0.0] * ng)
    hi = np.array([math.pi / n] + [2 * math.pi / n] * nb + [math.pi / n] * ng)
    return lo, hi


def params_from_vector(n: int, r: int, vec) -> ReducedParams:
    """The point with free parameters ``vec``, validated and stored once.

    Checks what ``ReducedParams`` checks and stores the angles as it does,
    without a second pass through its constructor.
    """
    _check_size(n, r)
    nb, ng = free_shape(r)
    vals = [v + 0.0 for v in np.asarray(vec, dtype=float).tolist()]
    if len(vals) != 1 + nb + ng:
        raise ValueError(f"expected {1 + nb + ng} free parameters, got {len(vals)}")
    p = object.__new__(ReducedParams)
    p.__dict__.update(
        n=n,
        r=r,
        alpha=vals[0],
        betas=tuple(vals[1 : 1 + nb]),
        gammas_free=tuple(vals[1 + nb :]),
        beta_derived=None,
        gamma_last_derived=None,
    )
    return p


def params_to_vector(p: ReducedParams) -> np.ndarray:
    return np.array([p.alpha, *p.betas, *p.gammas_free])


def start_vector(n: int, r: int) -> np.ndarray:
    """The tabulated scaled limits of ``coeff_row(r)`` times pi/n, r >= 1."""
    row = coeff_row(r)
    return math.pi / n * np.array([row.a, *row.b, *row.c])


def objective(n: int, r: int, vec) -> float:
    """Area of the candidate, or a graded penalty when derivation fails."""
    try:
        p = params_from_vector(n, r, vec)
        p = derive(p)
    except ValueError:
        return _PENALTY - float(np.sum(np.abs(vec)))
    return reduced_area(p)


@functools.lru_cache(maxsize=MAX_TABULATED_R + 1)
def _sum_skeleton(r: int) -> np.ndarray:
    """The rows of ``_sum_map`` that do not depend on n; read-only, one per r.

    The beta row is left zero, and so, for odd r, are the last pair's two
    rows, whose angles are the tail angle beta plus and minus gamma_last.
    """
    nb, ng = free_shape(r)
    k = 1 + nb + ng
    rp = 2 * (ng + 1)
    A = np.zeros((rp + 2, k + 1))
    eye = np.eye(k + 1)
    A[0, 0] = 1.0
    gs = [eye[1 + nb + i] for i in range(ng)] + [eye[k]]
    for i in range(nb):
        A[2 * i + 1] = eye[1 + i] + gs[i]
        A[2 * i + 2] = eye[1 + i] - gs[i]
    fixed = rp + 1 - 2 * (r % 2)
    A[:fixed] = np.cumsum(A[:fixed], axis=0)
    A.flags.writeable = False
    return A


@functools.lru_cache(maxsize=1)
def _sum_map(n: int, r: int) -> np.ndarray:
    """The affine map A = dz/du of ``derivatives``, read-only; fixed per (n, r).

    Row order: the partial sums S_0, ..., S_rp of the prefix angles, then the
    tail angle beta.  Columns: the free parameters, then gamma_last.  beta
    comes from the angle sum (it fills the tail and, for odd r, the last
    pair), the prefix angles are alpha and (b + g, b - g), and the partial
    sums accumulate the prefix rows.  A copy of ``_sum_skeleton(r)`` with
    the rows that n changes filled in, by the additions ``np.cumsum`` makes.
    """
    nb, ng = free_shape(r)
    k = 1 + nb + ng
    rp = 2 * (ng + 1)
    tail = n // 2 - rp - 1 + 2 * (r % 2)
    A = _sum_skeleton(r).copy()
    b = A[rp + 1]
    b[0] = -1.0 / tail
    b[1 : 1 + nb] = -2.0 / tail
    if r % 2:
        plus, minus = b.copy(), b.copy()
        plus[k] += 1.0
        minus[k] -= 1.0
        A[rp - 1] = A[rp - 2] + plus
        A[rp] = A[rp - 1] + minus
    A.flags.writeable = False
    return A


def _prefix_gradient(x, y) -> tuple[list, list, list]:
    """The prefix's chain steps and area gradient in the partial sums, in floats.

    Takes the vertices 0..m of ``_walk``; returns the steps (``p``, ``q``),
    each the difference of two vertices, and the gradient of the prefix
    triangle sum in S_0, ..., S_{m-1}.  The operations are those of
    ``np.diff`` and ``solver._area_gradient_s``, in their order.
    """
    m = len(x) - 1
    p = [x[j + 1] - x[j] for j in range(m)]
    q = [y[j + 1] - y[j] for j in range(m)]
    # the vertex adjoints: triangle k touches vertices k - 1 and k + 1
    ax = [0.0] * (m + 1)
    ay = [0.0] * (m + 1)
    for k in range(3, m + 1):
        ax[k] += y[k - 2]
    for k in range(1, m - 1):
        ax[k] -= y[k + 2]
        ay[k] += x[k + 2]
    for k in range(3, m + 1):
        ay[k] -= x[k - 2]
    # step j inherits the adjoints of the vertices after it: suffix sums
    grad = [0.0] * m
    sx, sy = ax[m], ay[m]
    for j in range(m - 1, -1, -1):
        grad[j] = q[j] * sx - p[j] * sy
        sx += ax[j]
        sy += ay[j]
    grad[0] += q[0]  # the apex triangle sin S_0
    return p, q, grad


def derivatives(n: int, r: int, vec):
    """Gradient and Hessian of ``objective`` in the free parameters, r >= 1.

    Returns ``(gradient, hessian)`` with ``hessian`` a zero-argument
    callable (the ``BoxProblem`` contract), or None where ``objective`` is a
    penalty.  The gradient and mu are computed here, from the vertices of
    one ``_walk`` of the prefix, their steps and area gradient
    (``_prefix_gradient``) and one product with A; the prefix triangles'
    dense Hessian and the B^T H B assembly wait for ``hessian()``, which the
    Newton kernel calls only at the points it steps from.  The turn phi is
    taken as ``math.fsum`` of the prefix angles, not the walk's S_rp.
    With u = (free parameters p, gamma_last), the area F and the
    closure residual C are closed forms in z = (S_0, ..., S_rp, beta), the
    partial sums of the rp + 1 prefix angles and the tail angle, and z = A u
    is linear with A fixed per (n, r) (``_sum_map``).  In z the prefix
    triangle sum T has the full program's gradient and Hessian in partial
    sums; the prefix vertex (X, Y) = vertex rp has gradient (q_j, -p_j) and
    diagonal Hessians -p_j and -q_j in S_j, j < rp, where (p_j, q_j) are the
    chain steps; the turn phi = S_rp is a coordinate.  Every term other than
    T is diagonal or lies in the phi and beta rows and columns, so F_zz - mu
    C_zz is written into T's Hessian there.  The closure defines
    gamma_last(p), hence grad = F_p - mu C_p and Hessian = Z^T (F_uu - mu
    C_uu) Z with mu = F_gamma / C_gamma and Z = [I; -C_p / C_gamma].
    Everything is evaluated at the point ``derive`` returns.
    """
    try:
        p = derive(params_from_vector(n, r, vec))
    except ValueError:
        return None
    k = 1 + sum(free_shape(r))
    A = _sum_map(n, r)
    beta = p.beta_derived
    th = _prefix_angles(p, beta, p.gamma_last_derived)
    rp = len(th) - 1
    tc = n // 2 - rp - 1  # tail angles after the prefix

    # prefix terms in z: triangles T, vertex rp = (X, Y), phi = S_rp; the
    # entries of gX and gY after rp - 1 are zero and left out
    _, x, y, _ = _walk(th)
    steps_p, steps_q, gT = _prefix_gradient(x, y)
    gX = steps_q[:rp]  # q_j
    gY = [-v for v in steps_p[:rp]]  # -p_j

    phi, X, Y = math.fsum(th), x[rp], y[rp]
    sp, cp = math.sin(phi), math.cos(phi)
    t = math.tan(beta / 2)
    t1 = (1.0 + t * t) / 2.0
    # F = tc (sin beta - t) + T - (W + 1/2) t,  W = X sin phi + Y cos phi,
    # with dW = sp gX + cp gY + (X cp - Y sp) e_phi and d2W = diag(sp gY -
    # cp gX) + sym(cp gX - sp gY, e_phi) - W e_phi e_phi
    w_val = X * sp + Y * cp
    gW = [sp * a + cp * b for a, b in zip(gX, gY)]
    gW.append(X * cp - Y * sp)
    gF = [a - t * b for a, b in zip(gT, gW)]
    gF.append(tc * (math.cos(beta) - t1) - (w_val + 0.5) * t1)
    # C = X + (sin phi - t cos phi) / 2, d2C = diag(gY) + terms in phi, beta
    gC = gX + [(cp + sp * t) / 2.0, -cp * t1 / 2.0]

    gFu, gCu = A.T @ np.array(gF), A.T @ np.array(gC)
    mu = gFu[k] / gCu[k]

    def hessian():
        # H = F_zz - mu C_zz, written into T's Hessian: the diagonals of -t
        # d2W and -mu d2C, -t sym(cp gX - sp gY, e_phi), -t1 sym(dW,
        # e_beta), then the phi and beta corners
        gXa, gYa, gWa = np.zeros((3, rp + 2))
        gXa[:rp] = gX
        gYa[:rp] = gY
        gWa[: rp + 1] = gW
        H = np.zeros((rp + 2, rp + 2))
        H[: rp + 1, : rp + 1] = _area_hessian_s(th)
        H.flat[:: rp + 3] -= t * (sp * gYa - cp * gXa) + mu * gYa
        v = t * (cp * gXa - sp * gYa)
        H[rp] -= v
        H[:, rp] -= v
        H[rp + 1] -= t1 * gWa
        H[:, rp + 1] -= t1 * gWa
        H[rp, rp] += t * w_val - mu * (t * cp - sp) / 2.0
        H[rp, rp + 1] -= mu * sp * t1 / 2.0
        H[rp + 1, rp] -= mu * sp * t1 / 2.0
        t2 = t * t1
        H[rp + 1, rp + 1] += (tc * (-math.sin(beta) - t2) - (w_val + 0.5) * t2
                              + mu * cp * t2 / 2.0)
        B = A @ np.vstack((np.eye(k), -gCu[:k] / gCu[k]))
        return B.T @ H @ B

    return gFu[:k] - mu * gCu[:k], hessian


def best_params(n: int, r: int) -> ReducedParams:
    """Derived parameters of the family's best polygon for the given n.

    r = 0 has no free parameter: alpha = pi/(2n - 2), half the tail angle.
    Otherwise one Newton solve of the box maximizer from ``start_vector``;
    raises InfeasibleError if that solve ends on a penalty point.
    """
    if r == 0:
        return derive(ReducedParams(n=n, r=0, alpha=math.pi / (2 * n - 2)))
    lo, hi = parameter_bounds(n, r)
    problem = BoxProblem(
        lower=tuple(lo),
        upper=tuple(hi),
        objective=lambda v: objective(n, r, v),
        derivatives=lambda v: derivatives(n, r, v),
    )
    best, value, diag = maximize_box(problem, start_vector(n, r))
    if value <= _PENALTY:
        raise InfeasibleError(
            f"no feasible point found for n = {n}, r = {r}; best value {value:.3e}",
            diag,
        )
    return derive(params_from_vector(n, r, best))


def construct_Q(n: int, r: int) -> tuple[SmallPolygon, AreaReport, ReducedParams]:
    """Best polygon of the r-parameter family for the given n (``best_params``)."""
    if n % 2 != 0 or n < 6:
        raise ValueError(f"n must be even and >= 6, got {n}")
    if not 0 <= r <= MAX_TABULATED_R or n < 2 * r + 4:
        raise ValueError(
            f"need 0 <= r <= {MAX_TABULATED_R} and n >= 2r + 4, got n = {n}, r = {r}"
        )
    params = best_params(n, r)
    polygon = vertices_from_angles(expand_angles(params))
    return polygon, validate(polygon), params


def theorem_r(n: int) -> int:
    """Family size used for the headline construction at each n."""
    return n // 2 - 2 if n <= 34 else 16


def construct_Q_theorem(n: int) -> tuple[SmallPolygon, AreaReport, ReducedParams]:
    """The headline polygon: r = n/2 - 2 up to n = 34, r = 16 beyond.

    ``construct_Q`` checks n first, so an odd n or n < 6 raises its error.
    """
    return construct_Q(n, theorem_r(n))
