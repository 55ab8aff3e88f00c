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

import math
from dataclasses import dataclass, replace

import numpy as np

from . import dd
from .geometry import (
    AngleVector,
    AreaReport,
    SmallPolygon,
    chain_coordinates,
    validate,
    vertices_from_angles,
)
from .reference import MAX_TABULATED_R, coeff_row
from .solver import (
    BoxProblem,
    BracketError,
    InfeasibleError,
    _area_gradient_s,
    _area_hessian_s,
    brentq,
    maximize_box,
    nlp_objective,
)

CLOSURE_RESIDUAL_TOL = 1e-14
_THETA_MAX = math.pi / 3
_PENALTY = -1.0


@dataclass(frozen=True)
class ReducedParams:
    """Free and derived parameters of the r-parameter construction.

    ``betas`` holds the floor(r/2) free pair angles, ``gammas_free`` the
    ceil(r/2) - 1 free asymmetries.  ``beta_derived`` (tail angle) and
    ``gamma_last_derived`` (final asymmetry) are filled in by ``derive``.
    """

    n: int
    r: int
    alpha: float
    betas: tuple[float, ...] = ()
    gammas_free: tuple[float, ...] = ()
    beta_derived: float | None = None
    gamma_last_derived: float | None = None

    def __post_init__(self):
        if self.n % 2 != 0 or self.n < 6:
            raise ValueError(f"n must be even and >= 6, got {self.n}")
        if self.r < 0:
            raise ValueError(f"r must be >= 0, got {self.r}")
        if self.n < 2 * self.r + 4:
            raise ValueError(f"need n >= 2r + 4, got n = {self.n}, r = {self.r}")
        object.__setattr__(self, "betas", tuple(float(b) for b in self.betas))
        object.__setattr__(self, "gammas_free", tuple(float(g) for g in self.gammas_free))
        nb, ng = free_shape(self.r)
        if len(self.betas) != nb:
            raise ValueError(f"r = {self.r} takes {nb} free betas, got {len(self.betas)}")
        if len(self.gammas_free) != ng:
            raise ValueError(
                f"r = {self.r} takes {ng} free gammas, got {len(self.gammas_free)}"
            )


def free_shape(r: int) -> tuple[int, int]:
    """(number of free betas, number of free gammas) for a given r."""
    if r == 0:
        return 0, 0
    return r // 2, (r + 1) // 2 - 1


def free_parameter_count(r: int) -> int:
    nb, ng = free_shape(r)
    return 1 + nb + ng


def _beta_dd(p: ReducedParams) -> dd.DD:
    m = p.n // 2
    if p.r == 0:
        return (dd.HALF_PI - dd.DD(p.alpha)) / dd.DD(float(m - 1))
    s = dd.DD(p.alpha)
    for b in p.betas:
        s = s + dd.DD(2.0 * b)
    tail = m - p.r - 1 if p.r % 2 == 0 else m - p.r
    return (dd.HALF_PI - s) / dd.DD(float(tail))


def solve_beta(p: ReducedParams) -> float:
    """Tail angle from the quarter-turn angle sum; linear in the inputs."""
    beta = _beta_dd(p).to_float()
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


def _prefix_state(th) -> tuple[float, float, float]:
    """Turn phi after the prefix angles and the chain vertex (x, y) before the last.

    For the rp + 1 angles of the varying prefix this is the state from which
    the constant-angle tail continues: phi = theta_0 + ... + theta_rp and
    vertex rp of the chain.  A scalar loop: it runs inside every root-finder
    step, on at most 17 angles.
    """
    s = x = y = 0.0
    for j, t in enumerate(th[:-1]):
        s += t
        sign = 1.0 if j % 2 == 0 else -1.0
        x += sign * math.sin(s)
        y += sign * math.cos(s)
    return s + th[-1], x, y


def closure_residual(p: ReducedParams, beta: float, gamma_last: float) -> float:
    """Chain-midpoint condition expressed through the varying prefix.

    Summing the constant-angle tail in closed form reduces x_{n/2-1} = +-1/2
    to: (x after the prefix) + sin(phi - beta/2) / (2 cos(beta/2)) = 0.
    """
    phi, x, _ = _prefix_state(_prefix_angles(p, beta, gamma_last))
    return x + math.sin(phi - beta / 2) / (2.0 * math.cos(beta / 2))


def solve_gamma_last(p: ReducedParams) -> float:
    """Final asymmetry from the closure condition, by bracketed root finding.

    The bracket [-pi/n, pi/n] is deliberately wider than the feasible box
    [0, pi/n]: a negative root is located reliably and the caller treats it
    as an infeasibility signal rather than a hard failure.
    """
    if p.r == 0:
        raise ValueError("r = 0 has no asymmetry parameter to derive")
    if p.beta_derived is None:
        raise ValueError("derive the tail angle first")
    beta = p.beta_derived
    f = lambda g: closure_residual(p, beta, g)
    lo, hi = -math.pi / p.n, math.pi / p.n
    gamma = brentq(f, lo, hi, rtol=1e-15)
    res = f(gamma)
    if abs(res) > CLOSURE_RESIDUAL_TOL:
        raise BracketError(
            f"closure residual {res:.3e} above {CLOSURE_RESIDUAL_TOL:.0e} at root"
        )
    return gamma


def derive(p: ReducedParams) -> ReducedParams:
    """Fill in the two derived parameters."""
    p = replace(p, beta_derived=solve_beta(p))
    if p.r > 0:
        p = replace(p, gamma_last_derived=solve_gamma_last(p))
    return p


def expand_angles(p: ReducedParams) -> AngleVector:
    """The full n/2 turning angles of the construction."""
    if p.beta_derived is None:
        raise ValueError("derive the parameters before expanding")
    if p.r > 0 and p.gamma_last_derived is None:
        raise ValueError("derive the parameters before expanding")
    m = p.n // 2
    beta = p.beta_derived
    if p.r == 0:
        th = [p.alpha] + [beta] * (m - 1)
    else:
        th = _prefix_angles(p, beta, p.gamma_last_derived)
        th += [beta] * (m - len(th))
    for k, t in enumerate(th):
        hi = math.pi / 6 if k == 0 else _THETA_MAX
        if not -1e-12 <= t <= hi + 1e-12:
            raise ValueError(f"expanded angle theta_{k} = {t:.6f} outside [0, {hi:.6f}]")
    return AngleVector(p.n, tuple(th))


def reduced_area(p: ReducedParams) -> float:
    """Polygon area in closed form; evaluation cost independent of n.

    The constant-angle tail contributes (n/2 - prefix - 1) copies of
    sin(beta) - tan(beta/2) plus one correction term built from the prefix
    state; the prefix contributes its own triangle areas.  For r = 0 the
    value is the polygon area only at the closure point alpha = beta/2.
    """
    if p.beta_derived is None:
        raise ValueError("derive the parameters before evaluating the area")
    return _area_terms(p)[0]


def area_deficit(p: ReducedParams) -> float:
    """pi/4 - area - 5 pi^3 / 48 n^2, accumulated in double-double.

    The plain double area is accurate to about 1e-16, which is exactly the
    scale of the deficit's own 1/n^3 term at n ~ 50000; compensated
    accumulation of the same closed form keeps the deficit meaningful there.
    """
    if p.beta_derived is None:
        raise ValueError("derive the parameters before evaluating the deficit")
    _, acc = _area_terms(p)
    n = p.n
    pi3 = dd.PI * dd.PI * dd.PI
    corr = pi3 * dd.DD(5.0) / dd.DD(float(48 * n * n))
    return (dd.QUARTER_PI - acc - corr).to_float()


def _area_terms(p: ReducedParams) -> tuple[float, dd.DD]:
    """Area both as a plain double and as a compensated accumulation.

    The prefix contributes the triangle sum of its rp + 1 angles, the tail
    (n/2 - rp - 1) copies of sin(beta) - tan(beta/2), and one correction term
    joins them; for r = 0 the prefix is theta_0 = alpha alone.
    """
    beta_dd = _beta_dd(p)
    beta = beta_dd.to_float()
    th = _prefix_angles(p, beta, p.gamma_last_derived)
    phi, x, y = _prefix_state(th)
    correction = (x * math.sin(phi) + y * math.cos(phi) + 0.5) * math.tan(beta / 2)
    tail = dd.sin_minus_half_tan(beta_dd) * dd.DD(float(p.n // 2 - len(th)))
    acc = tail + dd.DD(nlp_objective(th)) + dd.DD(-correction)
    return acc.to_float(), acc


# ---------------------------------------------------------------------------
# optimization over the free parameters
# ---------------------------------------------------------------------------

def parameter_bounds(n: int, r: int) -> tuple[np.ndarray, np.ndarray]:
    nb, ng = free_shape(r)
    lo = np.array([math.pi / (2 * n - 2)] + [math.pi / n] * nb + [0.0] * ng)
    hi = np.array([math.pi / n] + [2 * math.pi / n] * nb + [math.pi / n] * ng)
    return lo, hi


def params_from_vector(n: int, r: int, vec) -> ReducedParams:
    nb, ng = free_shape(r)
    vec = [float(v) for v in vec]
    if len(vec) != 1 + nb + ng:
        raise ValueError(f"expected {1 + nb + ng} free parameters, got {len(vec)}")
    return ReducedParams(
        n=n,
        r=r,
        alpha=vec[0],
        betas=tuple(vec[1 : 1 + nb]),
        gammas_free=tuple(vec[1 + nb :]),
    )


def params_to_vector(p: ReducedParams) -> np.ndarray:
    return np.array([p.alpha, *p.betas, *p.gammas_free])


def start_vector(n: int, r: int) -> np.ndarray:
    """Scaled asymptotic limits as the initial point; best prior available."""
    nb, ng = free_shape(r)
    row = coeff_row(min(r, MAX_TABULATED_R))
    a = row.a if row.a is not None else 0.6587
    bs = list(row.b[:nb]) + [1.0] * max(0, nb - len(row.b))
    cs = list(row.c[:ng]) + [1e-6] * max(0, ng - len(row.c))
    scale = math.pi / n
    return np.array([a * scale] + [b * scale for b in bs] + [c * scale for c in cs])


def objective(n: int, r: int, vec) -> float:
    """Area of the candidate, or a graded penalty when derivation fails."""
    try:
        p = params_from_vector(n, r, vec)
        p = derive(p)
    except (ValueError, BracketError):
        return _PENALTY - float(np.sum(np.abs(vec)))
    return reduced_area(p)


def derivatives(n: int, r: int, vec):
    """Gradient and Hessian of ``objective`` in the free parameters, r >= 1.

    Returns None where ``objective`` is a penalty.  With u = (free parameters
    p, gamma_last), the area F and the closure residual C are closed forms
    in z = (S_0, ..., S_rp, beta), the partial sums of the rp + 1 prefix
    angles and the tail angle, and z is affine in u.  In z the prefix
    triangle sum T has the full program's gradient and Hessian in partial
    sums; the prefix vertex (X, Y) = vertex rp has gradient (q_j, -p_j) and
    diagonal Hessians -p_j and -q_j in S_j, j < rp, where (p_j, q_j) are the
    chain steps; the turn phi = S_rp is a coordinate.  The closure defines
    gamma_last(p), hence grad = F_p - mu C_p and Hessian = Z^T (F_uu - mu
    C_uu) Z with mu = F_gamma / C_gamma and Z = [I; -C_p / C_gamma].
    Everything is evaluated at the point ``derive`` returns.
    """
    try:
        p = derive(params_from_vector(n, r, vec))
    except (ValueError, BracketError):
        return None
    nb, ng = free_shape(r)
    k = 1 + nb + ng
    beta = p.beta_derived
    th = _prefix_angles(p, beta, p.gamma_last_derived)
    rp = len(th) - 1
    tc = n // 2 - rp - 1  # tail angles after the prefix

    # A = dz/du: beta from the angle sum (beta fills the tail and, for odd
    # r, the last pair), the prefix angles alpha and (b + g, b - g), then
    # the partial sums of the prefix rows
    A = np.zeros((rp + 2, k + 1))
    eye = np.eye(k + 1)
    tail = tc + 2 * (r % 2)
    A[rp + 1, 0] = -1.0 / tail
    A[rp + 1, 1 : 1 + nb] = -2.0 / tail
    A[0, 0] = 1.0
    bs = [eye[1 + i] for i in range(nb)] + [A[rp + 1]] * (r % 2)
    gs = [eye[1 + nb + i] for i in range(ng)] + [eye[k]]
    for i, (b, g) in enumerate(zip(bs, gs)):
        A[2 * i + 1] = b + g
        A[2 * i + 2] = b - g
    A[: rp + 1] = np.cumsum(A[: rp + 1], axis=0)

    # prefix terms in z: triangles T, vertex rp = (X, Y), phi = S_rp
    x, y = chain_coordinates(th)
    gT, gX, gY = np.zeros((3, rp + 2))
    gT[: rp + 1] = _area_gradient_s(x, y)
    gX[:rp] = np.diff(y)[:rp]  # q_j
    gY[:rp] = -np.diff(x)[:rp]  # -p_j
    HT = np.zeros((rp + 2, rp + 2))
    HT[: rp + 1, : rp + 1] = _area_hessian_s(th)
    HX, HY = np.diag(gY), np.diag(-gX)  # diag(-p_j), diag(-q_j)
    e_phi, e_beta = np.eye(rp + 2)[rp:]
    sym = lambda a, b: np.outer(a, b) + np.outer(b, a)

    phi, X, Y = math.fsum(th), x[rp], y[rp]
    sp, cp = math.sin(phi), math.cos(phi)
    t = math.tan(beta / 2)
    t1 = (1.0 + t * t) / 2.0
    t2 = t * t1
    # F = tc (sin beta - t) + T - (W + 1/2) t,  W = X sin phi + Y cos phi
    w_val = X * sp + Y * cp
    gW = sp * gX + cp * gY + (X * cp - Y * sp) * e_phi
    HW = sp * HX + cp * HY + sym(cp * gX - sp * gY, e_phi) - w_val * np.outer(e_phi, e_phi)
    gF = gT - t * gW + (tc * (math.cos(beta) - t1) - (w_val + 0.5) * t1) * e_beta
    HF = (HT - t * HW - t1 * sym(gW, e_beta)
          + (tc * (-math.sin(beta) - t2) - (w_val + 0.5) * t2) * np.outer(e_beta, e_beta))
    # C = X + (sin phi - t cos phi) / 2
    gC = gX + (cp + sp * t) / 2.0 * e_phi - cp * t1 / 2.0 * e_beta
    HC = (HX + (t * cp - sp) / 2.0 * np.outer(e_phi, e_phi) + sp * t1 / 2.0 * sym(e_phi, e_beta)
          - cp * t2 / 2.0 * np.outer(e_beta, e_beta))

    gFu, gCu = A.T @ gF, A.T @ gC
    mu = gFu[k] / gCu[k]
    B = A @ np.vstack((np.eye(k), -gCu[:k] / gCu[k]))
    return gFu[:k] - mu * gCu[:k], B.T @ (HF - mu * HC) @ B


def construct_Q(
    n: int,
    r: int,
    *,
    multistart: int = 8,
    seed: int = 0,
    tol: float = 1e-8,
    max_iter: int = 300,
    allow_large_r: bool = False,
) -> tuple[SmallPolygon, AreaReport, ReducedParams]:
    """Best polygon of the r-parameter family for the given n.

    ``multistart`` counts the jittered restarts added to the deterministic
    start at the scaled asymptotic limits.  r above 16 has no tabulated start
    or golden values and must be enabled explicitly.
    """
    if n % 2 != 0 or n < 6:
        raise ValueError(f"n must be even and >= 6, got {n}")
    if r < 0 or n < 2 * r + 4:
        raise ValueError(f"need n >= 2r + 4 with r >= 0, got n = {n}, r = {r}")
    if r > MAX_TABULATED_R and not allow_large_r:
        raise ValueError(
            f"r = {r} exceeds the tabulated range ({MAX_TABULATED_R}); "
            "pass allow_large_r=True to proceed without golden values"
        )

    if r == 0:
        params = derive(ReducedParams(n=n, r=0, alpha=math.pi / (2 * n - 2)))
        polygon = vertices_from_angles(expand_angles(params))
        return polygon, validate(polygon), params

    lo, hi = parameter_bounds(n, r)
    problem = BoxProblem(
        lower=tuple(lo),
        upper=tuple(hi),
        objective=lambda v: objective(n, r, v),
        derivatives=lambda v: derivatives(n, r, v),
        tol=tol,
        max_iter=max_iter,
        multistart_seeds=tuple(range(seed, seed + multistart)),
    )
    best, value, diag = maximize_box(problem, start_vector(n, r))
    if value <= _PENALTY:
        raise InfeasibleError(
            f"no feasible point found for n = {n}, r = {r}; best value {value:.3e}",
            diag,
        )
    params = derive(params_from_vector(n, r, best))
    polygon = vertices_from_angles(expand_angles(params))
    return polygon, validate(polygon), params


def theorem_r(n: int) -> int:
    """Family size used for the headline construction at each n."""
    return n // 2 - 2 if n <= 34 else 16


def construct_Q_theorem(
    n: int,
    *,
    multistart: int = 2,
    seed: int = 0,
    tol: float = 1e-8,
    max_iter: int = 300,
) -> tuple[SmallPolygon, AreaReport, ReducedParams]:
    """The headline polygon: r = n/2 - 2 up to n = 34, r = 16 beyond."""
    if n % 2 != 0 or n < 6:
        raise ValueError(f"n must be even and >= 6, got {n}")
    return construct_Q(
        n, theorem_r(n), multistart=multistart, seed=seed, tol=tol, max_iter=max_iter
    )
