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
from dataclasses import dataclass, field

import numpy as np

from .geometry import (
    THETA_MAX,
    AngleVector,
    AreaReport,
    SmallPolygon,
    area_gradient_s,
    area_hessian_s,
    require_even,
    triangle_terms,
    validate,
    vertices_from_angles,
    walk_chain,
)
from .reference import MAX_TABULATED_R, START_DRIFT, coeff_row
from .solver import BoxProblem, BracketError, brentq, maximize_box

CLOSURE_RESIDUAL_TOL = 1e-14
_PI_LO = 1.2246467991473532e-16  # pi - math.pi, rounded
# the deficit leaves out -5 pi^3 / 48 n^2, formed as this over 48 n^2
_MINUS_5_PI3 = -5 * math.pi**3
_SPLITTER = 134217729.0  # 2**27 + 1: Dekker's split into two 26-bit halves
# g(b) = sin b - tan(b/2) - b/2 = -5 b^3/24 + b^5/240 - 5 b^7/8064
#        - 29 b^9/725760 - 139 b^11/31933440 - ..., highest order first
_G_TAYLOR = (-139 / 31933440, -29 / 725760, -5 / 8064, 1 / 240, -5 / 24)


@dataclass(frozen=True)
class ReducedParams:
    """Free and derived parameters of the r-parameter construction.

    ``betas`` holds the floor(r/2) free pair angles, ``gammas_free`` the
    ceil(r/2) - 1 free asymmetries; ``__init__``, the one check of a
    point, counts each on its own.  ``beta_derived`` (tail angle) and
    ``gamma_last_derived`` (final asymmetry) are filled in by ``derive``,
    which also keeps its walk of the prefix in ``_walk``: the prefix angles
    and their ``walk_chain`` (S, x, y), read-only.  A derived point's area
    and deficit are summed once, when first read, and kept in ``_terms``
    (``_area_terms``).  Neither private field is an argument or compared,
    so ``dataclasses.replace`` drops both and the readers of the walk refuse
    the copy as underived.  Every angle is stored as a Python float, -0.0
    as 0.0, so equal points have identical bits.
    """

    n: int
    r: int
    alpha: float
    betas: tuple[float, ...] = ()
    gammas_free: tuple[float, ...] = ()
    beta_derived: float | None = None
    gamma_last_derived: float | None = None
    _walk: tuple | None = field(default=None, init=False, repr=False, compare=False)
    _terms: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __init__(self, n, r, alpha, betas=(), gammas_free=(), beta_derived=None,
                 gamma_last_derived=None):
        # written out, not generated: a frozen dataclass's __init__ sets each
        # field through object.__setattr__, and a __post_init__ would then
        # set most of them again; here each is set once, in the instance dict
        _check_size(n, r)
        alpha = float(alpha) + 0.0
        betas = tuple([float(b) + 0.0 for b in betas])
        gammas_free = tuple([float(g) + 0.0 for g in gammas_free])
        nb, ng = free_shape(r)
        if len(betas) != nb:
            raise ValueError(f"r = {r} takes {nb} free betas, got {len(betas)}")
        if len(gammas_free) != ng:
            raise ValueError(f"r = {r} takes {ng} free gammas, got {len(gammas_free)}")
        if beta_derived is not None:
            beta_derived = float(beta_derived) + 0.0
        if gamma_last_derived is not None:
            gamma_last_derived = float(gamma_last_derived) + 0.0
        self.__dict__.update(
            n=n, r=r, alpha=alpha, betas=betas, gammas_free=gammas_free,
            beta_derived=beta_derived, gamma_last_derived=gamma_last_derived,
            _walk=None, _terms=None,
        )


def require_r(r: int) -> None:
    """The one check that r is an integer, for the family and the cubics.

    A bool is not an r, and a float is refused rather than truncated; a
    numpy integer passes, as ``require_even`` lets one pass for n.
    """
    if isinstance(r, bool) or not isinstance(r, (int, np.integer)):
        raise ValueError(f"r must be an integer, got {r!r}")


def _check_size(n: int, r: int) -> None:
    """The family's size check: n even and >= 6, r an integer >= 0 and n >= 2r + 4."""
    require_even(n, minimum=6)
    require_r(r)
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

    Every angle after alpha and the free pairs is beta (for odd r the last
    pair's too, ``_pairs``), so the tail count is n/2 - 1 - 2 len(betas).
    The quotient (pi/2 - alpha - 2 sum(betas)) / tail of the ``fsum`` of
    the terms (pi/2 as its high and low parts), plus the exact remainder,
    itself an ``fsum`` of the same terms and the four exact partial products
    of the split quotient and tail count, divided by the tail count.
    """
    tail = float(p.n // 2 - 1 - 2 * len(p.betas))
    terms = [math.pi / 2, _PI_LO / 2, -p.alpha, *[-2.0 * b for b in p.betas]]
    q = math.fsum(terms) / tail
    qh, ql = _split(q)
    th, tl = _split(tail)
    terms += (-qh * th, -qh * tl, -ql * th, -ql * tl)
    beta = q + math.fsum(terms) / tail
    if not 0.0 < beta < THETA_MAX:
        raise ValueError(f"derived tail angle {beta:.6f} outside (0, pi/3)")
    return beta


def _pairs(r: int, betas, beta, gammas, gamma_last) -> zip:
    """The prefix's pairs (b, g), whose angles are b + g and b - g.

    The one home of the pair layout: the free betas, then for odd r the
    tail angle beta, zipped with the free gammas and gamma_last.  Read with
    the point's angles (``_prefix_angles``, ``_area_terms``)
    and with unit rows (``_sum_skeleton``).
    """
    return zip([*betas, beta] if r % 2 else betas, [*gammas, gamma_last])


def _prefix_angles(p: ReducedParams, beta: float, gamma_last: float) -> list[float]:
    """alpha, then b + g and b - g for each of the point's ``_pairs``."""
    th = [p.alpha]
    for b, g in _pairs(p.r, p.betas, beta, p.gammas_free, gamma_last):
        th.append(b + g)
        th.append(b - g)
    return th


def derive(p: ReducedParams) -> ReducedParams:
    """Fill in the two derived parameters and the prefix walk (one copy of ``p``).

    The tail angle comes from the angle sum (``solve_beta``).  The one walk
    of the prefix (``walk_chain``) is kept in the copy, and the area, the
    deficit, ``derivatives`` and ``expand_angles`` read it.  For r >= 1 it
    walks the angles before the last pair (b + g, b - g) first: they do not
    depend on g = gamma_last.  Summing the constant-angle tail in closed
    form reduces x_{n/2-1} = +-1/2 to x_rp + sin(phi - beta/2) / (2
    cos(beta/2)) = 0, phi = S_rp, and each evaluation of that residual adds
    only the last pair, whose first angle is an odd step of the chain.  Its
    ``brentq`` root, checked to ``CLOSURE_RESIDUAL_TOL``, is gamma_last, and
    the walk goes on by the last pair's two angles.  Every call derives
    anew; the family's solve reaches it through ``_derived``, which keeps
    the last point derived from a vector.
    """
    beta = solve_beta(p)
    gamma = p.gamma_last_derived
    th = _prefix_angles(p, beta, 0.0)
    walk = walk_chain(th[:-2] if p.r else th)
    if p.r > 0:
        b = th[-2]  # the last pair's beta
        s0, x0 = walk[0][-1], walk[1][-1]
        half = beta / 2
        den = 2.0 * math.cos(half)

        def residual(g: float) -> float:
            s = s0 + (b + g)
            return x0 - math.sin(s) + math.sin(s + (b - g) - half) / den

        # the bracket [-pi/n, pi/n] is deliberately wider than the box
        # [0, pi/n], so a negative root is found rather than failing it
        gamma = brentq(residual, -math.pi / p.n, math.pi / p.n) + 0.0
        res = residual(gamma)
        if abs(res) > CLOSURE_RESIDUAL_TOL:
            raise BracketError(
                f"closure residual {res:.3e} above {CLOSURE_RESIDUAL_TOL:.0e} at root"
            )
        th[-2:] = b + gamma, b - gamma
        walk = walk_chain(th[-2:], walk)
    # a copy of the validated p with the derived fields set, the floats
    # stored as ``__init__`` stores them; ``dataclasses.replace`` would
    # run it again
    q = object.__new__(ReducedParams)
    q.__dict__.update(
        p.__dict__, beta_derived=beta, gamma_last_derived=gamma, _walk=(th, *walk),
        _terms=None,
    )
    return q


def _walk_of(p: ReducedParams, doing: str) -> tuple[list, list, list, list]:
    """The prefix walk (angles, S, x, y) that ``derive`` kept in ``p``.

    A point that ``derive`` did not make, a ``dataclasses.replace`` of a
    derived one included, has none and is refused.
    """
    if p._walk is None:
        raise ValueError(f"derive the parameters before {doing}")
    return p._walk


def expand_angles(p: ReducedParams) -> AngleVector:
    """The full n/2 turning angles of the construction (``AngleVector`` checks their box)."""
    prefix = _walk_of(p, "expanding")[0]
    th = np.full(p.n // 2, p.beta_derived)
    th[: len(prefix)] = prefix
    return AngleVector(p.n, th)


def reduced_area(p: ReducedParams) -> float:
    """Polygon area in closed form; evaluation cost independent of n.

    The constant-angle tail contributes (n/2 - prefix - 1) copies of
    sin(beta) - tan(beta/2) plus one correction term built from the prefix
    state; the prefix contributes its own triangle areas.  For r = 0 the
    value is the polygon area only at the closure point alpha = beta/2.
    Summed as ``_area_terms`` describes, from the walk ``derive`` kept.
    """
    _walk_of(p, "evaluating the area")
    return _area_terms(p)[0]


def area_deficit(p: ReducedParams) -> float:
    """pi/4 - area - 5 pi^3 / 48 n^2 as one ``fsum`` of O(1/n) terms.

    The area lies within 1e-9 of pi/4 at large n, so subtracting it from
    pi/4 would leave rounding noise at the scale of the deficit's own 1/n^3
    term; ``_area_terms`` sums the deficit without forming either.

    Resolved for n up to 1e6.  The deficit reads gamma_last with unit weight
    and falls to about 4e-18 at n = 1e6, and ``brentq``'s stop test is
    relative to the root (2 eps |gamma_last|), so the root solve does not
    stop short of that scale.  What limits it is the rounding of the
    plain-double prefix terms, the closure residual's among them: against
    a 50-digit oracle that solves the closure itself, the worst relative
    errors over 1200 random optima with r in 1..16 were 2.4e-7 below n =
    1e4, 2.3e-5 below 1e5 and 1.8e-3 below 1e6; in 1e6..1e7 they reach
    16%.  ``asymptotics.estimate_q_numeric`` refuses a grid n above 1e6.
    """
    _walk_of(p, "evaluating the deficit")
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


def _area_terms(p: ReducedParams) -> tuple[float, float]:
    """Area and deficit, each one ``math.fsum`` of O(1/n) terms.

    The prefix contributes the triangle sum ``tri`` of its rp + 1 angles,
    the tail tc = n/2 - rp - 1 copies of sin(beta) - tan(beta/2), and one
    ``correction`` in phi = S_rp and vertex rp joins them, all three from
    the walk that ``derive`` kept, with the triangles' terms formed by
    ``triangle_terms``; for r = 0 the prefix is theta_0 = alpha alone.  Since
    tc beta = pi/2 - phi for the exact tail angle, the tail is pi/4 - phi/2
    + tc g(beta) (``_g``), with phi/2 = alpha/2 plus the beta of each of
    ``_pairs`` taken term by term.  So the deficit is
    phi/2 - tc g(beta) - tri + correction - 5 pi^3/48n^2, with no O(1) term
    to cancel, and the area pi/4 - phi/2 + tc g(beta) + tri - correction.
    Both are summed from one list of terms: the deficit's are the area's
    after pi/4, negated, and the n^-2 term, and a correctly rounded sum of
    negated terms is the negated sum.  Summed at the first read of a
    derived point and kept on it (``_terms``), so the ``area_deficit``
    after a solve's closing ``objective`` reads the sums that made the
    area.  Its callers refuse a point without a walk.
    """
    if p._terms is not None:
        return p._terms
    beta = p.beta_derived
    th, S, x, y = p._walk
    tri = triangle_terms(th, S, x, y)
    phi, X, Y = S[-1], x[-2], y[-2]  # S_rp and vertex rp
    correction = (X * math.sin(phi) + Y * math.cos(phi) + 0.5) * math.tan(beta / 2)
    tail = (p.n // 2 - len(th)) * _g(beta)
    terms = [-p.alpha / 2, *[-b for b, _ in _pairs(p.r, p.betas, beta, p.gammas_free, None)],
             tail, *tri, -correction]
    area = math.fsum([math.pi / 4, _PI_LO / 4, *terms])
    terms.append(-(_MINUS_5_PI3 / (48 * p.n * p.n)))
    p.__dict__["_terms"] = area, -math.fsum(terms)
    return p._terms


# ---------------------------------------------------------------------------
# optimization over the free parameters
# ---------------------------------------------------------------------------

def _box(n: int, r: int) -> tuple[list, list]:
    """(lower, upper) of alpha, the betas and the gammas, as lists of floats."""
    nb, ng = free_shape(r)
    step = math.pi / n
    return (
        [math.pi / (2 * n - 2), *[step] * nb, *[0.0] * ng],
        [step, *[2 * math.pi / n] * nb, *[step] * ng],
    )


def params_from_vector(n: int, r: int, vec) -> ReducedParams:
    """The point with free parameters ``vec``: alpha, the betas, the gammas.

    Split by ``free_shape`` and checked as every point is, so a vector of
    the wrong length fails the count of its gammas.  ``ReducedParams``
    converts each entry to a Python float.
    """
    alpha, *rest = vec
    nb = free_shape(r)[0]
    return ReducedParams(n, r, alpha, rest[:nb], rest[nb:])


# the key (n, r, their types, the floats) and point of the last ``_derived`` call
_last_derived: tuple = ((), None)


def _derived(n: int, r: int, vec) -> ReducedParams:
    """``derive(params_from_vector(n, r, vec))``, the last one kept.

    The one memo in front of ``derive``, keyed on n, r, their types (a
    float n or a bool r is not served the point of an int one) and the
    vector's floats (-0.0 equals 0.0, which the point stores).
    ``derivatives`` derives each Newton iterate through it, and the closing
    ``objective`` of a box solve and the result of ``best_params`` read
    the point that the solve's last ``derivatives`` call derived, root
    solve included: a zero-step solve builds and derives its point once.
    """
    global _last_derived
    floats = np.asarray(vec, dtype=float).tolist()
    key = (n, r, type(n), type(r), *floats)
    if key != _last_derived[0]:
        _last_derived = key, derive(params_from_vector(n, r, floats))
    return _last_derived[1]


def params_to_vector(p: ReducedParams) -> np.ndarray:
    return np.array([p.alpha, *p.betas, *p.gammas_free])


def start_vector(n: int, r: int) -> np.ndarray:
    """pi/n (u* + (x_1 + x_2/n)/n), O(1/n^3) in scaled units from the optimum.

    For r >= 1: u* are the tabulated scaled limits of ``coeff_row(r)`` and
    (x_1, x_2) their fitted first- and second-order drift ``START_DRIFT[r]``.
    The solve takes no step from a start whose gradient is already under
    1e-13, as at every n >= 2000 of the acceptance grid, so there the result
    is this start and its accuracy is the start's.
    """
    row = coeff_row(r)
    x1, x2 = START_DRIFT[r]
    step, nf = math.pi / n, float(n)  # b / n is b / float(n)
    return np.array(
        [step * (u + (a + b / nf) / nf) for u, a, b in zip((row.a, *row.b, *row.c), x1, x2)]
    )


def objective(n: int, r: int, vec) -> float:
    """Area of the candidate; a ValueError where ``derive`` finds none.

    The point comes from ``_derived``, so at the end of a box solve it is
    the one the last ``derivatives`` call derived.
    """
    return reduced_area(_derived(n, r, vec))


@functools.lru_cache(maxsize=MAX_TABULATED_R + 1)
def _sum_skeleton(r: int) -> np.ndarray:
    """The rows of ``_sum_map`` that do not depend on n; read-only, one per r.

    The prefix angles of ``_pairs`` laid out on unit rows and accumulated,
    with the beta row left zero: for odd r the last pair's rows then hold
    only their gamma_last terms, and ``_sum_map`` adds the tail angle's.
    """
    nb, ng = free_shape(r)
    k = 1 + nb + ng
    eye = np.eye(k + 1)
    zero = np.zeros(k + 1)
    rows = [eye[0]]
    for b, g in _pairs(r, eye[1 : 1 + nb], zero, eye[1 + nb : k], eye[k]):
        rows += (b + g, b - g)
    A = np.vstack(rows + [zero])
    A[:-1] = np.cumsum(A[:-1], axis=0)
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
    nb = free_shape(r)[0]
    A = _sum_skeleton(r).copy()
    rp, k = A.shape[0] - 2, A.shape[1] - 1
    tail = n // 2 - 1 - 2 * nb
    b = A[rp + 1]
    b[0] = -1.0 / tail
    b[1 : 1 + nb] = -2.0 / tail
    if r % 2:
        # the last pair's angles are beta +- gamma_last
        A[rp - 1] += b
        A[rp, :k] = A[rp - 1, :k] + b[:k]
    A.setflags(write=False)
    return A


def derivatives(n: int, r: int, vec):
    """Gradient and Hessian of ``objective`` in the free parameters, r >= 1.

    Returns ``(gradient, hessian)`` with ``hessian`` a zero-argument
    callable (the ``BoxProblem`` contract), or None where ``derive`` raises
    (``objective`` is undefined); a malformed n or r is the caller's error
    and raises the ``ValueError`` of ``_check_size``.  The gradient and mu
    are computed here, from the vertices of the prefix walk that ``derive``
    kept (a point without one is refused), their steps and area gradient
    (``area_gradient_s``) and one product with A; the prefix triangles'
    dense Hessian and the B^T H B assembly wait for ``hessian()``, which the
    Newton kernel calls only at the points it steps from.  The turn phi is
    the walk's S_rp, as in ``_area_terms``.  With u = (free parameters p,
    gamma_last), the area F and the closure residual C are closed forms in z
    = (S_0, ..., S_rp, beta), the partial sums of the rp + 1 prefix angles
    and the tail angle, and z = A u is linear with A fixed per (n, r)
    (``_sum_map``).  In z the prefix triangle sum T has ``area_gradient_s``
    and ``area_hessian_s`` in partial sums; the prefix vertex (X, Y) =
    vertex rp has gradient (q_j, -p_j) and diagonal Hessians -p_j and -q_j
    in S_j, j < rp, where (p_j, q_j) are the chain steps; the turn phi =
    S_rp is a coordinate.  Every term other than T is diagonal or lies in the
    phi and beta rows and columns, so F_zz - mu C_zz is written into T's
    Hessian there.  The closure defines gamma_last(p), hence grad = F_p - mu
    C_p and Hessian = Z^T (F_uu - mu C_uu) Z with mu = F_gamma / C_gamma and
    Z = [I; -C_p / C_gamma].  Everything is evaluated at the point
    ``_derived`` keeps for ``vec``: built and derived here at a new vector,
    and read again by the closing ``objective`` of the solve.  The two
    products with A are A^T gF and A^T gC as ``np.dot`` forms them, one
    matrix-vector product each.
    """
    try:
        p = _derived(n, r, vec)
    except ValueError:
        p = None
    if p is None:
        # the point's construction checks the size too; only a point that
        # derive finds undefined gives None
        _check_size(n, r)
        return None
    _, S, x, y = _walk_of(p, "differentiating")
    k = 1 + len(p.betas) + len(p.gammas_free)
    A = _sum_map(n, r)
    beta = p.beta_derived
    rp = len(S) - 1
    tc = n // 2 - rp - 1  # tail angles after the prefix

    # prefix terms in z: triangles T, vertex rp = (X, Y), phi = S_rp; the
    # entries of gX and gY after rp - 1 are zero and left out
    steps_p, steps_q, gT = area_gradient_s(x, y)
    gX = steps_q[:rp]  # q_j; gY is -p_j

    phi, X, Y = S[rp], x[rp], y[rp]
    sp, cp = math.sin(phi), math.cos(phi)
    t = math.tan(beta / 2)
    t1 = (1.0 + t * t) / 2.0
    # F = tc (sin beta - t) + T - (W + 1/2) t,  W = X sin phi + Y cos phi,
    # with dW = sp gX + cp gY + (X cp - Y sp) e_phi and d2W = diag(sp gY -
    # cp gX) + sym(cp gX - sp gY, e_phi) - W e_phi e_phi
    w_val = X * sp + Y * cp
    gW_phi = X * cp - Y * sp
    gF = [a - t * (sp * b - cp * c) for a, b, c in zip(gT, gX, steps_p)]
    gF += (gT[rp] - t * gW_phi, tc * (math.cos(beta) - t1) - (w_val + 0.5) * t1)
    # C = X + (sin phi - t cos phi) / 2, d2C = diag(gY) + terms in phi, beta
    gC = gX + [(cp + sp * t) / 2.0, -cp * t1 / 2.0]

    gFu, gCu = np.dot(gF, A), np.dot(gC, A)  # A^T gF and A^T gC
    mu = float(gFu[k] / gCu[k])  # a Python float, for the Python arithmetic below

    def hessian():
        # H = F_zz - mu C_zz, written into T's Hessian: the diagonals of -t
        # d2W and -mu d2C, -t sym(cp gX - sp gY, e_phi), -t1 sym(dW,
        # e_beta), then the phi and beta corners.  The O(rp) terms are
        # formed in Python floats, with gX and gY zero at phi and beta; the
        # phi and beta rows are subtracted as one block, then as columns
        gXa = gX + [0.0, 0.0]
        gYa = [-v for v in steps_p[:rp]] + [0.0, 0.0]
        H = np.zeros((rp + 2, rp + 2))
        H[: rp + 1, : rp + 1] = area_hessian_s(S)
        H.flat[:: rp + 3] -= [t * (sp * b - cp * a) + mu * b for a, b in zip(gXa, gYa)]
        V = np.array([
            [t * (cp * a - sp * b) for a, b in zip(gXa, gYa)],
            [t1 * (sp * a - cp * b) for a, b in zip(gX, steps_p)] + [t1 * gW_phi, t1 * 0.0],
        ])
        H[rp:] -= V
        H[:, rp:] -= V.T
        H[rp, rp] += t * w_val - mu * (t * cp - sp) / 2.0
        H[rp, rp + 1] -= mu * sp * t1 / 2.0
        H[rp + 1, rp] -= mu * sp * t1 / 2.0
        t2 = t * t1
        H[rp + 1, rp + 1] += (tc * (-math.sin(beta) - t2) - (w_val + 0.5) * t2
                              + mu * cp * t2 / 2.0)
        Z = np.eye(k + 1, k)
        np.divide(gCu[:k], -gCu[k], out=Z[k])  # -C_p / C_gamma
        B = A @ Z
        return B.T @ H @ B

    return gFu[:k] - mu * gCu[:k], hessian


def best_params(n: int, r: int) -> ReducedParams:
    """Derived parameters of the family's best polygon for the given n.

    The one check of n and r: ``_check_size``, then, for r >= 1, the
    tabulated r of ``start_vector``.  r = 0 has no free parameter: alpha =
    pi/(2n - 2), half the tail angle.  Otherwise one Newton solve of the box
    maximizer from ``start_vector``, over the box of ``_box``; an undefined
    start raises the ValueError of ``derive`` when the solve evaluates
    ``objective`` there.  The result is the point the solve's last
    ``derivatives`` call derived, read from ``_derived``: a solve builds
    and derives each iterate's point once.  A start whose gradient is
    already under 1e-13, as at every n >= 2000 for r = 1..16, is returned
    as it is, so the parameters are then as accurate as the start, O(1/n^3)
    in scaled units.
    """
    _check_size(n, r)
    if r == 0:
        return derive(ReducedParams(n=n, r=0, alpha=math.pi / (2 * n - 2)))
    lo, hi = _box(n, r)
    problem = BoxProblem(
        lower=lo,
        upper=hi,
        objective=lambda v: objective(n, r, v),
        derivatives=lambda v: derivatives(n, r, v),
    )
    best, _, _ = maximize_box(problem, start_vector(n, r))
    return _derived(n, r, best)


def construct_Q(n: int, r: int) -> tuple[SmallPolygon, AreaReport, ReducedParams]:
    """Best polygon of the r-parameter family for the given n (``best_params``)."""
    params = best_params(n, r)
    polygon = vertices_from_angles(expand_angles(params))
    return polygon, validate(polygon), params


def theorem_r(n: int) -> int:
    """Family size used for the headline construction at each n."""
    return n // 2 - 2 if n <= 34 else 16


def construct_Q_theorem(n: int) -> tuple[SmallPolygon, AreaReport, ReducedParams]:
    """The headline polygon: r = n/2 - 2 up to n = 34, r = 16 beyond.

    ``best_params`` checks n first, so an odd n or n < 6 raises its error.
    """
    return construct_Q(n, theorem_r(n))
