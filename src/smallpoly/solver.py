"""Self-contained continuous optimizers and root finding.

Three pieces of machinery live here:

* ``brentq``: bracketed scalar root finding (bisection safeguarded by
  inverse-quadratic/secant steps).
* ``maximize_box``: derivative-free box-constrained maximization built from a
  projected limited-memory quasi-Newton loop with central finite-difference
  gradients, finished by a local quadratic-model polish that recovers the last
  few digits the line search cannot resolve.
* ``solve_full_nlp``: the symmetric-polygon area program over the n/2 turning
  angles with its two equality constraints (angles sum to a quarter turn, the
  chain midpoint lands at x = +-1/2), solved from each start by Newton steps
  on the KKT system with the exact Hessian of the Lagrangian (shifted where a
  far start needs it) and step halving that keeps the angles in their box.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import AngleVector, half_sign

_EPS = 2.220446049250313e-16
# areas of full-program starts closer than this are treated as equal
AREA_TIE = 1e-12


class BracketError(ValueError):
    """Root finder was given an interval without a sign change."""


class InfeasibleError(RuntimeError):
    """Solver stopped without reaching the requested tolerances."""

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics


@dataclass
class Diagnostics:
    converged: bool = True
    iterations: int = 0
    nfev: int = 0
    grad_norm: float = math.nan
    message: str = ""
    start_values: tuple[float, ...] = ()
    constraint_residual: float | None = None
    kkt_norm: float | None = None
    multipliers: tuple[float, ...] | None = None

    @property
    def multistart_spread(self) -> float:
        vals = [v for v in self.start_values if math.isfinite(v)]
        if len(vals) < 2:
            return 0.0
        return max(vals) - min(vals)


# ---------------------------------------------------------------------------
# scalar root finding
# ---------------------------------------------------------------------------

def brentq(f, a: float, b: float, rtol: float = 1e-15, max_iter: int = 200) -> float:
    """Root of f in [a, b]; f(a) and f(b) must differ in sign."""
    fa, fb = f(a), f(b)
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    if (fa > 0) == (fb > 0):
        raise BracketError(f"no sign change on [{a}, {b}]: f = ({fa:.3e}, {fb:.3e})")
    c, fc = a, fa
    d = e = b - a
    for _ in range(max_iter):
        if (fb > 0) == (fc > 0):
            c, fc = a, fa
            d = e = b - a
        if abs(fc) < abs(fb):
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        tol = 2.0 * _EPS * abs(b) + rtol
        mid = 0.5 * (c - b)
        if abs(mid) <= tol or fb == 0.0:
            return b
        if abs(e) < tol or abs(fa) <= abs(fb):
            d = e = mid
        else:
            s = fb / fa
            if a == c:
                p = 2.0 * mid * s
                q = 1.0 - s
            else:
                q = fa / fc
                r = fb / fc
                p = s * (2.0 * mid * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0:
                q = -q
            else:
                p = -p
            s2 = e
            e = d
            if 2.0 * p < 3.0 * mid * q - abs(tol * q) and p < abs(0.5 * s2 * q):
                d = p / q
            else:
                d = e = mid
        a, fa = b, fb
        b += d if abs(d) > tol else (tol if mid > 0 else -tol)
        fb = f(b)
    return b


# ---------------------------------------------------------------------------
# box-constrained maximization
# ---------------------------------------------------------------------------

@dataclass
class BoxProblem:
    """Maximize ``objective`` over the box [lower, upper].

    ``objective`` must return a finite float everywhere in the box; callers
    encode infeasible regions as strongly negative values so the search backs
    away from them.  ``gradient`` is optional; central finite differences with
    step 1e-7*(1+|x|) are used when it is absent.  ``multistart_seeds`` adds
    one jittered restart per seed (5% of the box width), making runs
    reproducible by construction.
    """

    lower: tuple[float, ...]
    upper: tuple[float, ...]
    objective: object
    gradient: object = None
    tol: float = 1e-8
    max_iter: int = 300
    multistart_seeds: tuple[int, ...] = ()

    def __post_init__(self):
        self.lower = tuple(float(v) for v in self.lower)
        self.upper = tuple(float(v) for v in self.upper)
        if len(self.lower) != len(self.upper):
            raise ValueError("lower and upper must have the same length")
        if any(lo > hi for lo, hi in zip(self.lower, self.upper)):
            raise ValueError("lower bound exceeds upper bound")
        if self.tol <= 0:
            raise ValueError("tol must be positive")

    @property
    def dim(self) -> int:
        return len(self.lower)


def _fd_gradient(f, x, lo, hi, fx, nfev):
    g = np.zeros(len(x))
    for i in range(len(x)):
        h = 1e-7 * (1.0 + abs(x[i]))
        hp = min(h, hi[i] - x[i])
        hm = min(h, x[i] - lo[i])
        xp = x.copy()
        xm = x.copy()
        if hp > 0 and hm > 0:
            xp[i] += hp
            xm[i] -= hm
            g[i] = (f(xp) - f(xm)) / (hp + hm)
            nfev[0] += 2
        elif hp > 0:
            xp[i] += hp
            g[i] = (f(xp) - fx) / hp
            nfev[0] += 1
        else:
            xm[i] -= hm
            g[i] = (fx - f(xm)) / hm
            nfev[0] += 1
    return g


def _lbfgs_descend(f, grad, x0, lo, hi, tol, max_iter, nfev, memory=10):
    """Projected L-BFGS minimization with Armijo backtracking."""
    x = np.clip(np.asarray(x0, dtype=float), lo, hi)
    fx = f(x)
    nfev[0] += 1
    g = grad(x, fx)
    S: list[np.ndarray] = []
    Y: list[np.ndarray] = []
    it = 0
    converged = False
    for it in range(1, max_iter + 1):
        pg = x - np.clip(x - g, lo, hi)
        if np.max(np.abs(pg)) <= tol:
            converged = True
            break
        q = g.copy()
        alphas = []
        for s, y in reversed(list(zip(S, Y))):
            a = (s @ q) / (y @ s)
            alphas.append(a)
            q -= a * y
        if S:
            q *= (S[-1] @ Y[-1]) / (Y[-1] @ Y[-1])
        for (s, y), a in zip(zip(S, Y), reversed(alphas)):
            q += (a - (y @ q) / (y @ s)) * s
        d = -q
        steepest = d @ g >= 0.0
        if steepest:
            d = -g

        def _search(direction):
            t = 1.0
            for _ in range(60):
                xn = np.clip(x + t * direction, lo, hi)
                step = xn - x
                gstep = g @ step
                if gstep < 0.0:
                    fn = f(xn)
                    nfev[0] += 1
                    if fn <= fx + 1e-4 * gstep:
                        return xn, fn
                t *= 0.5
            return None

        hit = _search(d)
        if hit is None and not steepest:
            hit = _search(-g)
        if hit is None:
            break
        xn, fn = hit
        gn = grad(xn, fn)
        s = xn - x
        y = gn - g
        if s @ y > 1e-12 * np.linalg.norm(s) * np.linalg.norm(y):
            S.append(s)
            Y.append(y)
            if len(S) > memory:
                S.pop(0)
                Y.pop(0)
        x, fx, g = xn, fn, gn
    pg = x - np.clip(x - g, lo, hi)
    return x, fx, float(np.max(np.abs(pg))), it, converged


def _quadratic_polish(f, x0, fx0, lo, hi, nfev, iters=6):
    """Refine a maximizer by repeatedly fitting a local quadratic model.

    Near the optimum the line search cannot resolve value changes below the
    floating-point noise floor; fitting a full quadratic on a symmetric
    stencil and jumping to its stationary point localizes the maximum well
    past that limit.  Only strictly improving jumps are accepted.
    """
    x = np.asarray(x0, dtype=float)
    fx = fx0
    d = len(x)
    span = np.asarray(hi) - np.asarray(lo)
    rho = np.maximum(1e-3 * span, 1e-12)
    for _ in range(iters):
        pts = [x.copy()]
        for i in range(d):
            for sgn in (1.0, -1.0):
                p = x.copy()
                p[i] = min(max(p[i] + sgn * rho[i], lo[i]), hi[i])
                pts.append(p)
        for i in range(d):
            for j in range(i + 1, d):
                p = x.copy()
                p[i] = min(p[i] + rho[i], hi[i])
                p[j] = min(p[j] + rho[j], hi[j])
                pts.append(p)
        P = np.array(pts)
        vals = np.array([f(p) for p in P])
        nfev[0] += len(P) - 1
        dx = P - x
        cols = [np.ones(len(P))]
        cols += [dx[:, i] for i in range(d)]
        cols += [0.5 * dx[:, i] ** 2 for i in range(d)]
        cols += [dx[:, i] * dx[:, j] for i in range(d) for j in range(i + 1, d)]
        M = np.stack(cols, axis=1)
        coef, *_ = np.linalg.lstsq(M, vals, rcond=None)
        gq = coef[1 : 1 + d]
        H = np.zeros((d, d))
        idx = 1 + d
        for i in range(d):
            H[i, i] = coef[idx]
            idx += 1
        for i in range(d):
            for j in range(i + 1, d):
                H[i, j] = H[j, i] = coef[idx]
                idx += 1
        try:
            step = np.linalg.solve(H, -gq)
        except np.linalg.LinAlgError:
            break
        step = np.clip(step, -2.0 * rho, 2.0 * rho)
        xn = np.clip(x + step, lo, hi)
        fn = f(xn)
        nfev[0] += 1
        if fn > fx:
            x, fx = xn, fn
        rho = np.maximum(rho * 0.2, 1e-10 * span)
    return x, fx


def maximize_box(problem: BoxProblem, start) -> tuple[np.ndarray, float, Diagnostics]:
    """Maximize within the box from ``start`` plus any jittered restarts."""
    lo = np.asarray(problem.lower)
    hi = np.asarray(problem.upper)
    x0 = np.clip(np.asarray(start, dtype=float), lo, hi)
    if len(x0) != problem.dim:
        raise ValueError("start has wrong dimension")
    f_max = problem.objective
    f_min = lambda v: -f_max(v)
    nfev = [0]

    if problem.gradient is None:
        grad = lambda v, fv: _fd_gradient(f_min, v, lo, hi, fv, nfev)
    else:
        g_max = problem.gradient
        grad = lambda v, fv: -np.asarray(g_max(v), dtype=float)

    starts = [x0]
    for seed in problem.multistart_seeds:
        rng = np.random.default_rng(seed)
        jitter = 0.05 * (hi - lo) * rng.uniform(-1.0, 1.0, problem.dim)
        starts.append(np.clip(x0 + jitter, lo, hi))

    best = None
    per_start = []
    total_it = 0
    any_converged = False
    for s in starts:
        x, fmin, pg, it, conv = _lbfgs_descend(
            f_min, grad, s, lo, hi, problem.tol, problem.max_iter, nfev
        )
        x, fmax_val = _quadratic_polish(f_max, x, -fmin, lo, hi, nfev)
        total_it += it
        any_converged = any_converged or conv
        per_start.append(fmax_val)
        if best is None or fmax_val > best[1]:
            best = (x, fmax_val, pg)
    x, value, pg = best
    diag = Diagnostics(
        converged=any_converged,
        iterations=total_it,
        nfev=nfev[0],
        grad_norm=pg,
        start_values=tuple(per_start),
        message="" if any_converged else "projected gradient above tol; best iterate returned",
    )
    if diag.multistart_spread > 1e-10:
        diag.message = (
            f"multistart values disagree by {diag.multistart_spread:.3e}"
            + (f"; {diag.message}" if diag.message else "")
        )
    return x, value, diag


# ---------------------------------------------------------------------------
# the full symmetric-polygon nonlinear program
# ---------------------------------------------------------------------------

@dataclass
class NlpProblem:
    """Area maximization over the n/2 turning angles with two equalities."""

    n: int
    ctol: float = 1e-10
    ktol: float = 1e-8

    def __post_init__(self):
        if self.n % 2 != 0 or not 6 <= self.n <= 512:
            raise ValueError(f"n must be even with 6 <= n <= 512, got {self.n}")

    @property
    def dim(self) -> int:
        return self.n // 2

    @property
    def lower(self) -> np.ndarray:
        return np.zeros(self.dim)

    @property
    def upper(self) -> np.ndarray:
        ub = np.full(self.dim, math.pi / 3)
        ub[0] = math.pi / 6
        return ub


def _steps(theta):
    s = np.cumsum(theta)
    sign = np.where(np.arange(len(theta)) % 2 == 0, 1.0, -1.0)
    return sign * np.sin(s), sign * np.cos(s)


def nlp_objective(theta) -> float:
    """Polygon area in terms of the turning angles (the dissection sum)."""
    theta = np.asarray(theta, dtype=float)
    m = len(theta)
    p, q = _steps(theta)
    x = np.concatenate(([0.0], np.cumsum(p)))
    y = np.concatenate(([0.0], np.cumsum(q)))
    k = np.arange(2, m)
    return math.sin(theta[0]) + float(np.sum(x[k + 1] * y[k - 1] - y[k + 1] * x[k - 1]))


def objective_gradient(a) -> np.ndarray:
    """Exact gradient of the area objective.

    Works through the chain coordinates with suffix-sum adjoints, so the cost
    is linear in the number of angles.  Accepts an AngleVector or a raw
    sequence of angles.
    """
    theta = np.asarray(a.theta if isinstance(a, AngleVector) else a, dtype=float)
    m = len(theta)
    p, q = _steps(theta)
    x = np.concatenate(([0.0], np.cumsum(p)))
    y = np.concatenate(([0.0], np.cumsum(q)))
    # d(area)/d(vertex k): each triangle term touches vertices k-1 and k+1
    ax = np.zeros(m + 1)
    ay = np.zeros(m + 1)
    ax[3 : m + 1] += y[1 : m - 1]
    ax[1 : m - 1] -= y[3 : m + 1]
    ay[1 : m - 1] += x[3 : m + 1]
    ay[3 : m + 1] -= x[1 : m - 1]
    # vertex k collects steps 0..k-1, so step j inherits adjoints of k > j
    suf_x = np.cumsum(ax[::-1])[::-1][1:]
    suf_y = np.cumsum(ay[::-1])[::-1][1:]
    per_step = q * suf_x - p * suf_y
    grad = np.cumsum(per_step[::-1])[::-1]
    grad[0] += math.cos(theta[0])
    return grad


def constraint_values(theta, n: int) -> np.ndarray:
    """(angle sum - pi/2, chain midpoint x - required half)."""
    theta = np.asarray(theta, dtype=float)
    m = len(theta)
    p, _ = _steps(theta)
    return np.array([float(theta.sum()) - math.pi / 2, float(p[: m - 1].sum()) - half_sign(n)])


def constraint_jacobian(theta, n: int) -> np.ndarray:
    theta = np.asarray(theta, dtype=float)
    m = len(theta)
    _, q = _steps(theta)
    row2 = np.concatenate((np.cumsum(q[: m - 1][::-1])[::-1], [0.0]))
    return np.vstack([np.ones(m), row2])


def lagrangian_hessian(theta, lam) -> np.ndarray:
    """Exact Hessian of ``-area + lam @ constraint_values`` in the angles.

    With partial sums S = cumsum(theta) and signs s_j = (-1)^j the area is
    sin S_0 + sum_ab w_ab s_a s_b sin(S_a - S_b), w_ab = max(0, m - max(a,
    b + 2, 2)), and the closure constraint is sum_{j < m-1} s_j sin S_j.  Both
    Hessians are formed in S and mapped to theta by suffix sums over rows and
    columns, since S = L theta with L lower-triangular ones.
    """
    theta = np.asarray(theta, dtype=float)
    m = len(theta)
    s = np.cumsum(theta)
    idx = np.arange(m)
    sign = np.where(idx % 2 == 0, 1.0, -1.0)
    w = np.maximum(0, m - np.maximum(np.maximum.outer(idx, idx + 2), 2)) * np.outer(sign, sign)
    pair = (w - w.T) * np.sin(s[:, None] - s[None, :])
    hess = np.diag(pair.sum(axis=1)) - pair
    hess[0, 0] += math.sin(s[0])
    hess[idx[:-1], idx[:-1]] -= lam[1] * sign[:-1] * np.sin(s[:-1])
    return np.cumsum(np.cumsum(hess[::-1, ::-1], axis=0), axis=1)[::-1, ::-1]


def _kkt_residual(n, theta, lam) -> np.ndarray:
    gl = -objective_gradient(theta) + constraint_jacobian(theta, n).T @ lam
    return np.concatenate((gl, constraint_values(theta, n)))


def _solve_nlp_single(n, theta0, lo, hi, max_steps):
    """Newton steps on the KKT system of one start, kept inside the box.

    Each step solves the KKT system with the exact Hessian of the Lagrangian
    -area + lam @ c.  Where that Hessian has a negative eigenvalue on the null
    space of the constraint Jacobian, twice its magnitude is added to the
    diagonal, so a far start heads for a maximum of the area, not a saddle;
    near the optimum no shift is needed and the steps are Newton's.
    A step, or a halving of it, is accepted if it keeps the angles in the box
    and lowers the max-norm KKT residual.  The loop stops below 1e-13, after
    ``max_steps`` steps, or when no halving is accepted.
    """
    m = n // 2
    theta = np.clip(np.asarray(theta0, dtype=float), lo, hi)
    lam, *_ = np.linalg.lstsq(
        constraint_jacobian(theta, n).T, objective_gradient(theta), rcond=None
    )
    r = _kkt_residual(n, theta, lam)
    res = float(np.max(np.abs(r)))
    nfev = 1
    steps = 0
    while steps < max_steps and res >= 1e-13:
        J = constraint_jacobian(theta, n)
        H = lagrangian_hessian(theta, lam)
        Z = np.linalg.qr(J.T, mode="complete")[0][:, 2:]
        shift = max(0.0, -2.0 * np.linalg.eigvalsh(Z.T @ H @ Z)[0])
        K = np.block([[H + shift * np.eye(m), J.T], [J, np.zeros((2, 2))]])
        try:
            d = np.linalg.solve(K, -r)
        except np.linalg.LinAlgError:
            break
        for t in 0.5 ** np.arange(30):
            tn = theta + t * d[:m]
            if np.all(tn >= lo) and np.all(tn <= hi):
                rn = _kkt_residual(n, tn, lam + t * d[m:])
                nfev += 1
                if float(np.max(np.abs(rn))) < res:
                    break
        else:
            break
        theta, lam, r = tn, lam + t * d[m:], rn
        res = float(np.max(np.abs(r)))
        steps += 1
    cmax = float(np.max(np.abs(r[m:])))
    kkt = float(np.max(np.abs(theta - np.clip(theta - r[:m], lo, hi))))
    return theta, nlp_objective(theta), cmax, kkt, lam, steps, nfev


def solve_full_nlp(
    n: int,
    start=None,
    *,
    ctol: float = 1e-10,
    ktol: float = 1e-8,
    max_outer: int = 200,
    multistart: int = 4,
    seed: int = 0,
):
    """Best symmetric unit-diameter n-gon from the full angle program.

    Parameters
    ----------
    n : even integer in [6, 512].
    start : optional initial angles (AngleVector or sequence).  The default
        is the expanded best reduced construction for this n, whose angles
        already show the damped oscillation of the optimum.
    ctol, ktol : constraint and stationarity tolerances for success.
    max_outer : cap on the Newton steps taken from each start.
    multistart : total number of starts (the base start plus jittered copies).
    seed : seed for the jitters; identical inputs give identical results.

    Each start runs Newton on the KKT system with the exact Hessian of the
    Lagrangian; a start far from the optimum, such as the r = 0 closed form,
    converges without a warm start.  The earliest start that meets both
    tolerances with an area within ``AREA_TIE`` of the best such area wins,
    so a jittered copy never displaces the base start by rounding noise.
    The diagnostics sum Newton steps (``iterations``) and KKT-residual
    evaluations (``nfev``) over all starts.

    Returns ``(AngleVector, area, Diagnostics)``.  Raises InfeasibleError if
    no start reaches both tolerances; its diagnostics then describe the base
    start.
    """
    prob = NlpProblem(n, ctol, ktol)
    if start is None:
        from .reduced import construct_Q_theorem, expand_angles

        _, _, params = construct_Q_theorem(n, multistart=0, seed=seed, full_result=True)
        theta0 = np.array(expand_angles(params).theta)
    elif isinstance(start, AngleVector):
        theta0 = np.array(start.theta)
    else:
        theta0 = np.asarray(start, dtype=float)
    if len(theta0) != prob.dim:
        raise ValueError(f"start must have {prob.dim} angles")

    rng = np.random.default_rng(seed)
    starts = [theta0]
    for _ in range(max(0, multistart - 1)):
        jitter = 1e-3 * (math.pi / n) * rng.standard_normal(prob.dim)
        starts.append(np.clip(theta0 + jitter, prob.lower, prob.upper))

    results = [_solve_nlp_single(n, th0, prob.lower, prob.upper, max_outer) for th0 in starts]
    per_start = tuple(
        area if cmax <= ctol and kkt <= ktol else -math.inf
        for _, area, cmax, kkt, *_ in results
    )
    top = max(per_start)
    win = next(i for i, v in enumerate(per_start) if v >= top - AREA_TIE)
    theta, area, cmax, kkt, lam, _, _ = results[win]
    diag = Diagnostics(
        converged=cmax <= ctol and kkt <= ktol,
        iterations=sum(res[5] for res in results),
        nfev=sum(res[6] for res in results),
        grad_norm=kkt,
        start_values=per_start,
        constraint_residual=cmax,
        kkt_norm=kkt,
        multipliers=tuple(float(v) for v in lam),
    )
    if not diag.converged:
        diag.message = (
            f"constraint residual {cmax:.3e} (tol {ctol:.1e}), "
            f"stationarity {kkt:.3e} (tol {ktol:.1e})"
        )
        raise InfeasibleError(diag.message, diag)
    return AngleVector(n, tuple(theta)), area, diag
