"""Self-contained continuous optimizers and root finding.

Two pieces of machinery live here:

* ``brentq``: bracketed scalar root finding (bisection safeguarded by
  inverse-quadratic/secant steps).
* ``_newton``: one Newton kernel for box-constrained programs with equality
  constraints: steps on the KKT system with the exact Hessian of the
  Lagrangian (shifted on the constraints' null space where a far start needs
  it), variables held at a bound while their gradient points out of the
  box, and step halving with projection onto the box that accepts a step
  only if the KKT residual falls.  Two front ends share it:

  - ``maximize_box`` maximizes an objective with analytic gradient and
    Hessian over a box (the reduced family's free parameters, the
    scaled-limit cubics), from a start plus seeded jittered restarts;
  - ``solve_full_nlp`` solves the symmetric-polygon area program over the
    n/2 turning angles with its two equality constraints (angles sum to a
    quarter turn, the chain midpoint lands at x = +-1/2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import AngleVector, area_dissection, chain_coordinates, half_sign

_EPS = 2.220446049250313e-16
# objective values (areas) of starts closer than this are treated as equal
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
# the Newton kernel
# ---------------------------------------------------------------------------

def _held(x, lo, hi, g) -> np.ndarray:
    """Variables at a bound whose descent direction -g points out of the box."""
    return ((x <= lo) & (g > 0.0)) | ((x >= hi) & (g < 0.0))


def _newton(evaluate, x0, lo, hi, ncon: int, max_steps: int):
    """Newton steps on the KKT system of min f(x) s.t. c(x) = 0, lo <= x <= hi.

    ``evaluate(x, lam)`` returns the gradient of the Lagrangian f + lam @ c,
    the ``ncon`` constraint values c, their Jacobian and the Hessian of the
    Lagrangian, or None where f is undefined.  The multipliers start at their
    least-squares values.  A variable at a bound whose gradient points out of
    the box is held there for the step; the others take the step from the
    KKT system with the exact Hessian.  Where that Hessian has a negative
    eigenvalue on the null space of the constraint Jacobian, twice its
    magnitude is added to the diagonal, so a far start heads for a minimum of
    f, not a saddle; an eigenvalue within rounding of zero is lifted to the
    rounding level, so a flat direction (a linear f) still gets a step, which
    the projection cuts at the bound.  Near a nondegenerate optimum no shift
    is needed and the steps are Newton's.  A step, or a halving of it, is
    projected onto the box and accepted if f is defined there and the
    max-norm KKT residual (held variables excluded) falls.  The loop stops
    below 1e-13, after ``max_steps`` steps, or when no halving is accepted.

    Returns ``(x, lam, gradient residual, constraint residual, steps,
    evaluations)``; the residuals are infinite if f is undefined at the start.
    """
    x = np.clip(np.asarray(x0, dtype=float), lo, hi)
    lam = np.zeros(ncon)
    ev = evaluate(x, lam)
    nfev = 1
    if ev is None:
        return x, lam, math.inf, math.inf, 0, nfev
    if ncon:
        lam = np.linalg.lstsq(ev[2].T, -ev[0], rcond=None)[0]
        ev = evaluate(x, lam)
        nfev += 1

    def residuals(x, ev):
        g, c = ev[0], ev[1]
        return (
            float(np.max(np.abs(np.where(_held(x, lo, hi, g), 0.0, g)), initial=0.0)),
            float(np.max(np.abs(c), initial=0.0)),
        )

    gres, cres = residuals(x, ev)
    steps = 0
    while steps < max_steps and max(gres, cres) >= 1e-13:
        g, c, J, H = ev
        free = ~_held(x, lo, hi, g)
        k = int(free.sum())
        Hf = H[np.ix_(free, free)]
        Jf = J[:, free]
        Z = np.linalg.qr(Jf.T, mode="complete")[0][:, ncon:]
        low = min(np.linalg.eigvalsh(Z.T @ Hf @ Z), default=math.inf)
        floor = _EPS * max(1.0, float(np.max(np.abs(Hf), initial=0.0)))
        shift = -2.0 * low if low < -floor else max(0.0, floor - low)
        K = np.block([[Hf + shift * np.eye(k), Jf.T], [Jf, np.zeros((ncon, ncon))]])
        try:
            d = np.linalg.solve(K, -np.concatenate((g[free], c)))
        except np.linalg.LinAlgError:
            break
        dx = np.zeros(len(x))
        dx[free] = d[:k]
        for t in 0.5 ** np.arange(30):
            xn = np.clip(x + t * dx, lo, hi)
            lamn = lam + t * d[k:]
            evn = evaluate(xn, lamn)
            nfev += 1
            if evn is not None:
                rn = residuals(xn, evn)
                if max(rn) < max(gres, cres):
                    break
        else:
            break
        x, lam, ev, (gres, cres) = xn, lamn, evn, rn
        steps += 1
    return x, lam, gres, cres, steps, nfev


# ---------------------------------------------------------------------------
# box-constrained maximization
# ---------------------------------------------------------------------------

@dataclass
class BoxProblem:
    """Maximize ``objective`` over the box [lower, upper].

    ``objective`` must return a finite float everywhere in the box; callers
    encode infeasible regions as strongly negative values.
    ``derivatives(x)`` returns the gradient and the Hessian of ``objective``
    at x, or None where the objective is such a penalty; the Newton kernel
    never accepts a step to those points.  ``tol`` bounds the gradient, over
    the variables not held at a bound, at which a start counts as converged;
    ``max_iter`` caps the Newton steps per start.  ``multistart_seeds`` adds
    one jittered restart per seed (5% of the box width), making runs
    reproducible by construction.
    """

    lower: tuple[float, ...]
    upper: tuple[float, ...]
    objective: object
    derivatives: object
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
        if not callable(self.derivatives):
            raise TypeError("derivatives must be a callable returning (gradient, Hessian)")

    @property
    def dim(self) -> int:
        return len(self.lower)


def maximize_box(problem: BoxProblem, start) -> tuple[np.ndarray, float, Diagnostics]:
    """Maximize within the box from ``start`` plus any jittered restarts.

    Each start runs the Newton kernel on -objective.  The earliest start whose
    value is within ``AREA_TIE`` of the best wins, and the diagnostics report
    its ``converged`` flag and gradient; steps and evaluations (derivatives
    plus the one objective value per start) are summed over all starts.
    """
    lo = np.asarray(problem.lower)
    hi = np.asarray(problem.upper)
    x0 = np.clip(np.asarray(start, dtype=float), lo, hi)
    if len(x0) != problem.dim:
        raise ValueError("start has wrong dimension")
    empty = (np.zeros(0), np.zeros((0, problem.dim)))

    def evaluate(x, lam):
        derivs = problem.derivatives(x)
        if derivs is None:
            return None
        g, H = derivs
        return -np.asarray(g, dtype=float), *empty, -np.asarray(H, dtype=float)

    starts = [x0]
    for seed in problem.multistart_seeds:
        rng = np.random.default_rng(seed)
        jitter = 0.05 * (hi - lo) * rng.uniform(-1.0, 1.0, problem.dim)
        starts.append(np.clip(x0 + jitter, lo, hi))

    results = [_newton(evaluate, s, lo, hi, 0, problem.max_iter) for s in starts]
    values = tuple(float(problem.objective(res[0])) for res in results)
    top = max(values)
    win = next(i for i, v in enumerate(values) if v >= top - AREA_TIE)
    x, _, gres, _, _, _ = results[win]
    converged = gres <= problem.tol
    diag = Diagnostics(
        converged=converged,
        iterations=sum(res[4] for res in results),
        nfev=sum(res[5] for res in results) + len(starts),
        grad_norm=gres,
        start_values=values,
        message="" if converged else "gradient above tol; best iterate returned",
    )
    if diag.multistart_spread > 1e-10:
        diag.message = (
            f"multistart values disagree by {diag.multistart_spread:.3e}"
            + (f"; {diag.message}" if diag.message else "")
        )
    return x, values[win], diag


# ---------------------------------------------------------------------------
# the full symmetric-polygon nonlinear program
# ---------------------------------------------------------------------------

def nlp_objective(theta) -> float:
    """Polygon area in terms of the turning angles (the dissection sum)."""
    return area_dissection(theta)


def _area_gradient_s(x, y) -> np.ndarray:
    """Gradient of the dissection area in the partial sums S = cumsum(theta).

    Takes the chain vertices 0..m.  Step j, (p_j, q_j) = vertex j+1 - vertex
    j, depends on S_j alone and has derivative (q_j, -p_j) in it; each
    triangle term touches vertices k-1 and k+1, and vertex k collects steps
    0..k-1, so step j inherits the adjoints of the vertices after it.
    """
    m = len(x) - 1
    p, q = np.diff(x), np.diff(y)
    ax = np.zeros(m + 1)
    ay = np.zeros(m + 1)
    ax[3 : m + 1] += y[1 : m - 1]
    ax[1 : m - 1] -= y[3 : m + 1]
    ay[1 : m - 1] += x[3 : m + 1]
    ay[3 : m + 1] -= x[1 : m - 1]
    grad = q * np.cumsum(ax[::-1])[::-1][1:] - p * np.cumsum(ay[::-1])[::-1][1:]
    grad[0] += q[0]  # the apex triangle sin S_0
    return grad


def objective_gradient(a) -> np.ndarray:
    """Exact gradient of the area objective.

    The gradient in the partial sums, mapped to the angles by a suffix sum
    (theta_i enters S_j for every j >= i), so the cost is linear in the
    number of angles.  Accepts an AngleVector or a raw sequence of angles.
    """
    theta = a.theta if isinstance(a, AngleVector) else a
    return np.cumsum(_area_gradient_s(*chain_coordinates(theta))[::-1])[::-1]


def constraint_values(theta, n: int) -> np.ndarray:
    """(angle sum - pi/2, chain midpoint x - required half)."""
    theta = np.asarray(theta, dtype=float)
    x, _ = chain_coordinates(theta)
    return np.array([float(theta.sum()) - math.pi / 2, float(x[len(theta) - 1]) - half_sign(n)])


def constraint_jacobian(theta, n: int) -> np.ndarray:
    """Jacobian of ``constraint_values`` in the angles.

    The midpoint x_{m-1} = p_0 + ... + p_{m-2} has derivative q_j in S_j, so
    its derivative in theta_j is q_j + ... + q_{m-2} = y_{m-1} - y_j.
    """
    m = len(theta)
    _, y = chain_coordinates(theta)
    return np.vstack([np.ones(m), y[m - 1] - y[:m]])


def _area_hessian_s(theta) -> np.ndarray:
    """Hessian of the dissection area in the partial sums S = cumsum(theta).

    With steps (p_j, q_j) = s_j (sin S_j, cos S_j), s_j = (-1)^j, the area is
    sin S_0 + sum_ab w_ab s_a s_b sin(S_a - S_b), where w_ab = max(0, m -
    max(a, b + 2, 2)) counts the triangles whose cross product pairs step a
    with step b.
    """
    theta = np.asarray(theta, dtype=float)
    m = len(theta)
    s = np.cumsum(theta)
    idx = np.arange(m)
    sign = np.where(idx % 2 == 0, 1.0, -1.0)
    w = np.maximum(0, m - np.maximum(np.maximum.outer(idx, idx + 2), 2)) * np.outer(sign, sign)
    pair = (w - w.T) * np.sin(s[:, None] - s[None, :])
    hess = pair - np.diag(pair.sum(axis=1))
    hess[0, 0] -= math.sin(s[0])
    return hess


def lagrangian_hessian(theta, lam) -> np.ndarray:
    """Exact Hessian of ``-area + lam @ constraint_values`` in the angles.

    Formed in the partial sums S = cumsum(theta): the area's Hessian there is
    the dense ``_area_hessian_s``, the angle sum is linear, and the midpoint
    x_{m-1} = p_0 + ... + p_{m-2} has the diagonal Hessian -p_j.  Since
    S = L theta with L lower-triangular ones, the map to theta is a suffix
    sum over rows and columns.
    """
    theta = np.asarray(theta, dtype=float)
    x, _ = chain_coordinates(theta)
    hess = -_area_hessian_s(theta)
    idx = np.arange(len(theta) - 1)
    hess[idx, idx] -= lam[1] * np.diff(x)[:-1]
    return np.cumsum(np.cumsum(hess[::-1, ::-1], axis=0), axis=1)[::-1, ::-1]


def _nlp_evaluate(n):
    """The full program's KKT callback for the Newton kernel (f = -area)."""

    def evaluate(theta, lam):
        J = constraint_jacobian(theta, n)
        return (
            -objective_gradient(theta) + J.T @ lam,
            constraint_values(theta, n),
            J,
            lagrangian_hessian(theta, lam),
        )

    return evaluate


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
    if n % 2 != 0 or not 6 <= n <= 512:
        raise ValueError(f"n must be even with 6 <= n <= 512, got {n}")
    m = n // 2
    lower = np.zeros(m)
    upper = np.full(m, math.pi / 3)
    upper[0] = math.pi / 6
    if start is None:
        from .reduced import construct_Q_theorem, expand_angles

        _, _, params = construct_Q_theorem(n, multistart=0, seed=seed)
        theta0 = np.array(expand_angles(params).theta)
    elif isinstance(start, AngleVector):
        theta0 = np.array(start.theta)
    else:
        theta0 = np.asarray(start, dtype=float)
    if len(theta0) != m:
        raise ValueError(f"start must have {m} angles")

    rng = np.random.default_rng(seed)
    starts = [theta0]
    for _ in range(max(0, multistart - 1)):
        jitter = 1e-3 * (math.pi / n) * rng.standard_normal(m)
        starts.append(np.clip(theta0 + jitter, lower, upper))

    evaluate = _nlp_evaluate(n)
    results = [_newton(evaluate, th0, lower, upper, 2, max_outer) for th0 in starts]
    per_start = tuple(
        nlp_objective(theta) if cmax <= ctol and kkt <= ktol else -math.inf
        for theta, _, kkt, cmax, _, _ in results
    )
    top = max(per_start)
    win = next(i for i, v in enumerate(per_start) if v >= top - AREA_TIE)
    theta, lam, kkt, cmax, _, _ = results[win]
    area = per_start[win]
    diag = Diagnostics(
        converged=cmax <= ctol and kkt <= ktol,
        iterations=sum(res[4] for res in results),
        nfev=sum(res[5] for res in results),
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
