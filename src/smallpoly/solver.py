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
    scaled-limit cubics) with one Newton solve from one start;
  - ``solve_full_nlp`` solves the symmetric-polygon area program over the
    n/2 turning angles with its two equality constraints (angles sum to a
    quarter turn, the chain midpoint lands at x = +-1/2), from one start.

A solve stops for one of five reasons, which both front ends report as
``Diagnostics.stop_reason``: the KKT residual fell below 1e-13
(``STOP_CONVERGED``), ``MAX_STEPS`` Newton steps were taken
(``STOP_MAX_STEPS``), no halving of a step lowered the residual
(``STOP_NO_DESCENT``), the KKT matrix was singular (``STOP_SINGULAR``), or
the objective was undefined at the start (``STOP_UNDEFINED``).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .geometry import AngleVector, area_dissection, chain_coordinates, half_sign

_EPS = 2.220446049250313e-16
# a box maximizer solve is reported converged when the gradient over its
# free variables is at most this
GRAD_TOL = 1e-8
# cap on the Newton steps of one solve, read by ``_newton`` at call time
MAX_STEPS = 300
# ``brentq``'s absolute tolerance on the root and its cap on steps
_ROOT_TOL = 1e-15
_ROOT_MAX_ITER = 200
# why a Newton solve stopped (``Diagnostics.stop_reason``)
STOP_CONVERGED = "residual below 1e-13"
STOP_MAX_STEPS = "MAX_STEPS reached"
STOP_NO_DESCENT = "no halving accepted"
STOP_SINGULAR = "singular KKT matrix"
STOP_UNDEFINED = "undefined at the start"
# the step lengths a Newton step tries, longest first
_HALVINGS = tuple(0.5**i for i in range(30))


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
    constraint_residual: float | None = None
    kkt_norm: float | None = None
    multipliers: tuple[float, ...] | None = None
    stop_reason: str = ""


# ---------------------------------------------------------------------------
# scalar root finding
# ---------------------------------------------------------------------------

def brentq(f, a: float, b: float) -> float:
    """Root of f in [a, b]; f(a) and f(b) must differ in sign.

    Stops when half the bracket is at most 2 eps |b| + ``_ROOT_TOL``, or
    after ``_ROOT_MAX_ITER`` steps.
    """
    fa, fb = f(a), f(b)
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    if (fa > 0) == (fb > 0):
        raise BracketError(f"no sign change on [{a}, {b}]: f = ({fa:.3e}, {fb:.3e})")
    c, fc = a, fa
    d = e = b - a
    for _ in range(_ROOT_MAX_ITER):
        if (fb > 0) == (fc > 0):
            c, fc = a, fa
            d = e = b - a
        if abs(fc) < abs(fb):
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        tol = 2.0 * _EPS * abs(b) + _ROOT_TOL
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


def _newton(evaluate, x0, lo, hi, ncon: int):
    """Newton steps on the KKT system of min f(x) s.t. c(x) = 0, lo <= x <= hi.

    ``evaluate(x, lam)`` returns the gradient of the Lagrangian f + lam @ c,
    the ``ncon`` constraint values c, their Jacobian and a zero-argument
    callable that returns the Hessian of the Lagrangian, or None where f is
    undefined.  The Hessian is asked for only at a point the solve steps
    from, so a trial point that is rejected, and the point the solve ends
    on, never build one.  The multipliers start at their least-squares
    values.  A variable at a bound whose gradient points out of the box is
    held there for the step; the others take the step from the KKT system
    with the exact Hessian.  Where that Hessian has a negative eigenvalue on
    the null space of the constraint Jacobian, twice its magnitude is added
    to the diagonal, so a far start heads for a minimum of f, not a saddle;
    an eigenvalue within rounding of zero is lifted to the rounding level, so
    a flat direction (a linear f) still gets a step, which the projection
    cuts at the bound.  The null-space basis comes from a complete QR of the
    free Jacobian's transpose; without constraints the null space is the
    whole space and the Hessian is used as it is, with no QR.  Near a
    nondegenerate optimum no shift is needed and the steps are Newton's.  A
    step, or a halving of it, is projected onto the box and accepted if f is
    defined there and the max-norm KKT residual (held variables excluded)
    falls.  The loop ends for one of the five reasons in the module
    docstring; the step cap is the module's ``MAX_STEPS``, read when the
    cap is checked.

    Returns ``(x, lam, gradient residual, constraint residual, steps,
    evaluations, stop reason)``, the reason being one of the ``STOP_*``
    constants; the residuals are infinite if f is undefined at the start.
    """
    x = np.clip(np.asarray(x0, dtype=float), lo, hi)
    lam = np.zeros(ncon)
    ev = evaluate(x, lam)
    nfev = 1
    if ev is None:
        return x, lam, math.inf, math.inf, 0, nfev, STOP_UNDEFINED
    if ncon:
        lam = np.linalg.lstsq(ev[2].T, -ev[0], rcond=None)[0]
        ev = evaluate(x, lam)
        nfev += 1

    def residuals(x, ev):
        """The held variables at x and the two max-norm residuals there."""
        g, c = ev[0], ev[1]
        held = _held(x, lo, hi, g)
        return held, (
            float(np.max(np.abs(np.where(held, 0.0, g)), initial=0.0)),
            float(np.max(np.abs(c), initial=0.0)) if ncon else 0.0,
        )

    held, (gres, cres) = residuals(x, ev)
    steps = 0
    reason = STOP_CONVERGED
    while max(gres, cres) >= 1e-13:
        if steps == MAX_STEPS:
            reason = STOP_MAX_STEPS
            break
        g, c, J, hessian = ev
        # without held variables the free block is the whole system
        free = ~held if held.any() else None
        Hf, Jf, gf = hessian(), J, g
        if free is not None:
            Hf, Jf, gf = Hf[np.ix_(free, free)], J[:, free], g[free]
        k = len(gf)
        Hz = Hf
        if ncon:
            Z = np.linalg.qr(Jf.T, mode="complete")[0][:, ncon:]
            Hz = Z.T @ Hf @ Z
        low = min(np.linalg.eigvalsh(Hz), default=math.inf)
        floor = _EPS * max(1.0, float(np.max(np.abs(Hf), initial=0.0)))
        shift = -2.0 * low if low < -floor else max(0.0, floor - low)
        # the KKT matrix; without constraints it is the shifted Hessian alone
        K, rhs = Hf + shift * np.eye(k), -gf
        if ncon:
            Hs, K = K, np.zeros((k + ncon, k + ncon))
            K[:k, :k] = Hs
            K[:k, k:] = Jf.T
            K[k:, :k] = Jf
            rhs = -np.concatenate((gf, c))
        try:
            d = np.linalg.solve(K, rhs)
        except np.linalg.LinAlgError:
            reason = STOP_SINGULAR
            break
        dx = d[:k]
        if free is not None:
            dx = np.zeros(len(x))
            dx[free] = d[:k]
        for t in _HALVINGS:
            xn = np.clip(x + t * dx, lo, hi)
            lamn = lam + t * d[k:]
            evn = evaluate(xn, lamn)
            nfev += 1
            if evn is not None:
                heldn, rn = residuals(xn, evn)
                if max(rn) < max(gres, cres):
                    break
        else:
            reason = STOP_NO_DESCENT
            break
        x, lam, ev, held, (gres, cres) = xn, lamn, evn, heldn, rn
        steps += 1
    return x, lam, gres, cres, steps, nfev, reason


# ---------------------------------------------------------------------------
# box-constrained maximization
# ---------------------------------------------------------------------------

@dataclass
class BoxProblem:
    """Maximize ``objective`` over the box [lower, upper].

    ``objective`` must return a finite float everywhere in the box; callers
    encode infeasible regions as strongly negative values.
    ``derivatives(x)`` returns ``(gradient, hessian)``: the gradient of
    ``objective`` at x and a zero-argument callable that returns its Hessian
    there, or None where the objective is such a penalty; the Newton kernel
    calls ``hessian`` only at the points it steps from and never accepts a
    step to a penalty point.
    """

    lower: tuple[float, ...]
    upper: tuple[float, ...]
    objective: object
    derivatives: object

    def __post_init__(self):
        self.lower = tuple(float(v) for v in self.lower)
        self.upper = tuple(float(v) for v in self.upper)
        if len(self.lower) != len(self.upper):
            raise ValueError("lower and upper must have the same length")
        if any(lo > hi for lo, hi in zip(self.lower, self.upper)):
            raise ValueError("lower bound exceeds upper bound")
        if not callable(self.derivatives):
            raise TypeError(
                "derivatives must be a callable returning (gradient, Hessian callable)"
            )

    @property
    def dim(self) -> int:
        return len(self.lower)


def maximize_box(problem: BoxProblem, start) -> tuple[np.ndarray, float, Diagnostics]:
    """Maximize within the box by one Newton solve on -objective from ``start``.

    The diagnostics report the solve's steps (``iterations``, each one
    Hessian), its evaluations (``nfev``: the ``derivatives`` calls plus the
    one ``objective`` call at the result), its gradient, whether that is at
    most ``GRAD_TOL`` (``converged``) and why the solve stopped
    (``stop_reason``).
    """
    lo = np.asarray(problem.lower)
    hi = np.asarray(problem.upper)
    x0 = np.asarray(start, dtype=float)
    if len(x0) != problem.dim:
        raise ValueError("start has wrong dimension")
    empty = (np.zeros(0), np.zeros((0, problem.dim)))

    def evaluate(x, lam):
        derivs = problem.derivatives(x)
        if derivs is None:
            return None
        g, hessian = derivs
        return (
            -np.asarray(g, dtype=float),
            *empty,
            lambda: -np.asarray(hessian(), dtype=float),
        )

    x, _, gres, _, steps, nfev, reason = _newton(evaluate, x0, lo, hi, 0)
    converged = gres <= GRAD_TOL
    diag = Diagnostics(
        converged=converged,
        iterations=steps,
        nfev=nfev + 1,
        grad_norm=gres,
        message="" if converged else (
            f"gradient above GRAD_TOL ({reason}); best iterate returned"
        ),
        stop_reason=reason,
    )
    return x, float(problem.objective(x)), diag


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


@functools.lru_cache(maxsize=32)
def _pair_weights(m: int) -> np.ndarray:
    """The signed pair counts w - w.T of ``_area_hessian_s``, read-only; fixed per m.

    32 sizes hold the reduced family's nine prefix lengths and the 20 sizes
    of a table5 sweep's full programs.
    """
    idx = np.arange(m)
    sign = np.where(idx % 2 == 0, 1.0, -1.0)
    w = np.maximum(0, m - np.maximum(np.maximum.outer(idx, idx + 2), 2)) * np.outer(sign, sign)
    weights = w - w.T
    weights.flags.writeable = False
    return weights


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
    pair = _pair_weights(m) * np.sin(s[:, None] - s[None, :])
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
            lambda: lagrangian_hessian(theta, lam),
        )

    return evaluate


def solve_full_nlp(n: int, start=None, *, ctol: float = 1e-10, ktol: float = 1e-8):
    """Best symmetric unit-diameter n-gon from the full angle program.

    Parameters
    ----------
    n : even integer in [6, 512].
    start : optional initial angles (AngleVector or sequence).  The default
        is the expanded best reduced construction for this n, whose angles
        already show the damped oscillation of the optimum.
    ctol, ktol : constraint and stationarity tolerances for success.

    One Newton solve on the KKT system with the exact Hessian of the
    Lagrangian, capped at ``MAX_STEPS`` steps; a start far from the optimum,
    such as the r = 0 closed form, converges without a warm start.  The
    diagnostics report its Newton steps (``iterations``), KKT-residual
    evaluations (``nfev``) and why it stopped (``stop_reason``).

    Returns ``(AngleVector, area, Diagnostics)``.  Raises InfeasibleError if
    the solve does not reach both tolerances.
    """
    if n % 2 != 0 or not 6 <= n <= 512:
        raise ValueError(f"n must be even with 6 <= n <= 512, got {n}")
    m = n // 2
    lower = np.zeros(m)
    upper = np.full(m, math.pi / 3)
    upper[0] = math.pi / 6
    if start is None:
        from .reduced import construct_Q_theorem, expand_angles

        _, _, params = construct_Q_theorem(n)
        theta0 = np.array(expand_angles(params).theta)
    elif isinstance(start, AngleVector):
        theta0 = np.array(start.theta)
    else:
        theta0 = np.asarray(start, dtype=float)
    if len(theta0) != m:
        raise ValueError(f"start must have {m} angles")

    theta, lam, kkt, cmax, steps, nfev, reason = _newton(_nlp_evaluate(n), theta0, lower, upper, 2)
    diag = Diagnostics(
        converged=cmax <= ctol and kkt <= ktol,
        iterations=steps,
        nfev=nfev,
        grad_norm=kkt,
        constraint_residual=cmax,
        kkt_norm=kkt,
        multipliers=tuple(float(v) for v in lam),
        stop_reason=reason,
    )
    if not diag.converged:
        diag.message = (
            f"constraint residual {cmax:.3e} (tol {ctol:.1e}), "
            f"stationarity {kkt:.3e} (tol {ktol:.1e}); stopped: {reason}"
        )
        raise InfeasibleError(diag.message, diag)
    return AngleVector(n, tuple(theta)), nlp_objective(theta), diag
