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

import math
from dataclasses import dataclass

import numpy as np

from .geometry import (
    AngleVector,
    angle_box,
    area_dissection,
    area_gradient_s,
    area_hessian_s,
    half_sign,
    require_even,
    walk_chain,
)

_EPS = 2.220446049250313e-16
# a box maximizer solve is reported converged when the gradient over its
# free variables is at most this
GRAD_TOL = 1e-8
# cap on the Newton steps of one solve, read by ``_newton`` at call time
MAX_STEPS = 300
# ``brentq``'s absolute floor on its relative stop test, and its cap on steps
_ROOT_TOL = 1e-30
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


@dataclass(slots=True)
class Diagnostics:
    converged: bool = True
    iterations: int = 0
    nfev: int = 0
    grad_norm: float = math.nan
    message: str = ""
    constraint_residual: float | None = None
    multipliers: tuple[float, ...] | None = None
    stop_reason: str = ""


# ---------------------------------------------------------------------------
# scalar root finding
# ---------------------------------------------------------------------------

def brentq(f, a: float, b: float) -> float:
    """Root of f in [a, b]; f(a) and f(b) must differ in sign.

    Stops when half the bracket is at most 2 eps |b| + ``_ROOT_TOL``, or
    after ``_ROOT_MAX_ITER`` steps.  The tolerance is relative to the root:
    the family's deficit reads its root, gamma_last, with unit weight, and
    past n = 1e5 the deficit is below 1e-15, so an absolute tolerance of
    1e-15 would leave it noise.  The floor, far below any deficit, only
    ends a solve whose root is 0; bisection reaches it from [-pi/n, pi/n]
    in under 90 halvings.
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

def _held(x, lo, hi, g) -> np.ndarray | None:
    """Variables at a bound whose descent direction -g points out of the box.

    None if there are none.  In the interior none can be, so whether any
    variable is at a bound is checked first.
    """
    low, high = x <= lo, x >= hi
    if not (np.count_nonzero(low) or np.count_nonzero(high)):
        return None
    held = (low & (g > 0.0)) | (high & (g < 0.0))
    return held if np.count_nonzero(held) else None


def _newton(evaluate, x0, lo, hi, ncon: int):
    """Newton steps on the KKT system of min f(x) s.t. c(x) = 0, lo <= x <= hi.

    ``evaluate(x)`` returns the gradient of f, the ``ncon`` constraint values
    c, their Jacobian J and a callable ``hessian(lam)`` that returns the
    Hessian of the Lagrangian f + lam @ c, or None where f is undefined, as
    it is where a gradient or constraint value is not finite.  The kernel
    forms the Lagrangian's gradient, grad f + J^T lam, itself, so a point is
    evaluated once whatever the multipliers: they start at their
    least-squares values, fit to the start's own evaluation.  The Hessian is
    asked for only at a point the solve steps from, so a trial point that is
    rejected, and the point the solve ends on, never build one.  A
    variable at a bound whose gradient points out of the box is held there
    for the step; the others take the step from the KKT system with the
    exact Hessian.  Where that Hessian has a negative eigenvalue on
    the null space of the constraint Jacobian, twice its magnitude is added
    to the diagonal, so the step descends f.  A step is still accepted
    only where the KKT residual falls, so the shift does not steer a solve
    off a saddle or a maximum of f: near one, a step away raises the
    gradient and is refused, and a start at one stops there as converged.
    An eigenvalue within rounding of zero is lifted to the rounding level,
    so a flat direction (a linear f) still gets a step, which the
    projection cuts at the bound.  The null-space basis comes from a
    complete QR of the free Jacobian's transpose.  A step, or a halving of it, is projected
    onto the box and accepted if f is defined there and the max-norm KKT
    residual (held variables excluded) falls.  Near a nondegenerate optimum
    no shift is needed and the steps are Newton's.  The loop ends for one
    of the five reasons in the module docstring; the step cap is the
    module's ``MAX_STEPS``, read when the cap is checked.

    ``lo`` and ``hi`` are float arrays, read as they are.  Without
    constraints (``ncon`` = 0, a box problem) the kernel does no constraint
    work: ``evaluate`` may return None for c and the Jacobian, which are
    never read; there are no multipliers to fit or step, the constraint
    residual is 0, the null space is the whole space (no QR), and the KKT
    matrix is the shifted Hessian alone, with no zero border.

    Returns ``(x, lam, gradient residual, constraint residual, steps,
    evaluations, stop reason)``, the reason being one of the ``STOP_*``
    constants; the residuals are infinite if f is undefined at the start.
    """
    x = np.asarray(x0, dtype=float).clip(lo, hi)
    lam = np.zeros(ncon)

    def at(x, ev, lam):
        """The Lagrangian's gradient at lam from the evaluation ``ev`` at x,
        the held variables (None if there are none) and the two max-norm
        residuals; None where f is undefined.

        The max-norms over all entries double as the finiteness check: the
        max of the magnitudes is NaN if an entry is NaN and infinite if one
        is infinite.
        """
        if ev is None:
            return None
        g = ev[0] + ev[2].T @ lam if ncon else ev[0]
        gmax = float(np.abs(g).max(initial=0.0))
        cres = float(np.abs(ev[1]).max(initial=0.0)) if ncon else 0.0
        if not (math.isfinite(gmax) and math.isfinite(cres)):
            return None
        held = _held(x, lo, hi, g)
        if held is None:
            return g, None, gmax, cres
        return g, held, float(np.abs(np.where(held, 0.0, g)).max()), cres

    ev = evaluate(x)
    point = at(x, ev, lam)
    nfev = 1
    if point is not None and ncon:
        lam = np.linalg.lstsq(ev[2].T, -ev[0], rcond=None)[0]
        point = at(x, ev, lam)
    if point is None:
        return x, lam, math.inf, math.inf, 0, nfev, STOP_UNDEFINED

    g, held, gres, cres = point
    steps = 0
    reason = STOP_CONVERGED
    while max(gres, cres) >= 1e-13:
        if steps == MAX_STEPS:
            reason = STOP_MAX_STEPS
            break
        _, c, J, hessian = ev
        # without held variables the free block is the whole system
        Hf, gf = hessian(lam), g
        if held is not None:
            free = ~held
            Hf, gf = Hf[np.ix_(free, free)], g[free]
        k = len(gf)
        Hz = Hf
        if ncon:
            Jf = J if held is None else J[:, free]
            Z = np.linalg.qr(Jf.T, mode="complete")[0][:, ncon:]
            Hz = Z.T @ Hf @ Z
        floor = _EPS * max(1.0, float(np.abs(Hf).max(initial=0.0)))
        # no shift where Hz - floor I has a Cholesky factor (every eigenvalue
        # of Hz above the floor); only where it has none are they computed
        Hc = Hz.copy()
        Hc.reshape(-1)[:: len(Hc) + 1] -= floor  # the diagonal, a view of the copy
        try:
            np.linalg.cholesky(Hc)
            shift = 0.0
        except np.linalg.LinAlgError:
            eig = np.linalg.eigvalsh(Hz)  # ascending
            low = eig[0] if len(eig) else math.inf
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
        if held is not None:
            dx = np.zeros(len(x))
            dx[free] = d[:k]
        for t in _HALVINGS:
            xn = (x + t * dx).clip(lo, hi)
            lamn = lam + t * d[k:] if ncon else lam
            evn = evaluate(xn)
            point = at(xn, evn, lamn)
            nfev += 1
            if point is not None and max(point[2], point[3]) < max(gres, cres):
                break
        else:
            reason = STOP_NO_DESCENT
            break
        x, lam, ev, (g, held, gres, cres) = xn, lamn, evn, point
        steps += 1
    return x, lam, gres, cres, steps, nfev, reason


# ---------------------------------------------------------------------------
# box-constrained maximization
# ---------------------------------------------------------------------------

@dataclass
class BoxProblem:
    """Maximize ``objective`` over the box [lower, upper].

    ``derivatives(x)`` returns ``(gradient, hessian)``: the gradient of
    ``objective`` at x and a zero-argument callable that returns its Hessian
    there, or None where the objective is undefined; the Newton kernel calls
    ``hessian`` only at the points it steps from and never accepts a step to
    an undefined point.  ``objective`` is evaluated once, at the returned
    point, which is defined unless the start is (``STOP_UNDEFINED``).

    The bounds may be given as tuples, lists or arrays; they are checked
    once, here, and held as read-only 1-D float arrays, the two rows of one
    copy, which the kernel reads as they are.  A bound may be infinite, not
    NaN (the error names the first NaN bound), and no lower bound may exceed
    its upper one.
    Both ``objective`` and ``derivatives`` must be callable.
    """

    lower: np.ndarray
    upper: np.ndarray
    objective: object
    derivatives: object

    def __post_init__(self):
        try:
            box = np.array((self.lower, self.upper), dtype=float)
        except ValueError:  # bounds of different lengths
            box = None
        if box is None or box.ndim != 2:
            lower, upper = np.array(self.lower, dtype=float), np.array(self.upper, dtype=float)
            if lower.ndim != 1 or upper.ndim != 1:
                raise ValueError("lower and upper must each be a sequence of numbers")
            raise ValueError("lower and upper must have the same length")
        box.setflags(write=False)  # before the rows are taken, which inherit it
        self.lower = lower = box[0]
        self.upper = upper = box[1]
        # one comparison checks both: it is False where a bound is NaN
        if np.count_nonzero(lower <= upper) != len(lower):
            for side, bound in (("lower", lower), ("upper", upper)):
                nan = np.flatnonzero(np.isnan(bound))
                if len(nan):
                    raise ValueError(f"{side} bound {nan[0]} is NaN")
            raise ValueError("lower bound exceeds upper bound")
        if not callable(self.objective):
            raise TypeError("objective must be a callable returning the value at x")
        if not callable(self.derivatives):
            raise TypeError(
                "derivatives must be a callable returning (gradient, Hessian callable)"
            )


def maximize_box(problem: BoxProblem, start) -> tuple[np.ndarray, float, Diagnostics]:
    """Maximize within the box by one Newton solve on -objective from ``start``.

    ``start`` must have the box's shape, one number per variable; it is
    projected onto the box.  The kernel reads the problem's bounds as they
    are held and, the box having no constraints, does no constraint work.
    The diagnostics report the solve's steps (``iterations``, each one
    Hessian), its evaluations (``nfev``: the ``derivatives`` calls plus the
    one ``objective`` call at the result), its gradient, whether that is at
    most ``GRAD_TOL`` (``converged``) and why the solve stopped
    (``stop_reason``).
    """
    x0 = np.asarray(start, dtype=float)
    if x0.shape != problem.lower.shape:
        raise ValueError(f"start must have shape {problem.lower.shape}, got {x0.shape}")
    derivatives = problem.derivatives

    def evaluate(x):
        derivs = derivatives(x)
        if derivs is None:
            return None
        g, hessian = derivs
        return np.negative(g, dtype=float), None, None, lambda _: np.negative(hessian(), dtype=float)

    x, _, gres, _, steps, nfev, reason = _newton(evaluate, x0, problem.lower, problem.upper, 0)
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


def objective_gradient(a) -> np.ndarray:
    """Exact gradient of the area objective, read from ``_nlp_evaluate``.

    Accepts an AngleVector or a raw sequence of angles.
    """
    theta = np.asarray(a.theta if isinstance(a, AngleVector) else a, dtype=float)
    return -_nlp_evaluate(2 * len(theta))(theta)[0]


def constraint_jacobian(theta, n: int) -> np.ndarray:
    """Jacobian of the full program's two constraints, read from ``_nlp_evaluate``."""
    return _nlp_evaluate(n)(np.asarray(theta, dtype=float))[2]


def _nlp_evaluate(n):
    """The full program's callback for the Newton kernel (f = -area).

    One chain walk per point gives the gradient of f, the constraints (angle
    sum - pi/2, chain midpoint x - required half), their Jacobian and, if
    the kernel asks for it, the exact Hessian of -area + lam @ constraints.
    The area's gradient is formed in the partial sums (``area_gradient_s``)
    and mapped to the angles by a suffix sum (theta_i enters S_j for every
    j >= i), so its cost is linear in the number of angles.  The midpoint
    x_{m-1} = p_0 + ... + p_{m-2} has derivative q_j in S_j, so its
    derivative in theta_j is q_j + ... + q_{m-2} = y_{m-1} - y_j.
    """

    def evaluate(theta):
        S, x, y = walk_chain(theta)
        m = len(S)
        J = np.empty((2, m))
        J[0] = 1.0
        np.subtract(y[m - 1], y[:m], out=J[1])

        def hessian(lam):
            # formed in the partial sums S = cumsum(theta): the area's
            # Hessian there is the dense ``area_hessian_s``, the angle sum is
            # linear, and the midpoint has the diagonal Hessian -p_j.  Since
            # S = L theta with L lower-triangular ones, the map to theta is a
            # suffix sum over rows and columns
            hess = -area_hessian_s(S)
            # the first m - 1 entries of the diagonal, as a view
            diagonal = hess.reshape(-1)[: (m - 1) * (m + 1) : m + 1]
            diagonal -= lam[1] * np.subtract(x[1:m], x[: m - 1])
            return hess[::-1, ::-1].cumsum(axis=0).cumsum(axis=1)[::-1, ::-1]

        return (
            -np.array(area_gradient_s(x, y)[2][::-1]).cumsum()[::-1],
            np.array([float(theta.sum()) - math.pi / 2, x[m - 1] - half_sign(n)]),
            J,
            hessian,
        )

    return evaluate


def solve_full_nlp(n: int, start=None, *, tol: float = 1e-10):
    """Best symmetric unit-diameter n-gon from the full angle program.

    Parameters
    ----------
    n : even integer in [6, 512].
    start : optional initial angles (AngleVector or sequence).  The default
        is the expanded best reduced construction for this n, whose angles
        already show the damped oscillation of the optimum.
    tol : constraint tolerance for success; stationarity must reach 100 tol.

    One Newton solve on the KKT system with the exact Hessian of the
    Lagrangian, capped at ``MAX_STEPS`` steps; a start far from the optimum,
    such as the r = 0 closed form, converges without a warm start.  The
    diagnostics report its Newton steps (``iterations``), KKT-residual
    evaluations (``nfev``) and why it stopped (``stop_reason``).

    Returns ``(AngleVector, area, Diagnostics)``.  Raises InfeasibleError if
    the solve does not reach both tolerances.
    """
    require_even(n, minimum=6)
    if n > 512:
        raise ValueError(f"n must be at most 512, got {n}")
    m = n // 2
    lower, upper = angle_box(m)
    if start is None:
        from .reduced import construct_Q_theorem, expand_angles

        _, _, params = construct_Q_theorem(n)
        theta0 = np.array(expand_angles(params).theta)
    elif isinstance(start, AngleVector):
        theta0 = np.array(start.theta)
    else:
        theta0 = np.asarray(start, dtype=float)
    if theta0.shape != (m,):
        raise ValueError(f"start must be {m} angles, got shape {theta0.shape}")

    theta, lam, kkt, cmax, steps, nfev, reason = _newton(_nlp_evaluate(n), theta0, lower, upper, 2)
    diag = Diagnostics(
        converged=cmax <= tol and kkt <= 100.0 * tol,
        iterations=steps,
        nfev=nfev,
        grad_norm=kkt,
        constraint_residual=cmax,
        multipliers=tuple(float(v) for v in lam),
        stop_reason=reason,
    )
    if not diag.converged:
        diag.message = (
            f"constraint residual {cmax:.3e} (tol {tol:.1e}), "
            f"stationarity {kkt:.3e} (tol {100.0 * tol:.1e}); stopped: {reason}"
        )
        raise InfeasibleError(diag.message, diag)
    return AngleVector(n, theta.tolist()), nlp_objective(theta), diag
