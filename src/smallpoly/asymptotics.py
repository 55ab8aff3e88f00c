"""Large-n behavior of the reduced constructions.

The area of the best r-parameter polygon behaves like

    pi/4 - 5 pi^3 / (48 n^2) - q_r pi^3 / n^3 + O(1/n^4),

where q_r is 1/192 of the minimum of an explicit cubic polynomial in the
scaled parameter limits.  This module stores those cubics for r = 1, 2, 3 as
tables of integer coefficients and minimizes them on exact derivatives,
verifies the algebraic certificates of q_2 and q_3 in exact rational
arithmetic, extracts q_r numerically from finite-n constructions, and checks
the headline constants that compare the r = 16 family with the bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .geometry import require_even
from .reduced import area_deficit, best_params, require_r
# bound for the benchmark's tracer self-test, which checks it wraps them here
from .reduced import derive, objective as reduced_objective  # noqa: F401
from .reference import coeff_row
from .solver import BoxProblem, maximize_box

SQRT114 = math.sqrt(114.0)
A1_CLOSED_FORM = (2 * SQRT114 - 7) / 22
Q1_CLOSED_FORM = (5545 - 456 * SQRT114) / 5808
GAP_LINK_CLOSED_FORM = (5303 - 456 * SQRT114) / 5808  # equals q_1 - 1/24


# The scaled-limit cubics: for r = 1, 2, 3, 192 times the pi^3/n^3
# coefficient of the deficit, as {exponents of (a, b_1, c_1): integer
# coefficient}; q_r is the minimum over CUBIC_BOX divided by 192.
CUBICS: dict[int, dict[tuple[int, ...], int]] = {
    1: {(3,): 88, (2,): 84, (1,): -222, (0,): 107},
    2: {
        (3, 0): 88, (2, 1): 96, (2, 0): -12, (1, 2): -96, (1, 0): -126,
        (0, 3): 128, (0, 2): -48, (0, 1): -216, (0, 0): 243,
    },
    3: {
        (3, 0, 0): 88, (2, 1, 0): 192, (2, 0, 1): -144, (2, 0, 0): 84,
        (1, 2, 0): -192, (1, 1, 1): -384, (1, 0, 2): 480, (1, 0, 1): -336,
        (1, 0, 0): -222, (0, 3, 0): 128, (0, 2, 1): 192, (0, 1, 2): 384,
        (0, 1, 0): -240, (0, 0, 3): -384, (0, 0, 2): 336, (0, 0, 1): 204,
        (0, 0, 0): 267,
    },
}
# lower and upper limits of (a, b_1, c_1); the first r apply to CUBICS[r]
CUBIC_BOX = ((0.0, 0.0, 0.0), (1.0, 2.0, 1.0 / 3.0))


def poly_value(poly: dict[tuple[int, ...], int], x) -> float:
    """Value of a polynomial table at the point x, summed in table order."""
    x = [float(v) for v in x]
    return sum(c * math.prod(map(pow, x, e)) for e, c in poly.items())


def poly_derivative(poly: dict[tuple[int, ...], int], i: int) -> dict[tuple[int, ...], int]:
    """The table of the exact partial derivative in variable i."""
    out = {}
    for e, c in poly.items():
        if e[i]:
            out[e[:i] + (e[i] - 1,) + e[i + 1:]] = c * e[i]
    return out


def _derivative_terms(poly: dict[tuple[int, ...], int], r: int):
    """The gradient and Hessian tables of ``poly`` as terms over shared monomials.

    Returns ``(monomials, gradient, hessian)``: the exponent tuples that
    the ``poly_derivative`` tables of the r first and second partials read,
    in the order first met, and each table as its (coefficient, monomial
    index) terms in table order.
    """
    grad = [poly_derivative(poly, i) for i in range(r)]
    hess = [[poly_derivative(g, j) for j in range(r)] for g in grad]
    monomials: dict[tuple[int, ...], int] = {}

    def terms(table):
        return tuple((c, monomials.setdefault(e, len(monomials))) for e, c in table.items())

    grad_terms = tuple(terms(g) for g in grad)
    hess_terms = tuple(tuple(terms(h) for h in row) for row in hess)
    return tuple(monomials), grad_terms, hess_terms


# ``_derivative_terms`` of each cubic, built once
_CUBIC_DERIVATIVES = {r: _derivative_terms(cubic, r) for r, cubic in CUBICS.items()}


def _cubic_derivatives(r: int, x):
    """Gradient of ``CUBICS[r]`` at x and a callable that returns its Hessian there.

    Both as lists, from the tables of ``_derivative_terms``: each monomial
    is formed once per point, as ``poly_value`` forms a term's product, and
    each table sums the same products in the same order as ``poly_value``
    of its ``poly_derivative`` table, so the values are bit for bit those.
    """
    monomials, grad, hess = _CUBIC_DERIVATIVES[r]
    x = [float(v) for v in x]
    m = [math.prod(map(pow, x, e)) for e in monomials]

    def value(table):
        return sum([c * m[i] for c, i in table])

    return [value(t) for t in grad], lambda: [[value(h) for h in row] for row in hess]


def minimize_cubic(r: int) -> tuple[float, np.ndarray]:
    """Minimum of the scaled-limit cubic, normalized to the deficit scale.

    The Newton kernel of ``maximize_box`` runs from one start on the exact
    gradient and Hessian tables (``_cubic_derivatives``) to machine
    precision; the minimizer is interior for all three cubics.  r is
    checked as the family checks it (``require_r``): a bool or a float is
    refused, a numpy integer passes.
    """
    require_r(r)
    if r not in CUBICS:
        raise ValueError(f"scaled-limit cubics exist for r in {sorted(CUBICS)}, got {r}")
    cubic = CUBICS[r]

    def derivatives(v):
        g, hessian = _cubic_derivatives(r, v)
        return [-d for d in g], lambda: [[-h for h in row] for row in hessian()]

    problem = BoxProblem(
        lower=CUBIC_BOX[0][:r],
        upper=CUBIC_BOX[1][:r],
        objective=lambda v: -poly_value(cubic, v),
        derivatives=derivatives,
    )
    x, value, _ = maximize_box(problem, np.array([0.5, 1.0, 0.1][:r]))
    if np.any(np.linalg.eigvalsh(_cubic_derivatives(r, x)[1]()) <= 0):
        raise RuntimeError(f"stationary point for r = {r} is not a minimum")
    return -value / 192.0, x


# Certificate polynomials: q_2 and q_3 are algebraic; these are their minimal
# polynomials with exact rational coefficients, highest degree first.
QUARTIC_Q2: tuple[Fraction, ...] = (
    Fraction(1),
    Fraction(-70705, 15876),
    Fraction(269167127, 41150592),
    Fraction(-3381027871, 987614208),
    Fraction(737985313, 2341011456),
)

DEGREE8_Q3: tuple[Fraction, ...] = (
    Fraction(1),
    Fraction(-3380671897604231941, 232662255261540774),
    Fraction(1980606171874180754147, 22335576505107914304),
    Fraction(-158140620301705167575191, 536053836122589943296),
    Fraction(59647522303796634759434731, 102922336535537269112832),
    Fraction(-836103610314364495378933003, 1235068038426447229353984),
    Fraction(52675103710698128327456883067, 118566531688938934017982464),
    Fraction(-14538141342029184829034957803, 105392472612390163571539968),
    Fraction(442235633612728385344035304147, 40470709483157822811471347712),
)


def evaluate_certificate(coeffs: tuple[Fraction, ...], x: float) -> float:
    """Polynomial value at a double, computed exactly and rounded once."""
    xf = Fraction(x)
    acc = Fraction(0)
    for c in coeffs:
        acc = acc * xf + c
    return float(acc)


@dataclass(frozen=True)
class CertificateReport:
    q1: float
    q2: float
    q3: float
    a1_delta: float
    q1_delta: float
    quartic_residual: float
    degree8_residual: float
    gap_link_delta: float

    @property
    def all_passed(self) -> bool:
        return (
            abs(self.a1_delta) <= 1e-13
            and abs(self.q1_delta) <= 1e-13
            and abs(self.quartic_residual) <= 1e-12
            and abs(self.degree8_residual) <= 1e-12
            and abs(self.gap_link_delta) <= 1e-13
        )


def verify_certificates() -> CertificateReport:
    """Cross-check the computed minima against their algebraic certificates."""
    q1, x1 = minimize_cubic(1)
    q2, _ = minimize_cubic(2)
    q3, _ = minimize_cubic(3)
    return CertificateReport(
        q1=q1,
        q2=q2,
        q3=q3,
        a1_delta=float(x1[0]) - A1_CLOSED_FORM,
        q1_delta=q1 - Q1_CLOSED_FORM,
        quartic_residual=evaluate_certificate(QUARTIC_Q2, q2),
        degree8_residual=evaluate_certificate(DEGREE8_Q3, q3),
        gap_link_delta=(Q1_CLOSED_FORM - 1.0 / 24.0) - GAP_LINK_CLOSED_FORM,
    )


# the largest grid n of ``estimate_q_numeric``: ``area_deficit``'s resolved range
MAX_GRID_N = 1_000_000


@dataclass(frozen=True)
class AsymptoticFit:
    """Least-squares estimate of the deficit coefficients from a grid of n."""

    r: int
    q_estimate: float
    d: float
    e: float
    n_grid: tuple[int, ...]


def estimate_q_numeric(r: int, n_grid, *, seed: int = 0) -> AsymptoticFit:
    """Fit q (and the 1/n^4 and 1/n^5 coefficients d and e) to computed deficits.

    For each grid n the deficit of ``best_params(n, r)`` is evaluated by
    ``area_deficit``, one ``fsum`` of O(1/n) terms with no O(1) term to
    cancel; the model pi/4 - 5 pi^3/48n^2 - q pi^3/n^3 - d pi^4/n^4 -
    e pi^5/n^5 is then fit by ordinary least squares with the known terms
    fixed, so a grid needs at least three points.  Without the pi^5/n^5
    term it leaks into q: on the acceptance grid 1000 .. 50000 a two-term
    fit leaves every q_1..q_16 about 2e-7 low, and the three-term fit
    leaves every q_0..q_16 within 7.2e-9 (q_16 within 8.2e-10).  On the
    grid 1e5 .. 8e5 the pi^5/n^5 term is below the deficits' rounding, so
    it fits noise: there the worst q_0..q_16 is 5.94e-5 off (r = 13).  Each
    grid n is checked by ``require_even`` (a float is refused, not
    truncated) and by ``best_params``; a grid n above ``MAX_GRID_N`` = 1e6
    is refused, because past it the plain-double prefix terms leave the
    deficit up to 16% off (see ``area_deficit``).  Every solve is
    deterministic; ``seed`` is accepted and unused.
    """
    grid = [int(require_even(n, minimum=6)) for n in n_grid]
    if len(grid) < 3:
        raise ValueError("need at least three grid points")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("grid must be strictly increasing")
    if grid[-1] > MAX_GRID_N:
        raise ValueError(
            f"grid n must be at most {MAX_GRID_N}, got {grid[-1]}: past it the "
            "rounding of the plain-double prefix terms leaves the deficit up to "
            "16% off"
        )

    deficits = [area_deficit(best_params(n, r)) for n in grid]

    design = np.array([[math.pi**k / n**k for k in (3, 4, 5)] for n in grid])
    coeffs, *_ = np.linalg.lstsq(design, np.array(deficits), rcond=None)
    return AsymptoticFit(
        r=r,
        q_estimate=float(coeffs[0]),
        d=float(coeffs[1]),
        e=float(coeffs[2]),
        n_grid=tuple(grid),
    )


# decimal digits of the rational upper bound on sqrt(114) behind the proved
# lower bound on q_1: 12 digits leave the separation a margin of 3.3e-7 (6
# digits would leave 2.75e-7)
SQRT114_DIGITS = 12


def sqrt114_upper() -> Fraction:
    """A rational above sqrt(114) by at most 10^-k, k = ``SQRT114_DIGITS``.

    ``math.isqrt(114 10^2k)`` is floor(sqrt(114) 10^k) exactly, so one more,
    over 10^k, lies above sqrt(114).
    """
    scale = 10**SQRT114_DIGITS
    return Fraction(math.isqrt(114 * scale * scale) + 1, scale)


@dataclass(frozen=True)
class TheoremReport:
    """The headline constants separating the r = 16 family from the bound.

    ``separation`` and ``separation_floor`` are the tabulated q_1 - q_16 and
    1/725 as floats, for display.  The separation is decided in rationals:
    ``q1_lower`` = (5545 - 456 s)/5808 <= q_1 for the witness s =
    ``sqrt114_upper`` > sqrt(114), and ``separation_margin`` is q1_lower -
    q_16 - 1/725 with the tabulated q_16 read exactly, so a positive margin
    proves q_1 - q_16 > 1/725 for that q_16.  ``q16_estimate`` is the
    code's own q_16, fit by ``estimate_q_numeric`` on the acceptance grid
    1000 .. 50000, and ``q16_estimate_error`` its distance from the
    tabulated value (about 8e-10); both are for display, and no proof reads
    them.
    """

    delta: float
    delta_reference_error: float
    upper_coefficient: float
    separation: float
    separation_floor: float
    sqrt114_upper: Fraction
    q1_lower: Fraction
    separation_margin: Fraction
    q16_estimate: float
    q16_estimate_error: float

    @property
    def separation_proved(self) -> bool:
        return self.separation_margin > 0

    @property
    def all_passed(self) -> bool:
        return (
            abs(self.delta_reference_error) <= 1e-9
            and self.delta < self.upper_coefficient
            and self.separation_proved
        )


def theorem_constants() -> TheoremReport:
    """delta = q_16 - 1/24 and its comparisons.

    The bound's own deficit expansion carries a 1/24 coefficient on pi^3/n^3,
    so delta measures how much of the remaining gap the r = 16 family leaves;
    it stays below 8/109, and the improvement over the one-parameter family
    exceeds 1/725.  q_1's side of that improvement is proved in rationals
    from its closed form (see ``TheoremReport``); q_16 is the tabulated
    value, shown beside the code's own fit of it.
    """
    q16 = coeff_row(16).q
    q1 = coeff_row(1).q
    delta = q16 - 1.0 / 24.0
    s = sqrt114_upper()
    q1_lower = (5545 - 456 * s) / 5808
    q16_estimate = estimate_q_numeric(16, (1000, 2000, 5000, 10000, 20000, 50000)).q_estimate
    return TheoremReport(
        delta=delta,
        delta_reference_error=delta - 0.0733883168,
        upper_coefficient=8.0 / 109.0,
        separation=q1 - q16,
        separation_floor=1.0 / 725.0,
        sqrt114_upper=s,
        q1_lower=q1_lower,
        separation_margin=q1_lower - Fraction(q16) - Fraction(1, 725),
        q16_estimate=q16_estimate,
        q16_estimate_error=q16_estimate - q16,
    )
