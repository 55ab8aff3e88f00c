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

from .reduced import area_deficit, best_params
# bound for the benchmark's tracer self-test, which checks it wraps them here
from .reduced import derive, objective as reduced_objective  # noqa: F401
from .reference import MAX_TABULATED_R, coeff_row
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


def minimize_cubic(r: int) -> tuple[float, np.ndarray]:
    """Minimum of the scaled-limit cubic, normalized to the deficit scale.

    The Newton kernel of ``maximize_box`` runs from one start on the exact
    gradient and Hessian tables to machine precision; the minimizer is
    interior for all three cubics.
    """
    if r not in CUBICS:
        raise ValueError(f"scaled-limit cubics exist for r in {sorted(CUBICS)}, got {r}")
    cubic = CUBICS[r]
    grad = [poly_derivative(cubic, i) for i in range(r)]
    hess = [[poly_derivative(g, j) for j in range(r)] for g in grad]

    def hessian(v):
        return np.array([[poly_value(h, v) for h in row] for row in hess])

    problem = BoxProblem(
        lower=CUBIC_BOX[0][:r],
        upper=CUBIC_BOX[1][:r],
        objective=lambda v: -poly_value(cubic, v),
        derivatives=lambda v: (
            -np.array([poly_value(g, v) for g in grad]),
            lambda: -hessian(v),
        ),
    )
    x, _, _ = maximize_box(problem, np.array([0.5, 1.0, 0.1][:r]))
    if np.any(np.linalg.eigvalsh(hessian(x)) <= 0):
        raise RuntimeError(f"stationary point for r = {r} is not a minimum")
    return poly_value(cubic, x) / 192.0, x


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


@dataclass(frozen=True)
class AsymptoticFit:
    """Least-squares estimate of the deficit coefficients from a grid of n."""

    r: int
    q_estimate: float
    d: float | None
    residual: float
    n_grid: tuple[int, ...]


def estimate_q_numeric(r: int, n_grid, *, seed: int = 0) -> AsymptoticFit:
    """Fit q (and the 1/n^4 coefficient d) to computed deficits.

    For each grid n the deficit of ``best_params(n, r)`` is evaluated by
    ``area_deficit``, one ``fsum`` of O(1/n) terms with no O(1) term to
    cancel; the model pi/4 - 5 pi^3/48n^2 - q pi^3/n^3 - d pi^4/n^4 is then
    fit by ordinary least squares with the known terms fixed.  Every solve is
    deterministic; ``seed`` is accepted and unused.
    """
    grid = [int(n) for n in n_grid]
    if len(grid) < 2:
        raise ValueError("need at least two grid points")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("grid must be strictly increasing")
    if r < 0 or r > MAX_TABULATED_R:
        raise ValueError(f"r must be in [0, {MAX_TABULATED_R}], got {r}")
    for n in grid:
        if n % 2 != 0 or n < 2 * r + 4:
            raise ValueError(f"grid entry {n} is not even with n >= 2r + 4")

    deficits = [area_deficit(best_params(n, r)) for n in grid]

    design = np.array([[math.pi**3 / n**3, math.pi**4 / n**4] for n in grid])
    y = np.array(deficits)
    coeffs, *_ = np.linalg.lstsq(design, y, rcond=None)
    resid = y - design @ coeffs
    return AsymptoticFit(
        r=r,
        q_estimate=float(coeffs[0]),
        d=float(coeffs[1]),
        residual=float(np.sqrt(np.mean(resid**2))),
        n_grid=tuple(grid),
    )


@dataclass(frozen=True)
class TheoremReport:
    """The headline constants separating the r = 16 family from the bound."""

    delta: float
    delta_reference_error: float
    upper_coefficient: float
    separation: float
    separation_floor: float

    @property
    def all_passed(self) -> bool:
        return (
            abs(self.delta_reference_error) <= 1e-9
            and self.delta < self.upper_coefficient
            and self.separation > self.separation_floor
        )


def theorem_constants() -> TheoremReport:
    """delta = q_16 - 1/24 and its comparisons.

    The bound's own deficit expansion carries a 1/24 coefficient on pi^3/n^3,
    so delta measures how much of the remaining gap the r = 16 family leaves;
    it stays below 8/109, and the improvement over the one-parameter family
    exceeds 1/725.
    """
    q16 = coeff_row(16).q
    q1 = coeff_row(1).q
    delta = q16 - 1.0 / 24.0
    return TheoremReport(
        delta=delta,
        delta_reference_error=delta - 0.0733883168,
        upper_coefficient=8.0 / 109.0,
        separation=q1 - q16,
        separation_floor=1.0 / 725.0,
    )
