"""Large-n behavior of the reduced constructions.

The area of the best r-parameter polygon behaves like

    pi/4 - 5 pi^3 / (48 n^2) - q_r pi^3 / n^3 + O(1/n^4),

where q_r is 1/192 of the minimum of an explicit cubic polynomial in the
scaled parameter limits.  This module evaluates those cubics for r = 1, 2, 3,
verifies the algebraic certificates of q_2 and q_3 in exact rational
arithmetic, extracts q_r numerically from finite-n constructions, and checks
the headline constants that compare the r = 16 family with the bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .reduced import (
    area_deficit,
    derivatives as reduced_derivatives,
    derive,
    objective as reduced_objective,
    parameter_bounds,
    params_from_vector,
    start_vector,
)
from .reference import MAX_TABULATED_R, coeff_row
from .solver import BoxProblem, maximize_box

SQRT114 = math.sqrt(114.0)
A1_CLOSED_FORM = (2 * SQRT114 - 7) / 22
Q1_CLOSED_FORM = (5545 - 456 * SQRT114) / 5808
GAP_LINK_CLOSED_FORM = (5303 - 456 * SQRT114) / 5808  # equals q_1 - 1/24


@dataclass(frozen=True)
class CubicObjective:
    """The scaled-limit cubic for r in {1, 2, 3}; q_r = min / 192.

    Variables are the scaled limits (a, b_1, c_1) restricted to
    0 <= a <= 1, 0 <= b_i <= 2, 0 <= c_i <= 1/3.
    """

    r: int

    def __post_init__(self):
        if self.r not in (1, 2, 3):
            raise ValueError(f"explicit cubics exist for r = 1, 2, 3 only, got {self.r}")

    @property
    def dim(self) -> int:
        return self.r

    @property
    def lower(self) -> tuple[float, ...]:
        return (0.0, 0.0, 0.0)[: self.r]

    @property
    def upper(self) -> tuple[float, ...]:
        return (1.0, 2.0, 1.0 / 3.0)[: self.r]

    def value(self, x) -> float:
        if self.r == 1:
            (a,) = x
            return 88 * a**3 + 84 * a**2 - 222 * a + 107
        if self.r == 2:
            a, b = x
            return (88 * a**3 + 12 * a**2 * (8 * b - 1) - 6 * a * (16 * b**2 + 21)
                    + 128 * b**3 - 48 * b**2 - 216 * b + 243)
        a, b, c = x
        return (88 * a**3 + 12 * a**2 * (16 * b - 12 * c + 7)
                - 6 * a * (32 * b**2 + 64 * b * c - 80 * c**2 + 56 * c + 37)
                + 128 * b**3 + 192 * b**2 * c + 384 * b * c**2 - 384 * c**3
                + 336 * c**2 - 240 * b + 204 * c + 267)

    def gradient(self, x) -> np.ndarray:
        if self.r == 1:
            (a,) = x
            return np.array([264 * a**2 + 168 * a - 222])
        if self.r == 2:
            a, b = x
            return np.array([
                264 * a**2 + 24 * a * (8 * b - 1) - 6 * (16 * b**2 + 21),
                96 * a**2 - 192 * a * b + 384 * b**2 - 96 * b - 216,
            ])
        a, b, c = x
        return np.array([
            264 * a**2 + 24 * a * (16 * b - 12 * c + 7)
            - 6 * (32 * b**2 + 64 * b * c - 80 * c**2 + 56 * c + 37),
            192 * a**2 - 384 * a * (b + c) + 384 * b**2 + 384 * b * c
            + 384 * c**2 - 240,
            -144 * a**2 - 384 * a * b + 960 * a * c - 336 * a
            + 192 * b**2 + 768 * b * c - 1152 * c**2 + 672 * c + 204,
        ])

    def hessian(self, x) -> np.ndarray:
        if self.r == 1:
            (a,) = x
            return np.array([[528 * a + 168]])
        if self.r == 2:
            a, b = x
            return np.array([
                [528 * a + 192 * b - 24, 192 * a - 192 * b],
                [192 * a - 192 * b, -192 * a + 768 * b - 96],
            ])
        a, b, c = x
        return np.array([
            [528 * a + 384 * b - 288 * c + 168,
             384 * a - 384 * b - 384 * c,
             -288 * a - 384 * b + 960 * c - 336],
            [384 * a - 384 * b - 384 * c,
             -384 * a + 768 * b + 384 * c,
             -384 * a + 384 * b + 768 * c],
            [-288 * a - 384 * b + 960 * c - 336,
             -384 * a + 384 * b + 768 * c,
             960 * a + 768 * b - 2304 * c + 672],
        ])


def minimize_cubic(r: int) -> tuple[float, np.ndarray]:
    """Minimum of the scaled-limit cubic, normalized to the deficit scale.

    The Newton kernel of ``maximize_box`` runs on the analytic gradient and
    Hessian to machine precision; the minimizer is interior for all three
    cubics.
    """
    cubic = CubicObjective(r)
    problem = BoxProblem(
        lower=cubic.lower,
        upper=cubic.upper,
        objective=lambda v: -cubic.value(v),
        derivatives=lambda v: (-cubic.gradient(v), -cubic.hessian(v)),
        tol=1e-10,
        multistart_seeds=(0, 1, 2, 3),
    )
    start = np.array([0.5, 1.0, 0.1][: cubic.dim])
    x, _, _ = maximize_box(problem, start)
    if np.any(np.linalg.eigvalsh(cubic.hessian(x)) <= 0):
        raise RuntimeError(f"stationary point for r = {r} is not a minimum")
    return cubic.value(x) / 192.0, x


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

    For each grid n the construction is optimized from the scaled asymptotic
    start and the deficit is evaluated with compensated accumulation; the
    model pi/4 - 5 pi^3/48n^2 - q pi^3/n^3 - d pi^4/n^4 is then fit by
    ordinary least squares with the known terms fixed.
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

    deficits = []
    for n in grid:
        if r == 0:
            params = derive(params_from_vector(n, 0, [math.pi / (2 * n - 2)]))
        else:
            lo, hi = parameter_bounds(n, r)
            problem = BoxProblem(
                lower=tuple(lo),
                upper=tuple(hi),
                objective=lambda v, n=n: reduced_objective(n, r, v),
                derivatives=lambda v, n=n: reduced_derivatives(n, r, v),
                tol=1e-9,
                multistart_seeds=(),
            )
            best, _, _ = maximize_box(problem, start_vector(n, r))
            params = derive(params_from_vector(n, r, best))
        deficits.append(area_deficit(params))

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
