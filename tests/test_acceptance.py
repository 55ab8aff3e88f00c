"""Acceptance suite: one test per headline capability, each at its stated
tolerance, each printing a PASS line with its runtime.  The area-comparison
sweep is computed once and shared by the criteria that consume it.
"""

import math
import time
from dataclasses import dataclass, field

import numpy as np
import pytest

import smallpoly as sp
from smallpoly import reference
from smallpoly.asymptotics import (
    A1_CLOSED_FORM,
    GAP_LINK_CLOSED_FORM,
    Q1_CLOSED_FORM,
    verify_certificates,
)
from smallpoly.geometry import validate, vertices_from_angles
from smallpoly.reduced import expand_angles
from tests.conftest import make_sampler

SWEEP_N = sorted(reference.AREA_COMPARISON)


@dataclass
class SweepResult:
    seconds: float = 0.0
    regular: dict = field(default_factory=dict)
    upper: dict = field(default_factory=dict)
    family_areas: dict = field(default_factory=dict)   # (n, r) -> area
    family_polygons: dict = field(default_factory=dict)
    optimal_areas: dict = field(default_factory=dict)  # n -> area
    optimal_angles: dict = field(default_factory=dict)


@pytest.fixture(scope="session")
def sweep() -> SweepResult:
    result = SweepResult()
    start = time.perf_counter()
    for n in SWEEP_N:
        result.regular[n] = sp.regular_area(n)
        result.upper[n] = sp.upper_bound(n)
        for r, ref_area in enumerate(reference.AREA_COMPARISON[n].q):
            if ref_area is None:
                continue
            polygon, report, _ = sp.construct_Q(n, r)
            result.family_areas[(n, r)] = report.area
            result.family_polygons[(n, r)] = polygon
        angles, area, _ = sp.solve_full_nlp(n)
        result.optimal_areas[n] = area
        result.optimal_angles[n] = angles
    result.seconds = time.perf_counter() - start
    return result


def test_criterion_1_optimal_small_n():
    """Constructions for n = 6, 8, 10, 12 hit the known optima."""
    start = time.perf_counter()
    for n, ref in reference.OPTIMAL_SMALL_N.items():
        _, report, params = sp.construct_Q(n, n // 2 - 2)
        assert report.area == pytest.approx(ref.area, abs=1e-9), f"area mismatch at n={n}"
        assert params.alpha == pytest.approx(ref.alpha, abs=1e-6)
        for got, want in zip(params.betas, ref.betas):
            assert got == pytest.approx(want, abs=1e-6)
        for got, want in zip(params.gammas_free, ref.gammas):
            assert got == pytest.approx(want, abs=1e-6)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"took {elapsed:.2f}s, budget 5s"
    print(f"\ncriterion 1 PASS: optimal small-n constructions ({elapsed:.2f}s)")


def test_criterion_2_area_sweep(sweep):
    """All 20 tabulated n: regular and bound at 1e-9, families and the full
    program at 1e-8, inside the 2 minute budget."""
    for n in SWEEP_N:
        ref = reference.AREA_COMPARISON[n]
        assert sweep.regular[n] == pytest.approx(ref.regular, abs=1e-9)
        assert sweep.upper[n] == pytest.approx(ref.upper, abs=1e-9)
        for r, ref_area in enumerate(ref.q):
            if ref_area is None:
                continue
            assert sweep.family_areas[(n, r)] == pytest.approx(ref_area, abs=1e-8), (
                f"family r={r} at n={n}"
            )
        assert sweep.optimal_areas[n] == pytest.approx(ref.optimal, abs=1e-8), f"n={n}"
    assert sweep.seconds < 120.0, f"sweep took {sweep.seconds:.1f}s, budget 120s"
    print(f"\ncriterion 2 PASS: full area sweep over {len(SWEEP_N)} n ({sweep.seconds:.1f}s)")


def test_criterion_3_angle_profiles(sweep):
    """Solved angles match the reference profiles and oscillate as expected."""
    start = time.perf_counter()
    for n in (6, 16):
        got = sweep.optimal_angles[n].theta
        want = reference.SOLVED_ANGLES[n]
        for i, (g, w) in enumerate(zip(got, want)):
            assert f"{g:.6f}" == f"{w:.6f}", f"n={n}, theta_{i}: {g:.7f} vs {w}"
    # the n = 40 profile is printed with 7 decimals; the reference solver left
    # noise of a couple 1e-7 in the flattest direction, so compare at the
    # 6-decimal level the criterion states
    got40 = sweep.optimal_angles[40].theta
    for i, (g, w) in enumerate(zip(got40, reference.SOLVED_ANGLES[40])):
        assert abs(g - w) <= 1e-6, f"n=40, theta_{i}: {g:.8f} vs {w}"
    for n in (16, 40):
        th = sweep.optimal_angles[n].theta
        assert th[1] > th[3] > th[5], f"odd-index oscillation fails at n={n}"
        assert th[2] < th[4] < th[6], f"even-index oscillation fails at n={n}"
    elapsed = time.perf_counter() - start
    print(f"\ncriterion 3 PASS: angle profiles for n in (6, 16, 40) ({elapsed:.2f}s)")


def test_criterion_4_asymptotic_minima():
    """Cubic minimizations reproduce the coefficient table and certificates."""
    start = time.perf_counter()
    for r in (1, 2, 3):
        row = reference.coeff_row(r)
        q, x = sp.minimize_cubic(r)
        assert q == pytest.approx(row.q, abs=1e-12), f"q_{r}"
        expected = [row.a, *row.b, *row.c][: len(x)]
        for got, want in zip(x, expected):
            assert got == pytest.approx(want, abs=1e-9)
    q1, x1 = sp.minimize_cubic(1)
    assert x1[0] == pytest.approx(A1_CLOSED_FORM, abs=1e-13)
    assert q1 == pytest.approx(Q1_CLOSED_FORM, abs=1e-13)
    report = verify_certificates()
    assert abs(report.quartic_residual) <= 1e-12
    assert abs(report.degree8_residual) <= 1e-12
    elapsed = time.perf_counter() - start
    print(f"\ncriterion 4 PASS: cubic minima and certificates ({elapsed:.2f}s)")


def test_criterion_5_headline_constants():
    """delta = q_16 - 1/24 and its separations."""
    start = time.perf_counter()
    report = sp.theorem_constants()
    assert abs(report.delta - 0.0733883168) <= 1e-9
    assert report.delta < 8.0 / 109.0
    assert reference.coeff_row(1).q - reference.coeff_row(16).q > 1.0 / 725.0
    q1, _ = sp.minimize_cubic(1)
    assert q1 - 1.0 / 24.0 == pytest.approx(GAP_LINK_CLOSED_FORM, abs=1e-13)
    elapsed = time.perf_counter() - start
    print(f"\ncriterion 5 PASS: headline constants ({elapsed:.2f}s)")


def test_criterion_6_extrapolation():
    """Numeric extrapolation of the deficit coefficients on the wide grid."""
    start = time.perf_counter()
    grid = (1000, 2000, 5000, 10000, 20000, 50000)
    fit0 = sp.estimate_q_numeric(0, grid)
    assert fit0.q_estimate == pytest.approx(7.0 / 48.0, abs=1e-8)
    fit1 = sp.estimate_q_numeric(1, grid)
    assert fit1.q_estimate == pytest.approx(Q1_CLOSED_FORM, abs=1e-6)
    fit4 = sp.estimate_q_numeric(4, grid)
    assert fit4.q_estimate == pytest.approx(reference.coeff_row(4).q, abs=1e-5)
    elapsed = time.perf_counter() - start
    print(f"\ncriterion 6 PASS: deficit coefficient extrapolation ({elapsed:.2f}s)")


def test_criterion_7_oracles(sweep):
    """Independent oracles: shoelace vs dissection, finite differences vs the
    analytic gradient, and geometric validity of every constructed polygon."""
    start = time.perf_counter()
    sampler = make_sampler(seed=7)

    for _ in range(1000):
        _, angles = sampler()
        poly = vertices_from_angles(angles)
        assert abs(sp.area_dissection(angles) - sp.area_shoelace(poly)) <= 1e-12

    for _ in range(100):
        _, angles = sampler()
        theta = np.array(angles.theta)
        g = sp.objective_gradient(angles)
        fd = np.zeros(len(theta))
        h = 1e-6
        for i in range(len(theta)):
            tp, tm = theta.copy(), theta.copy()
            tp[i] += h
            tm[i] -= h
            fd[i] = (sp.nlp_objective(tp) - sp.nlp_objective(tm)) / (2 * h)
        assert np.max(np.abs(g - fd)) / np.max(np.abs(g)) <= 1e-6

    polygons = list(sweep.family_polygons.values())
    polygons += [vertices_from_angles(a) for a in sweep.optimal_angles.values()]
    for poly in polygons:
        report = validate(poly)
        assert report.diameter <= 1.0 + 1e-9
        assert report.is_convex and report.is_symmetric and report.is_small
        verts = np.asarray(poly.vertices)
        for i, j in poly.skeleton_edges:
            assert abs(np.hypot(*(verts[i] - verts[j])) - 1.0) <= 1e-12
    elapsed = time.perf_counter() - start
    print(f"\ncriterion 7 PASS: oracle and validity suites ({elapsed:.1f}s)")


def test_criterion_8_ordering(sweep):
    """regular < family chain <= full optimum < bound, slack >= -1e-11."""
    for n in SWEEP_N:
        chain = [sweep.regular[n]]
        for r in range(5):
            if (n, r) in sweep.family_areas:
                chain.append(sweep.family_areas[(n, r)])
        chain.append(sweep.optimal_areas[n])
        chain.append(sweep.upper[n])
        for lo, hi in zip(chain, chain[1:]):
            assert hi - lo >= -1e-11, f"ordering violated at n={n}: {lo} !<= {hi}"
        assert sweep.regular[n] < sweep.optimal_areas[n] < sweep.upper[n]
    print("\ncriterion 8 PASS: area ordering for all computed n")
