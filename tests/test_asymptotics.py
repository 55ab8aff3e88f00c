import math

import numpy as np
import pytest

from smallpoly.asymptotics import (
    A1_CLOSED_FORM,
    DEGREE8_Q3,
    GAP_LINK_CLOSED_FORM,
    Q1_CLOSED_FORM,
    QUARTIC_Q2,
    CubicObjective,
    estimate_q_numeric,
    evaluate_certificate,
    minimize_cubic,
    theorem_constants,
    verify_certificates,
)
from smallpoly.reduced import ReducedParams, area_deficit, derive
from smallpoly.reference import ASYMPTOTIC_COEFFS, coeff_row

# deficits of the one-free-parameter-less family (r = 0) computed with
# 50-digit decimal arithmetic, rounded once to double
R0_DEFICIT_ORACLE = {
    1000: 4.524986860581241e-09,
    50000: 3.617450757912052e-14,
}


class TestCubics:
    def test_gradients_match_fd(self):
        rng = np.random.default_rng(3)
        for r in (1, 2, 3):
            cubic = CubicObjective(r)
            for _ in range(5):
                x = rng.uniform(0.1, 0.9, cubic.dim)
                g = cubic.gradient(x)
                h = 1e-6
                for i in range(cubic.dim):
                    xp, xm = x.copy(), x.copy()
                    xp[i] += h
                    xm[i] -= h
                    fd = (cubic.value(xp) - cubic.value(xm)) / (2 * h)
                    assert g[i] == pytest.approx(fd, rel=1e-6, abs=1e-4)

    def test_hessian_matches_fd(self):
        cubic = CubicObjective(3)
        x = np.array([0.6, 1.0, 0.07])
        H = cubic.hessian(x)
        h = 1e-5
        for i in range(3):
            xp, xm = x.copy(), x.copy()
            xp[i] += h
            xm[i] -= h
            col = (cubic.gradient(xp) - cubic.gradient(xm)) / (2 * h)
            assert np.allclose(H[:, i], col, atol=1e-5)

    def test_table_normalization(self):
        # the tabulated limits evaluated through the cubic reproduce q_r
        for r in (1, 2, 3):
            row = coeff_row(r)
            point = [row.a, *row.b, *row.c][: r]
            assert CubicObjective(r).value(point) / 192.0 == pytest.approx(
                row.q, abs=1e-12
            )

    def test_domain(self):
        with pytest.raises(ValueError):
            CubicObjective(4)


class TestMinimizeCubic:
    def test_r1(self):
        q, x = minimize_cubic(1)
        assert q == pytest.approx(coeff_row(1).q, abs=1e-12)
        assert x[0] == pytest.approx(coeff_row(1).a, abs=1e-9)
        assert q == pytest.approx(Q1_CLOSED_FORM, abs=1e-13)
        assert x[0] == pytest.approx(A1_CLOSED_FORM, abs=1e-13)

    def test_r2(self):
        q, x = minimize_cubic(2)
        assert q == pytest.approx(0.1156971503834968, abs=1e-12)
        assert x[0] == pytest.approx(0.6554858160, abs=1e-9)
        assert x[1] == pytest.approx(1.0227183748, abs=1e-9)

    def test_r3(self):
        q, x = minimize_cubic(3)
        assert q == pytest.approx(0.1150899130453658, abs=1e-12)
        row = coeff_row(3)
        assert x == pytest.approx([row.a, row.b[0], row.c[0]], abs=1e-9)


class TestCertificates:
    def test_report(self):
        report = verify_certificates()
        assert abs(report.quartic_residual) <= 1e-12
        assert abs(report.degree8_residual) <= 1e-12
        assert abs(report.q1_delta) <= 1e-13
        assert abs(report.a1_delta) <= 1e-13
        assert abs(report.gap_link_delta) <= 1e-13
        assert report.all_passed

    def test_quartic_sensitivity(self):
        q2, _ = minimize_cubic(2)
        assert abs(evaluate_certificate(QUARTIC_Q2, q2 + 1e-3)) > 1e-7

    def test_degree8_sensitivity(self):
        q3, _ = minimize_cubic(3)
        assert abs(evaluate_certificate(DEGREE8_Q3, q3 + 1e-3)) > 1e-7

    def test_gap_link_closed_form(self):
        assert Q1_CLOSED_FORM - 1.0 / 24.0 == pytest.approx(
            GAP_LINK_CLOSED_FORM, abs=1e-16
        )


class TestReferenceTable:
    def test_q_strictly_decreasing(self):
        qs = [row.q for row in ASYMPTOTIC_COEFFS]
        assert all(hi > lo for hi, lo in zip(qs, qs[1:]))

    def test_q0_exact(self):
        assert ASYMPTOTIC_COEFFS[0].q == pytest.approx(7.0 / 48.0, abs=1e-16)

    def test_row_lookup(self):
        assert coeff_row(16).q == 0.1150549835233261
        with pytest.raises(ValueError):
            coeff_row(17)


class TestDeficit:
    def test_r0_against_decimal_oracle(self):
        # double trig of the small arguments limits agreement to ~2e-19
        for n, oracle in R0_DEFICIT_ORACLE.items():
            p = derive(ReducedParams(n=n, r=0, alpha=math.pi / (2 * n - 2)))
            assert area_deficit(p) == pytest.approx(oracle, abs=5e-19)


class TestEstimateQ:
    def test_r0_small_grid(self):
        fit = estimate_q_numeric(0, (1000, 2000, 5000, 10000))
        assert fit.q_estimate == pytest.approx(7.0 / 48.0, abs=1e-7)
        assert fit.d is not None

    def test_r1_small_grid(self):
        fit = estimate_q_numeric(1, (1000, 2000, 5000, 10000))
        assert fit.q_estimate == pytest.approx(Q1_CLOSED_FORM, abs=1e-5)

    def test_monotone_in_r(self):
        grid = (1000, 2000, 5000)
        qs = [estimate_q_numeric(r, grid).q_estimate for r in range(5)]
        for hi, lo in zip(qs, qs[1:]):
            assert lo < hi + 1e-7

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            estimate_q_numeric(0, (1000,))
        with pytest.raises(ValueError):
            estimate_q_numeric(0, (2000, 1000))
        with pytest.raises(ValueError):
            estimate_q_numeric(0, (999, 2000))
        with pytest.raises(ValueError):
            estimate_q_numeric(3, (8, 100))
        with pytest.raises(ValueError):
            estimate_q_numeric(17, (1000, 2000))

    def test_scaled_parameters_converge(self):
        # the optimal alpha approaches its scaled limit like a/n
        from smallpoly.reduced import construct_Q

        _, _, params = construct_Q(10000, 1)
        assert params.alpha * 10000 / math.pi == pytest.approx(
            A1_CLOSED_FORM, abs=1e-3
        )

    def test_expansion_consistency(self):
        # deficit minus the fitted 1/n^3 term scales like 1/n^4
        from smallpoly.reduced import construct_Q

        scaled = []
        for n in (100, 1000):
            _, _, params = construct_Q(n, 1)
            deficit = area_deficit(params)
            rest = deficit - Q1_CLOSED_FORM * math.pi**3 / n**3
            scaled.append(rest * n**4)
        assert 0.3 < scaled[0] / scaled[1] < 3.0


class TestTheoremConstants:
    def test_report(self):
        report = theorem_constants()
        assert report.delta == pytest.approx(0.0733883168566594, abs=1e-12)
        assert abs(report.delta_reference_error) <= 1e-9
        assert report.delta < report.upper_coefficient
        assert report.separation > report.separation_floor
        assert report.all_passed

    def test_values(self):
        report = theorem_constants()
        assert report.upper_coefficient == pytest.approx(8.0 / 109.0, abs=1e-16)
        assert report.separation == pytest.approx(0.0013796440720117, abs=1e-15)
        assert report.separation_floor == pytest.approx(1.0 / 725.0, abs=1e-16)
