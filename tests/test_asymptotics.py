import dataclasses
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from smallpoly import asymptotics
from smallpoly.asymptotics import (
    A1_CLOSED_FORM,
    CUBIC_BOX,
    CUBICS,
    DEGREE8_Q3,
    GAP_LINK_CLOSED_FORM,
    Q1_CLOSED_FORM,
    QUARTIC_Q2,
    estimate_q_numeric,
    evaluate_certificate,
    minimize_cubic,
    poly_derivative,
    poly_value,
    theorem_constants,
    verify_certificates,
)
from smallpoly.reduced import ReducedParams, area_deficit
from smallpoly.reference import ASYMPTOTIC_COEFFS, coeff_row
from smallpoly.solver import STOP_CONVERGED

# deficits of the one-free-parameter-less family (r = 0) computed with
# 50-digit decimal arithmetic, rounded once to double
R0_DEFICIT_ORACLE = {
    1000: 4.524986860581241e-09,
    50000: 3.617450757912052e-14,
}


def factored_cubic(r, x):
    """The scaled-limit cubics as first written, in factored form."""
    if r == 1:
        (a,) = x
        return 88 * a**3 + 84 * a**2 - 222 * a + 107
    if r == 2:
        a, b = x
        return (88 * a**3 + 12 * a**2 * (8 * b - 1) - 6 * a * (16 * b**2 + 21)
                + 128 * b**3 - 48 * b**2 - 216 * b + 243)
    a, b, c = x
    return (88 * a**3 + 12 * a**2 * (16 * b - 12 * c + 7)
            - 6 * a * (32 * b**2 + 64 * b * c - 80 * c**2 + 56 * c + 37)
            + 128 * b**3 + 192 * b**2 * c + 384 * b * c**2 - 384 * c**3
            + 336 * c**2 - 240 * b + 204 * c + 267)


def gradient(r, x):
    return np.array([poly_value(poly_derivative(CUBICS[r], i), x) for i in range(r)])


class TestCubics:
    def test_tables_equal_the_factored_cubics(self):
        # a polynomial of degree at most 3 in each variable is fixed by its
        # values on a 4 x 4 x 4 grid, so exact agreement there is equality
        nodes = [Fraction(-1), Fraction(1, 3), Fraction(2), Fraction(7, 5)]
        for r, table in CUBICS.items():
            assert len(table) == {1: 4, 2: 9, 3: 17}[r]
            for x in itertools.product(nodes, repeat=r):
                exact = sum(c * math.prod(map(pow, x, e)) for e, c in table.items())
                assert exact == factored_cubic(r, x), (r, x)

    def test_gradients_match_fd(self):
        rng = np.random.default_rng(3)
        for r in (1, 2, 3):
            for _ in range(5):
                x = rng.uniform(0.1, 0.9, r)
                g = gradient(r, x)
                h = 1e-6
                for i in range(r):
                    xp, xm = x.copy(), x.copy()
                    xp[i] += h
                    xm[i] -= h
                    fd = (poly_value(CUBICS[r], xp) - poly_value(CUBICS[r], xm)) / (2 * h)
                    assert g[i] == pytest.approx(fd, rel=1e-6, abs=1e-4)

    def test_hessian_matches_fd(self):
        x = np.array([0.6, 1.0, 0.07])
        H = np.array([
            [poly_value(poly_derivative(poly_derivative(CUBICS[3], i), j), x) for j in range(3)]
            for i in range(3)
        ])
        h = 1e-5
        for i in range(3):
            xp, xm = x.copy(), x.copy()
            xp[i] += h
            xm[i] -= h
            col = (gradient(3, xp) - gradient(3, xm)) / (2 * h)
            assert np.allclose(H[:, i], col, atol=1e-5)

    def test_table_normalization(self):
        # the tabulated limits evaluated through the cubic reproduce q_r
        for r in (1, 2, 3):
            row = coeff_row(r)
            point = [row.a, *row.b, *row.c][: r]
            assert poly_value(CUBICS[r], point) / 192.0 == pytest.approx(row.q, abs=1e-12)

    def test_domain(self):
        with pytest.raises(ValueError):
            minimize_cubic(4)

    @pytest.mark.parametrize("r", [True, False, 1.0, 2.0, "1", None])
    def test_r_is_checked_as_the_family_checks_it(self, r):
        # a bool is not an r (True would solve as r = 1) and a float is
        # refused rather than failing in the slicing of CUBIC_BOX
        with pytest.raises(ValueError, match="r must be an integer"):
            minimize_cubic(r)

    def test_a_numpy_integer_r_passes(self):
        q, x = minimize_cubic(np.int64(2))
        q2, x2 = minimize_cubic(2)
        assert q == q2 and x.tobytes() == x2.tobytes()


@pytest.mark.parametrize("r", [1, 2, 3])
def test_derivative_terms_are_the_derivative_tables_bit_for_bit(r):
    # the kernel's gradient and Hessian, from terms over shared monomials,
    # against poly_value of each poly_derivative table, on 1000 points
    # around the box
    rng = np.random.default_rng(r)
    lo, hi = np.array(CUBIC_BOX[0][:r]), np.array(CUBIC_BOX[1][:r])
    grad = [poly_derivative(CUBICS[r], i) for i in range(r)]
    for x in rng.uniform(lo - 0.5, hi + 0.5, size=(1000, r)):
        g, hessian = asymptotics._cubic_derivatives(r, x)
        hess = [[poly_value(poly_derivative(t, j), x) for j in range(r)] for t in grad]
        assert np.array(g).tobytes() == np.array([poly_value(t, x) for t in grad]).tobytes()
        assert np.array(hessian()).tobytes() == np.array(hess).tobytes()


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

    def test_each_solve_converges_in_a_few_evaluations(self, monkeypatch):
        diagnostics = []
        real = asymptotics.maximize_box

        def spy(problem, start):
            result = real(problem, start)
            diagnostics.append(result[2])
            return result

        monkeypatch.setattr(asymptotics, "maximize_box", spy)
        for r in (1, 2, 3):
            minimize_cubic(r)
        assert [d.stop_reason for d in diagnostics] == [STOP_CONVERGED] * 3
        assert all(d.nfev <= 8 for d in diagnostics), [d.nfev for d in diagnostics]


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
            p = ReducedParams(n=n, r=0, alpha=math.pi / (2 * n - 2))
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

    def test_every_q_within_1e_8_on_the_acceptance_grid(self):
        # the pi^5/n^5 term, left out of a two-term fit, pulled every
        # q_1..q_16 about 2e-7 low there
        grid = (1000, 2000, 5000, 10000, 20000, 50000)
        misses = [estimate_q_numeric(r, grid).q_estimate - coeff_row(r).q for r in range(17)]
        assert max(map(abs, misses)) <= 1e-8, misses

    def test_every_q_within_1e_4_past_n_1e5(self):
        # there the pi^5/n^5 term is below the deficits' rounding, so the fit
        # is noisier: the worst miss is 5.94e-5, at r = 13
        grid = (100000, 200000, 400000, 800000)
        misses = [estimate_q_numeric(r, grid).q_estimate - coeff_row(r).q for r in range(17)]
        assert max(map(abs, misses)) <= 1e-4, misses

    def test_grid_validation(self):
        # three coefficients need three points
        for grid in ((1000,), (1000, 2000)):
            with pytest.raises(ValueError, match="need at least three grid points"):
                estimate_q_numeric(0, grid)
        with pytest.raises(ValueError, match="strictly increasing"):
            estimate_q_numeric(0, (2000, 1000, 5000))
        with pytest.raises(ValueError, match="n must be even"):
            estimate_q_numeric(0, (999, 2000, 5000))
        with pytest.raises(ValueError):
            estimate_q_numeric(3, (8, 100, 200))
        with pytest.raises(ValueError):
            estimate_q_numeric(17, (1000, 2000, 5000))

    def test_grid_entries_must_be_integers(self):
        # a float entry is refused as best_params refuses it, not truncated
        # to the next integer below
        with pytest.raises(ValueError, match="n must be an integer, got 1000.7"):
            estimate_q_numeric(1, (1000.7, 2000, 5000.2))
        with pytest.raises(ValueError, match="n must be an integer, got 2000.0"):
            estimate_q_numeric(1, (1000, 2000.0, 5000))
        # numpy integers pass and the grid is reported in Python ints
        fit = estimate_q_numeric(1, np.array([1000, 2000, 5000], dtype=np.int64))
        assert fit == estimate_q_numeric(1, (1000, 2000, 5000))
        assert all(type(n) is int for n in fit.n_grid)

    def test_grid_past_1e5_is_refused(self):
        # past n = 1e6 the plain-double prefix terms leave the deficit up to
        # 16% off; below it the root solve resolves it (test_reduced's
        # test_deficit_resolved_to_n_1e6), so only n > 1e6 is refused
        with pytest.raises(ValueError, match="leaves the deficit up to 16% off"):
            estimate_q_numeric(4, (200000, 400000, 800000, 1600000))
        with pytest.raises(ValueError, match="at most 1000000, got 1000002"):
            estimate_q_numeric(4, (20000, 50000, 1000002))
        fit = estimate_q_numeric(4, (1000, 2000, 5000, 10000, 20000, 50000))
        assert fit.q_estimate == pytest.approx(coeff_row(4).q, abs=1e-5)
        # a grid past 1e5 fits q_4 to 1.85e-5 (every q_0..q_16 to 5.9e-5): there
        # the pi^5/n^5 term is below the deficits' rounding, so it fits noise
        fit = estimate_q_numeric(4, (100000, 200000, 400000, 800000))
        assert fit.q_estimate == pytest.approx(coeff_row(4).q, abs=2e-5)

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
        # the code's own q_16, fit on the acceptance grid, for display
        assert report.q16_estimate_error == report.q16_estimate - coeff_row(16).q
        assert abs(report.q16_estimate_error) <= 1e-8

    def test_values(self):
        report = theorem_constants()
        assert report.upper_coefficient == pytest.approx(8.0 / 109.0, abs=1e-16)
        assert report.separation == pytest.approx(0.0013796440720117, abs=1e-15)
        assert report.separation_floor == pytest.approx(1.0 / 725.0, abs=1e-16)

    def test_q1_bound_is_proved_and_tight(self):
        report = theorem_constants()
        s = report.sqrt114_upper
        # above sqrt(114), by at most 10^-SQRT114_DIGITS
        step = Fraction(1, 10**asymptotics.SQRT114_DIGITS)
        assert isinstance(s, Fraction) and (s - step) ** 2 <= 114 < s * s
        assert report.q1_lower == (5545 - 456 * s) / 5808
        # below q_1's closed form, by less than 1e-12
        assert 0.0 < Q1_CLOSED_FORM - float(report.q1_lower) < 1e-12
        q16 = Fraction(coeff_row(16).q)
        assert report.separation_margin == report.q1_lower - q16 - Fraction(1, 725)
        assert report.separation_proved
        assert float(report.separation_margin) == pytest.approx(3.34e-7, rel=1e-2)

    @staticmethod
    def tabulated(monkeypatch, r, dq):
        """Serve ``theorem_constants`` a tabulated q_r moved by dq."""
        real = asymptotics.coeff_row
        moved = dataclasses.replace(real(r), q=real(r).q + dq)
        monkeypatch.setattr(asymptotics, "coeff_row", lambda k: moved if k == r else real(k))

    def test_no_float_decides_the_separation(self, monkeypatch):
        # a tabulated q_1 lowered by 1e-3 fails the float comparison, but
        # the proof reads q_1's closed form, not the table
        self.tabulated(monkeypatch, 1, -1e-3)
        report = theorem_constants()
        assert not report.separation > report.separation_floor
        assert isinstance(report.separation_margin, Fraction)
        assert report.separation_proved and report.all_passed

    def test_raised_q16_fails_the_separation(self, monkeypatch):
        # the margin is 3.3e-7, so q_16 + 1e-6 is not separated from q_1
        self.tabulated(monkeypatch, 16, 1e-6)
        report = theorem_constants()
        assert report.separation_margin < 0
        assert not report.separation_proved and not report.all_passed
