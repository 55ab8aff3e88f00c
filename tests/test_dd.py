import pytest

from smallpoly import dd


def test_taylor_coefficients_are_the_fractions():
    # stored highest order first, for Horner's rule
    fractions = reversed(dd._SIN_MINUS_HALFTAN_FRACTIONS)
    for coeff, (num, den) in zip(dd._SIN_MINUS_HALFTAN, fractions, strict=True):
        ref = dd.DD(float(num)) / dd.DD(float(den))
        assert (coeff.hi, coeff.lo) == (ref.hi, ref.lo)


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_sin_minus_half_tan_matches_mpmath(sign):
    """The Taylor branch, |beta| < 0.02, against 200-bit arithmetic.

    Up to |beta| = 0.008 the double-double rounding dominates and the value
    is good to 1e-30 relative; towards 0.02 the truncated series dominates
    (about 4e-27 there), still inside the documented 1e-25.
    """
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.prec = 200
    for b in (1e-9, 1e-6, 1e-4, 1e-3, 0.004, 0.008, 0.012, 0.016, 0.0199):
        beta = dd.DD(sign * b, sign * b * 3.3e-17)
        got = dd.sin_minus_half_tan(beta)
        exact = mpmath.mpf(beta.hi) + mpmath.mpf(beta.lo)
        ref = mpmath.sin(exact) - mpmath.tan(exact / 2)
        rel = abs(mpmath.mpf(got.hi) + mpmath.mpf(got.lo) - ref) / abs(ref)
        assert rel <= (1e-30 if b <= 0.008 else 1e-25), b
