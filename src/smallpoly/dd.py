"""Double-double arithmetic for the handful of accumulations that need it.

The area of a near-optimal polygon sits within 1e-9 of pi/4 for large n, so
extracting the deficit pi/4 - A in plain doubles leaves only rounding noise.
A pair-of-doubles representation (Dekker/Knuth error-free transforms, no fma
required) carries roughly 32 significant digits, which is enough to make the
asymptotic least-squares fits limited by model truncation instead of rounding.
"""

from __future__ import annotations

import math

_SPLITTER = 134217729.0  # 2**27 + 1


def two_sum(a: float, b: float) -> tuple[float, float]:
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def _split(a: float) -> tuple[float, float]:
    t = _SPLITTER * a
    hi = t - (t - a)
    return hi, a - hi


def two_prod(a: float, b: float) -> tuple[float, float]:
    p = a * b
    ah, al = _split(a)
    bh, bl = _split(b)
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


class DD:
    """An unevaluated sum hi + lo with |lo| <= ulp(hi)/2."""

    __slots__ = ("hi", "lo")

    def __init__(self, hi: float, lo: float = 0.0):
        self.hi = hi
        self.lo = lo

    def __repr__(self):
        return f"DD({self.hi!r}, {self.lo!r})"

    def __add__(self, other):
        o = other if isinstance(other, DD) else DD(float(other))
        s, e = two_sum(self.hi, o.hi)
        e += self.lo + o.lo
        hi, lo = two_sum(s, e)
        return DD(hi, lo)

    __radd__ = __add__

    def __neg__(self):
        return DD(-self.hi, -self.lo)

    def __sub__(self, other):
        o = other if isinstance(other, DD) else DD(float(other))
        return self + DD(-o.hi, -o.lo)

    def __rsub__(self, other):
        return DD(float(other)) + (-self)

    def __mul__(self, other):
        o = other if isinstance(other, DD) else DD(float(other))
        p, e = two_prod(self.hi, o.hi)
        e += self.hi * o.lo + self.lo * o.hi
        hi, lo = two_sum(p, e)
        return DD(hi, lo)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = other if isinstance(other, DD) else DD(float(other))
        q1 = self.hi / o.hi
        rem = self - o * DD(q1)
        q2 = rem.hi / o.hi
        hi, lo = two_sum(q1, q2)
        return DD(hi, lo)

    def to_float(self) -> float:
        return self.hi + self.lo


PI = DD(3.141592653589793, 1.2246467991473532e-16)
HALF_PI = DD(1.5707963267948966, 6.123233995736766e-17)
QUARTER_PI = DD(0.7853981633974483, 3.061616997868383e-17)

# sin(b) - tan(b/2) = b/2 - 5 b^3/24 + b^5/240 - 5 b^7/8064 - 29 b^9/725760 - ...
_SIN_MINUS_HALFTAN_FRACTIONS = (
    (1, 2),
    (-5, 24),
    (1, 240),
    (-5, 8064),
    (-29, 725760),
    (-139, 31933440),
)
# the same coefficients as double-doubles, highest order first for Horner
_SIN_MINUS_HALFTAN = tuple(
    DD(float(num)) / DD(float(den)) for num, den in reversed(_SIN_MINUS_HALFTAN_FRACTIONS)
)


def sin_minus_half_tan(beta: DD) -> DD:
    """sin(beta) - tan(beta/2) without cancellation.

    Uses the Taylor series for |beta| < 0.02 (truncation below 1e-25 relative)
    and the identity tan(beta/2)*cos(beta) otherwise, which is exact algebra
    but only double-accurate.
    """
    if abs(beta.hi) < 0.02:
        b2 = beta * beta
        acc = _SIN_MINUS_HALFTAN[0]
        for coeff in _SIN_MINUS_HALFTAN[1:]:
            acc = acc * b2 + coeff
        return acc * beta
    b = beta.to_float()
    return DD(math.tan(b / 2) * math.cos(b))
