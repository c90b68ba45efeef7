"""Shared numeric constants: exact Bernoulli numbers and desk-scale guards."""

import math
from fractions import Fraction


def _bernoulli_numbers(nmax):
    """B_0..B_nmax as exact rationals from the integer tangent numbers T_n
    (Knuth & Buckholtz 1967): B_2n = (-1)^(n-1) 2n T_n / (4^n (4^n - 1))."""
    m = nmax // 2
    # tangent numbers T_1..T_m in place, Brent & Zimmermann's recurrence
    T = [0, 1] + [0] * (m - 1)
    for k in range(2, m + 1):
        T[k] = (k - 1) * T[k - 1]
    for k in range(2, m + 1):
        for j in range(k, m + 1):
            T[j] = (j - k) * T[j - 1] + (j - k + 2) * T[j]
    bs = [Fraction(1), Fraction(-1, 2)] + [Fraction(0)] * (nmax - 1)
    for n in range(1, m + 1):
        bs[2 * n] = Fraction((-1) ** (n - 1) * 2 * n * T[n], 4**n * (4**n - 1))
    return bs[: nmax + 1]


# B_0 .. B_60, exact.  Only the even ones are nonzero past B_1.
BERNOULLI = _bernoulli_numbers(60)

TWO_PI = 2.0 * math.pi
LOG_2PI_E = math.log(2.0 * math.pi * math.e)

# Desk-scale guards: heights past this are refused rather than degraded.
MAX_HEIGHT = 1.0e4
MIN_TARGET_ERR = 1.0e-13
