"""The 30-digit reference ratio of delim(exp(1,2),exp(1,3)) at s = 1 + 2^-13.

Row m of the band holds the columns 2^m..3^m, so its series is

    S = sum_m m^-s (zeta(s, 2^m) - zeta(s, 3^m + 1)),

one Hurwitz tail per row.  Past row M = 200 the Euler-Maclaurin form
zeta(s, a) = a^(1-s)/(s-1) + O(a^-s) holds to a relative 2^-200, and 3^m + 1
may be taken as 3^m to a relative 3^-200, so those rows sum to

    (Li_s(2^(1-s)) - Li_s(3^(1-s))) / (s-1)

less the polylogarithms' first M terms.  The ratio is S / zeta(s)^2.  Moving
M to 300, or taking the far rows as Lerch transcendents x^(M+1) Phi(x, s, M+1)
in place of the polylogarithms, changes none of the 40 digits printed.

Run ``python tests/exp_band_reference.py``; test_series.py freezes the
first 30 digits.
"""

import mpmath

M = 200


def reference(s) -> mpmath.mpf:
    with mpmath.workdps(60):
        s = mpmath.mpf(s)
        head = mpmath.fsum(mpmath.mpf(m) ** -s * (mpmath.zeta(s, 2 ** m) - mpmath.zeta(s, 3 ** m + 1))
                           for m in range(1, M + 1))
        far = []
        for base in (2, 3):
            x = mpmath.mpf(base) ** (1 - s)
            far.append(mpmath.polylog(s, x)
                       - mpmath.fsum(mpmath.mpf(m) ** -s * x ** m for m in range(1, M + 1)))
        return +((head + (far[0] - far[1]) / (s - 1)) / mpmath.zeta(s) ** 2)


if __name__ == "__main__":
    print(mpmath.nstr(reference(1 + mpmath.mpf(2) ** -13), 40))
