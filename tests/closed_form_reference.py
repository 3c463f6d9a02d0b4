"""The paper's closed forms for a triple {a, b, n}, one rational expression
per case, as the library once wrote them out: four alpha cases keyed on R,
beta's R = a case, a three-row binary table for t3 = 0 and a four-row one
for t3 = 1/2, both keyed on S.

The library reads all of them from one table (``closed_form._row``);
tests/test_closed_form.py checks the two against each other.  R and S are
taken from ``TripleConstants.congruence``, whose own invariants are tested
separately.  Each table function returns (value, row type).
"""
from fractions import Fraction

HALF = Fraction(1, 2)


def ln(a: int, b: int, n: int) -> Fraction:
    return Fraction(n + a * b, 2 * (a * n + b * n + a * b))


def alpha(a: int, b: int, n: int, R: int) -> Fraction:
    m = a + b
    if R < a:
        return Fraction(n + a * a + a * b - a * R, 2 * m * (a + n))
    if R == a:
        return ln(a, b, n)
    if R <= 2 * a:
        return Fraction(n + b * R, 2 * m * (b + n))
    return Fraction(n + 2 * a * a + 2 * a * b - a * R, 2 * m * (a + n))


def beta(a: int, b: int, n: int, R: int) -> Fraction:
    if R == a:
        return Fraction(n + a * b, 2 * (a + b) * (a + n))
    return alpha(a, b, n, R)


def binary(a: int, b: int, n: int, S: int, t3: Fraction) -> tuple[Fraction, str]:
    m = a + b
    if t3 == 0:
        if S in (0, 1, 2 * m - 1):
            return Fraction(1, 2 * m), "type-1"
        if 2 <= S <= 2 * a:
            return Fraction(n + b * S, 2 * m * (b + n)), "type-3"
        return Fraction(n + 2 * a * a + 2 * a * b - a * S, 2 * m * (a + n)), "type-2"
    if t3 == HALF:
        if S in (m - 1, m, m + 1):
            return Fraction(1, 2 * m), "type-1"
        if S < m - 1:
            return Fraction(n + a * a + a * b - a * S, 2 * m * (a + n)), "type-2"
        if S <= 3 * a + b:
            return Fraction(n - a * b - b * b + b * S, 2 * m * (b + n)), "type-3"
        return Fraction(n + 3 * a * a + 3 * a * b - a * S, 2 * m * (a + n)), "type-2"
    raise ValueError(f"t3 must be 0 or 1/2, got {t3}")
