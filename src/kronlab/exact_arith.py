"""Exact rational substrate for the whole package.

Every cost, coordinate and constant in kronlab is a `fractions.Fraction`.
This module supplies nearest-integer rounding with the package's one tie
rule, Bezout coefficients for coprime pairs, and the input checks every
module shares.  It has no distance or norm helper: each layer computes the
residual distances it needs in integers (the pair solver and the certificates
through ``_nearest_ratio``, the oracle on its own grids).  Reports render
these values in kronlab.cli.
"""
from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

HALF = Fraction(1, 2)

#: _checked_target refuses a decimal exponent above this, Python's default
#: limit on the digits of an int string: Fraction would build 10**exponent
#: first, in time that grows faster than the exponent.
MAX_EXPONENT_DIGITS = 4300


def _nearest_ratio(num: int, den: int) -> tuple[int, int]:
    """(k, r) for the rational num/den (den > 0): k is the integer nearest
    to it, exact halves rounding down, and r = |num - k*den|, so the
    distance to k is r/den.

    The one home of the downward tie rule, which keeps every construction
    in the package deterministic (certificates, oracle k-vectors, window
    picks).
    """
    k, r = divmod(num, den)
    if 2 * r > den:
        return k + 1, den - r
    return k, r


def _checked_spectrum(spectrum: Sequence[int]) -> tuple[int, ...]:
    """The spectrum as a tuple, if it is strictly increasing positive ints."""
    spectrum = tuple(spectrum)
    if any(isinstance(nj, bool) or not isinstance(nj, int) for nj in spectrum):
        raise ValueError(f"frequencies must be integers: {spectrum!r}")
    if len(spectrum) < 1:
        raise ValueError("spectrum must be non-empty")
    if spectrum[0] < 1 or any(x >= y for x, y in zip(spectrum, spectrum[1:])):
        raise ValueError(f"spectrum must be strictly increasing positive: {spectrum}")
    return spectrum


def _checked_coprime(spectrum: Sequence[int]) -> tuple[int, ...]:
    """_checked_spectrum, plus gcd(n_1, n_2) = 1: the pair and triple problems."""
    spectrum = _checked_spectrum(spectrum)
    a, b = spectrum[:2]
    if math.gcd(a, b) != 1:
        raise ValueError(f"gcd({a}, {b}) != 1")
    return spectrum


def _checked_target(t) -> Fraction:
    """An exact target: int, Fraction or a string Fraction parses ("1/10", "0.1").

    Floats are refused: 0.1 would silently become 3602879701896397/2^55.
    A zero denominator ("1/0") raises ValueError like any other bad string,
    and so does a decimal exponent above MAX_EXPONENT_DIGITS ("1e-5000"),
    before Fraction parses the string.
    """
    if isinstance(t, bool) or not isinstance(t, (int, Fraction, str)):
        raise ValueError(f"targets must be int, Fraction or str, got {t!r}")
    if isinstance(t, str):
        exponent = t.upper().partition("E")[2].strip().lstrip("+-").replace("_", "").lstrip("0")
        if exponent.isdecimal() and (len(exponent) > 4 or int(exponent) > MAX_EXPONENT_DIGITS):
            raise ValueError(f"target {t!r} has a decimal exponent above the limit of "
                             f"MAX_EXPONENT_DIGITS = {MAX_EXPONENT_DIGITS}")
    try:
        return t if type(t) is Fraction else Fraction(t)
    except ZeroDivisionError:
        raise ValueError(f"target {t!r} has a zero denominator") from None


def bezout_coprime(a: int, b: int) -> tuple[int, int]:
    """Canonical (g, h) with a*g - b*h = 1 for coprime positive a, b.

    g is the least positive integer with a*g == 1 (mod b); for b == 1 the
    degenerate pair (1, a-1) is returned so the identity still holds.
    Raises ValueError on a bool or non-int argument.
    """
    if any(isinstance(v, bool) or not isinstance(v, int) for v in (a, b)):
        raise ValueError(f"bezout_coprime needs integers, got ({a!r}, {b!r})")
    if a < 1 or b < 1:
        raise ValueError(f"bezout_coprime needs positive integers, got ({a}, {b})")
    if math.gcd(a, b) != 1:
        raise ValueError(f"gcd({a}, {b}) != 1")
    if b == 1:
        return 1, a - 1
    g = pow(a, -1, b)
    h = (a * g - 1) // b
    return g, h

