"""Exact rational substrate for the whole package.

Every cost, coordinate and constant in kronlab is a `fractions.Fraction`.
This module supplies the distance-to-nearest-integer operator, the angular
max-norm built on it, Bezout coefficients for coprime pairs, and the input
checks every module shares.  Reports render these values in kronlab.cli.
"""
from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence

HALF = Fraction(1, 2)


class NonCoprimeError(ValueError):
    """Raised when a Bezout pair is requested for non-coprime inputs."""


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


def nearest_int(u: Fraction) -> int:
    """Integer nearest to ``u``; exact half-integers round down."""
    u = _checked_target(u)
    return _nearest_ratio(u.numerator, u.denominator)[0]


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
    A zero denominator ("1/0") raises ValueError like any other bad string.
    """
    if isinstance(t, bool) or not isinstance(t, (int, Fraction, str)):
        raise ValueError(f"targets must be int, Fraction or str, got {t!r}")
    try:
        return t if type(t) is Fraction else Fraction(t)
    except ZeroDivisionError:
        raise ValueError(f"target {t!r} has a zero denominator") from None


def nearest_int_distance(u: Fraction) -> Fraction:
    """Distance from ``u`` to the nearest integer, in [0, 1/2].

    Periodic with period 1 and even: the same value is returned for
    ``u``, ``-u`` and ``u + k`` for any integer ``k``.
    """
    u = _checked_target(u)
    r = u - math.floor(u)
    return min(r, 1 - r)


def angular_norm(v: Sequence[Fraction] | Iterable[Fraction]) -> Fraction:
    """Max over components of the nearest-integer distance.

    Raises ValueError on an empty vector.
    """
    items = [nearest_int_distance(c) for c in v]
    if not items:
        raise ValueError("angular_norm of an empty vector")
    return max(items)


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
        raise NonCoprimeError(f"gcd({a}, {b}) != 1")
    if b == 1:
        return 1, a - 1
    g = pow(a, -1, b)
    h = (a * g - 1) // b
    return g, h

