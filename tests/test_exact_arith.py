import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from kronlab.closed_form import alpha_formula, triple_constants
from kronlab.exact_arith import (MAX_EXPONENT_DIGITS, _checked_coprime, _checked_spectrum,
                                 _checked_target, _nearest_ratio, bezout_coprime)
from kronlab.greedy_triple import TripleProblem, certificate_at, modify, z_windows
from kronlab.oracle import alpha_grid_lower_bound
from kronlab.pair_solver import PairProblem, best_pair_approx
from oracle_reference import angular_norm, nearest_int, nearest_int_distance

fractions_st = st.fractions(min_value=-20, max_value=20, max_denominator=997)

# every float below is exact in binary and, as a Fraction, a valid input
_P = TripleProblem(1, 2, 4, 0, Fraction(1, 2), 0)
_BA = best_pair_approx(_P.pair())


def test_nearest_int_distance_examples():
    assert nearest_int_distance(Fraction(3, 10)) == Fraction(3, 10)
    assert nearest_int_distance(Fraction(7, 4)) == Fraction(1, 4)
    assert nearest_int_distance(Fraction(-1, 2)) == Fraction(1, 2)


@pytest.mark.parametrize("build", [
    pytest.param(lambda: TripleProblem(1, 2, 100, 0.1, 0, 0), id="triple-float-target"),
    pytest.param(lambda: TripleProblem(1, 2, 100, 0, False, 0), id="triple-bool-target"),
    pytest.param(lambda: TripleProblem(True, 2, 100, 0, 0, 0), id="triple-bool-frequency"),
    pytest.param(lambda: TripleProblem(1, 2, 100.0, 0, 0, 0), id="triple-float-frequency"),
    pytest.param(lambda: TripleProblem(1, 2, 5, "1/0", 0, 0), id="triple-zero-denominator-target"),
    pytest.param(lambda: PairProblem(1, 2, 0.1, 0), id="pair-float-target"),
    pytest.param(lambda: PairProblem(True, 2, 0, 0), id="pair-bool-frequency"),
    pytest.param(lambda: triple_constants(True, 2, 5), id="congruence-bool-frequency"),
    pytest.param(lambda: alpha_formula(1, 2.0, 5), id="alpha-float-frequency"),
    pytest.param(lambda: triple_constants(1, 2, 5.0), id="ln-float-frequency"),
    pytest.param(lambda: triple_constants(1, 2, 5).binary(0.5), id="binary-mu-float-target"),
    pytest.param(lambda: z_windows(_BA, 0.2, _P), id="z-window-float-bound"),
    pytest.param(lambda: z_windows(_BA, True, _P), id="z-window-bool-bound"),
    pytest.param(lambda: certificate_at(_P, 0.1, "oracle"), id="certificate-float-point"),
    pytest.param(lambda: certificate_at(_P, False, "oracle"), id="certificate-bool-point"),
    pytest.param(lambda: modify(_BA, 0.25, _P), id="modify-float-point"),
    pytest.param(lambda: bezout_coprime(True, 2), id="bezout-bool"),
    pytest.param(lambda: bezout_coprime(2.0, 3), id="bezout-float"),
    pytest.param(lambda: alpha_grid_lower_bound((1, 2, 5), 2.0), id="grid-float-resolution"),
    pytest.param(lambda: alpha_grid_lower_bound((1, 2, 5), "4"), id="grid-str-resolution"),
])
def test_every_entry_point_refuses_inexact_input(build):
    with pytest.raises(ValueError):
        build()


def test_problem_types_accept_int_fraction_and_str_targets():
    p = TripleProblem(1, 2, 100, 1, Fraction(1, 3), "0.1")
    assert p.targets() == (Fraction(1), Fraction(1, 3), Fraction(1, 10))
    assert PairProblem(1, 2, "-1/2", 0).t1 == Fraction(-1, 2)


def test_angular_norm_examples():
    assert angular_norm([Fraction(0)] * 3) == 0
    assert angular_norm([Fraction(3, 10), Fraction(7, 4)]) == Fraction(3, 10)
    assert angular_norm([Fraction(1, 2), Fraction(1, 3)]) == Fraction(1, 2)
    with pytest.raises(ValueError):
        angular_norm([])


@given(fractions_st, st.integers(min_value=-50, max_value=50))
def test_distance_periodic_and_even(u, k):
    assert nearest_int_distance(u + k) == nearest_int_distance(u)
    assert nearest_int_distance(-u) == nearest_int_distance(u)


@given(fractions_st)
def test_distance_range_and_half_boundary(u):
    d = nearest_int_distance(u)
    assert 0 <= d <= Fraction(1, 2)
    # 1/2 attained exactly on half-odd-integers
    assert (d == Fraction(1, 2)) == ((2 * u).denominator == 1 and (2 * u) % 2 != 0)


@given(fractions_st)
def test_nearest_int_is_nearest(u):
    k = nearest_int(u)
    assert abs(u - k) == nearest_int_distance(u)
    # downward tie rule
    if u - math.floor(u) == Fraction(1, 2):
        assert k == math.floor(u)


def test_nearest_ratio_examples():
    # exact halves round down, on both signs
    assert _nearest_ratio(5, 2) == (2, 1)
    assert _nearest_ratio(-5, 2) == (-3, 1)
    assert _nearest_ratio(-1, 2) == (-1, 1)
    assert _nearest_ratio(-3, 6) == (-1, 3)
    assert _nearest_ratio(-7, 3) == (-2, 1)
    assert _nearest_ratio(-8, 3) == (-3, 1)
    assert _nearest_ratio(0, 7) == (0, 0)


@given(st.integers(min_value=-10**6, max_value=10**6),
       st.integers(min_value=1, max_value=1000), st.integers(min_value=1, max_value=50))
def test_nearest_ratio_agrees_with_nearest_int(num, den, c):
    u = Fraction(num, den)
    k, r = _nearest_ratio(c * num, c * den)
    assert k == nearest_int(u)
    assert Fraction(r, c * den) == nearest_int_distance(u)


def test_bezout_examples():
    assert bezout_coprime(1, 2) == (1, 0)
    assert bezout_coprime(2, 3) == (2, 1)
    assert bezout_coprime(3, 5) == (2, 1)
    assert bezout_coprime(5, 1) == (1, 4)  # b = 1 degenerate pair


@given(st.integers(min_value=1, max_value=500), st.integers(min_value=1, max_value=500))
def test_bezout_identity_and_canonical_range(a, b):
    if math.gcd(a, b) != 1:
        with pytest.raises(ValueError, match=rf"^gcd\({a}, {b}\) != 1$"):
            bezout_coprime(a, b)
        return
    g, h = bezout_coprime(a, b)
    assert a * g - b * h == 1
    if b > 1:
        assert 1 <= g <= b
        assert g == pow(a, -1, b)


def test_bezout_rejects_nonpositive():
    with pytest.raises(ValueError):
        bezout_coprime(0, 3)
    with pytest.raises(ValueError):
        bezout_coprime(3, -1)


@pytest.mark.parametrize("spectrum", [(), (0, 1), (3, 3), (1, 5, 5), (2, 1), (1, 4, 3)])
def test_spectrum_check_refuses_what_is_not_strictly_increasing_positive(spectrum):
    with pytest.raises(ValueError):
        _checked_spectrum(spectrum)


def test_coprime_check_refuses_every_shared_factor():
    assert _checked_coprime((4, 9, 10)) == (4, 9, 10)
    for a, b in [(2, 4), (3, 6), (4, 6), (6, 9), (5, 10)]:
        with pytest.raises(ValueError, match=rf"^gcd\({a}, {b}\) != 1$"):
            _checked_coprime((a, b, 100))


@given(st.integers(-10**6, 10**6), st.integers(1, 10**4),
       st.integers(-10**6, 10**6), st.integers(1, 10**4))
def test_fraction_arithmetic_matches_integer_arithmetic(p, q, r, s):
    left = Fraction(p, q) + Fraction(r, s)
    num, den = p * s + r * q, q * s
    shrink = math.gcd(num, den)
    assert (left.numerator, left.denominator) == (num // shrink, den // shrink)


def test_parse_rational_forms():
    # every string target (library or CLI) is parsed by _checked_target
    assert _checked_target("3/10") == Fraction(3, 10)
    assert _checked_target("-7") == Fraction(-7)
    assert _checked_target("0.25") == Fraction(1, 4)
    assert _checked_target(" 1/2 ") == Fraction(1, 2)
    with pytest.raises(ValueError):
        _checked_target("one half")


@pytest.mark.parametrize("text", [
    "1e-5000", "1E+5000", " 2.5e-4301 ", "1e0_5000", "1e-00004301", "1e99999",
    pytest.param("1e" + "9" * 5000, id="5000-digit-exponent"),
])
def test_decimal_exponent_above_the_limit_is_refused_before_parsing(text):
    # Fraction builds 10**exponent first: "1e-10000000" takes seconds
    with pytest.raises(ValueError, match="above the limit of MAX_EXPONENT_DIGITS = 4300"):
        _checked_target(text)


def test_decimal_exponent_at_the_limit_still_parses():
    assert MAX_EXPONENT_DIGITS == 4300
    assert _checked_target("1e-10") == Fraction(1, 10**10)
    assert _checked_target("0.1") == _checked_target("1/10") == Fraction(1, 10)
    assert _checked_target("1e-4300") == Fraction(1, 10**4300)
    assert _checked_target("-3E+0_4300") == -3 * 10**4300
    assert _checked_target("1e-000") == 1
