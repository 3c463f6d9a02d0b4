import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import rand_coprime_pair, rand_fraction
from kronlab.exact_arith import bezout_coprime
from kronlab.oracle import SpectrumProblem, mu_exact
from kronlab.pair_solver import (BalancedApprox, PairProblem, best_pair_approx,
                                 mu_pair, negate_approx, second_best_approx)

targets_st = st.fractions(min_value=-3, max_value=3, max_denominator=60)


def coprime_pairs(hi=20):
    return st.tuples(st.integers(1, hi - 1), st.integers(2, hi)).filter(
        lambda ab: ab[0] < ab[1] and math.gcd(ab[0], ab[1]) == 1)


def test_problem_validation():
    with pytest.raises(ValueError):
        PairProblem(2, 2, Fraction(0), Fraction(0))
    with pytest.raises(ValueError):
        PairProblem(2, 4, Fraction(0), Fraction(0))
    with pytest.raises(ValueError):
        PairProblem(3, 2, Fraction(0), Fraction(0))


def test_mu_pair_examples():
    assert mu_pair(PairProblem(1, 2, Fraction(0), Fraction(0))) == 0
    assert mu_pair(PairProblem(1, 2, Fraction(0), Fraction(1, 2))) == Fraction(1, 6)
    assert mu_pair(PairProblem(2, 5, Fraction(1, 3), Fraction(0))) == Fraction(1, 21)


def test_best_pair_examples():
    ba = best_pair_approx(PairProblem(1, 2, Fraction(0), Fraction(1, 2)))
    assert (ba.x, ba.k1, ba.k2, ba.lam, ba.sign) == (Fraction(1, 6), 0, 0, Fraction(1, 6), 1)
    assert 1 * ba.x - 0 == -(2 * ba.x - Fraction(1, 2))

    zero = best_pair_approx(PairProblem(1, 2, Fraction(0), Fraction(0)))
    assert (zero.x, zero.k1, zero.k2, zero.lam, zero.sign) == (0, 0, 0, 0, 1)

    ba = best_pair_approx(PairProblem(2, 5, Fraction(1, 3), Fraction(0)))
    assert ba.lam == Fraction(1, 21)
    assert 2 * ba.x - Fraction(1, 3) - ba.k1 == Fraction(1, 21)


def test_best_pair_takes_the_smallest_k1():
    # the representative with the smallest |k1|, ties to the smaller k1
    rng = random.Random(2323)
    ties = positive = 0
    for _ in range(300):
        a, b = rand_coprime_pair(rng, 25)
        t1 = rand_fraction(rng, 40) - rng.randrange(3)
        t2 = rand_fraction(rng, 40) + rng.randrange(3)
        k1 = best_pair_approx(PairProblem(a, b, t1, t2)).k1
        assert -a <= 2 * k1 < a, (a, b, t1, t2)
        ties += 2 * k1 == -a
        positive += k1 > 0
    assert ties and positive


def test_second_best_examples():
    p = PairProblem(1, 2, Fraction(0), Fraction(1, 2))
    best = best_pair_approx(p)
    sb = second_best_approx(p, best)
    assert (sb.x, sb.k1, sb.k2, sb.lam) == (Fraction(-1, 6), 0, -1, Fraction(1, 6))
    assert best.x - sb.x == Fraction(1, 3)

    p = PairProblem(2, 5, Fraction(1, 3), Fraction(0))
    sb = second_best_approx(p, best_pair_approx(p))
    assert sb.lam == Fraction(1, 7) - Fraction(1, 21) == Fraction(2, 21)

    p = PairProblem(1, 2, Fraction(0), Fraction(0))
    sb = second_best_approx(p, best_pair_approx(p))
    assert sb.lam == Fraction(1, 3)


def _check_balance(p: PairProblem, ba: BalancedApprox):
    lhs = p.a * ba.x - (p.t1 + ba.k1)
    rhs = -(p.b * ba.x - (p.t2 + ba.k2))
    assert lhs == rhs
    assert abs(lhs) == ba.lam
    assert ba.x == (p.t1 + ba.k1 + p.t2 + ba.k2) / (p.a + p.b)
    if ba.lam > 0:
        assert ba.sign == (1 if lhs > 0 else -1)
    else:
        assert ba.sign == 1


@settings(max_examples=150, deadline=None)
@given(coprime_pairs(), targets_st, targets_st)
def test_balance_complement_and_sign(ab, t1, t2):
    a, b = ab
    p = PairProblem(a, b, t1, t2)
    best = best_pair_approx(p)
    _check_balance(p, best)
    assert best.lam == mu_pair(p)
    assert mu_pair(p) <= Fraction(1, 2 * (a + b))

    sb = second_best_approx(p, best)
    _check_balance(p, sb)
    assert best.lam + sb.lam == Fraction(1, a + b)
    if best.lam > 0:
        assert sb.sign == -best.sign
    assert abs(best.x - sb.x) == Fraction(sum(bezout_coprime(a, b)), a + b)


@settings(max_examples=100, deadline=None)
@given(coprime_pairs(), targets_st, targets_st, st.integers(-5, 5))
def test_unique_mod_one_shift(ab, t1, t2, s):
    # any balanced solution shifted by (s, a*s, b*s) is again balanced
    a, b = ab
    p = PairProblem(a, b, t1, t2)
    ba = best_pair_approx(p)
    shifted = BalancedApprox(x=ba.x + s, k1=ba.k1 + a * s, k2=ba.k2 + b * s,
                             lam=ba.lam, sign=ba.sign)
    _check_balance(p, shifted)


def test_optimality_against_oracle():
    rng = random.Random(1717)
    for _ in range(250):
        a, b = rand_coprime_pair(rng, 25)
        t1, t2 = rand_fraction(rng, 40), rand_fraction(rng, 40)
        p = PairProblem(a, b, t1, t2)
        assert mu_pair(p) == mu_exact(SpectrumProblem((a, b), (t1, t2))).value


def test_negate_approx_solves_negated_problem():
    rng = random.Random(99)
    for _ in range(50):
        a, b = rand_coprime_pair(rng, 15)
        t1, t2 = rand_fraction(rng), rand_fraction(rng)
        ba = best_pair_approx(PairProblem(a, b, t1, t2))
        _check_balance(PairProblem(a, b, -t1, -t2), negate_approx(ba))
