import random
from fractions import Fraction

import pytest

from conftest import rand_coprime_pair
from kronlab.closed_form import (alpha_formula, alpha_witness, beta_formula,
                                 binary_mu, binary_mu_detail,
                                 canonical_binary_pair, congruence_data,
                                 in_asymptotic_regime, ln_value)
from kronlab.oracle import SpectrumProblem, mu_exact
from kronlab.pair_solver import PairProblem, mu_pair

HALF = Fraction(1, 2)


def test_congruence_examples():
    cd = congruence_data(1, 2, 100)
    assert (cd.r, cd.T, cd.R, cd.r2, cd.S) == (1, 1, 1, 4, 4)
    assert (cd.g, cd.h, cd.parity_case) == (1, 0, "b-even")

    cd = congruence_data(1, 2, 99)
    assert (cd.r, cd.R) == (0, 0)

    cd = congruence_data(2, 3, 300)
    assert (cd.T, cd.r, cd.R) == (3, 0, 0)
    assert (cd.g, cd.h, cd.r2, cd.S, cd.parity_case) == (2, 1, 0, 0, "b-odd")


def test_congruence_invariants_random():
    rng = random.Random(4242)
    for _ in range(300):
        a, b = rand_coprime_pair(rng, 20)
        n = rng.randrange(b + 1, 2000)
        cd = congruence_data(a, b, n)
        m = a + b
        assert (a * cd.T) % m == 1 and n % m == cd.r and (cd.r * cd.T) % m == cd.R
        assert n % (2 * m) == cd.r2 and ((cd.g + cd.h) * cd.r2) % (2 * m) == cd.S
        assert a * cd.g - b * cd.h == 1
        assert (cd.R == a) == (n % m == (a * a) % m)
        assert cd.S % m == cd.R  # S reduces to R mod (a+b)
        if cd.parity_case == "b-odd":
            assert b % 2 == 1 and cd.g % 2 == 0 and cd.h % 2 == 1
        else:
            assert b % 2 == 0 and cd.g % 2 == 1 and cd.h % 2 == 0


def test_invalid_triples_rejected():
    for bad in [(2, 4, 100), (3, 2, 100), (1, 2, 2), (0, 1, 5)]:
        with pytest.raises(ValueError):
            congruence_data(*bad)


def test_alpha_examples():
    assert alpha_formula(1, 2, 100) == Fraction(51, 302)
    assert alpha_formula(1, 2, 99) == Fraction(17, 100)
    assert alpha_formula(2, 3, 300) == Fraction(31, 302)


def test_ln_examples():
    assert ln_value(1, 2, 100) == Fraction(51, 302)
    assert ln_value(2, 3, 300) == Fraction(306, 3012) == Fraction(51, 502)
    # limit toward the pair constant
    assert abs(ln_value(1, 2, 10**7) - Fraction(1, 6)) < Fraction(1, 10**7)


def test_ln_between_pair_constant_and_alpha():
    rng = random.Random(7)
    for _ in range(200):
        a, b = rand_coprime_pair(rng, 9)
        n = rng.randrange(60 * b, 60 * b + 120)
        assert ln_value(a, b, n) > Fraction(1, 2 * (a + b))
        if in_asymptotic_regime(a, b, n):
            assert ln_value(a, b, n) <= alpha_formula(a, b, n)
        assert (ln_value(a, b, n) == alpha_formula(a, b, n)) == \
            (congruence_data(a, b, n).R == a)


def test_binary_mu_examples():
    assert binary_mu(1, 2, 100, Fraction(0)) == Fraction(17, 101)
    assert binary_mu(1, 2, 100, HALF) == Fraction(1, 6)
    assert binary_mu(2, 3, 300, HALF) == Fraction(31, 302)
    with pytest.raises(ValueError):
        binary_mu(1, 2, 100, Fraction(1, 3))


def test_binary_mu_detail_labels():
    assert "type-2" in binary_mu_detail(1, 2, 100, Fraction(0)).case
    assert "type-1" in binary_mu_detail(1, 2, 100, HALF).case
    assert "type-2" in binary_mu_detail(2, 3, 300, HALF).case


def test_beta_examples_and_gap():
    assert beta_formula(1, 2, 100) == Fraction(17, 101)
    assert beta_formula(1, 2, 100) < alpha_formula(1, 2, 100)
    assert beta_formula(1, 2, 99) == Fraction(17, 100)
    assert beta_formula(2, 3, 300) == Fraction(31, 302)


def test_gap_law_random():
    rng = random.Random(11)
    for _ in range(300):
        a, b = rand_coprime_pair(rng, 12)
        n = rng.randrange(b + 1, 3000)
        gap = beta_formula(a, b, n) < alpha_formula(a, b, n)
        assert gap == (congruence_data(a, b, n).R == a)
        assert beta_formula(a, b, n) <= alpha_formula(a, b, n)


def test_beta_is_max_of_binary_tables_in_regime():
    rng = random.Random(23)
    for _ in range(200):
        a, b = rand_coprime_pair(rng, 9)
        n = rng.randrange(60 * b, 60 * b + 60)
        assert in_asymptotic_regime(a, b, n)
        assert beta_formula(a, b, n) == max(binary_mu(a, b, n, Fraction(0)),
                                            binary_mu(a, b, n, HALF))


def test_alpha_limit_envelope():
    # |alpha - 1/(2(a+b))| <= C/n with C read off the four case numerators
    rng = random.Random(31)
    for _ in range(150):
        a, b = rand_coprime_pair(rng, 9)
        n = rng.randrange(b + 1, 5000)
        c = Fraction(max(a * (a + b - 1), b * (2 * a - 1), a * (2 * b - 1)),
                     2 * (a + b))
        assert abs(alpha_formula(a, b, n) - Fraction(1, 2 * (a + b))) <= c / n


def test_canonical_pair_cost_is_pair_constant():
    # the canonical binary pair always costs exactly 1/(2(a+b))
    rng = random.Random(13)
    for _ in range(200):
        a, b = rand_coprime_pair(rng, 30)
        t1, t2 = canonical_binary_pair(a, b)
        assert mu_pair(PairProblem(a, b, t1, t2)) == Fraction(1, 2 * (a + b))


def test_binary_pair_parity_rows():
    rng = random.Random(17)
    zero, half = Fraction(0), HALF
    for _ in range(150):
        a, b = rand_coprime_pair(rng, 30)
        mu = lambda t1, t2: mu_pair(PairProblem(a, b, t1, t2))
        c = Fraction(1, 2 * (a + b))
        if a % 2 == 1 and b % 2 == 1:
            assert mu(zero, half) == mu(half, zero) == c
        elif a % 2 == 0:
            assert mu(half, zero) == mu(half, half) == c
        else:
            assert mu(zero, half) == mu(half, half) == c


def test_alpha_witness_examples():
    assert alpha_witness(1, 2, 100) == (0, Fraction(149, 302), Fraction(5151, 302))
    assert Fraction(5151, 302) % 1 == Fraction(17, 302)

    t1, t2, t3 = alpha_witness(1, 2, 99)
    assert (t1, t2) == (Fraction(0), HALF)  # b even canonical pair
    assert t3 in (Fraction(0), HALF)
    assert mu_exact(SpectrumProblem((1, 2, 99), (t1, t2, t3))).value == Fraction(17, 100)

    assert alpha_witness(2, 3, 300) == (HALF, Fraction(0), HALF)


def test_alpha_witness_attains_constant():
    rng = random.Random(37)
    seen_gap = 0
    for _ in range(40):
        a, b = rand_coprime_pair(rng, 5)
        n = rng.randrange(60 * b, 60 * b + 30)
        cd = congruence_data(a, b, n)
        expected = ln_value(a, b, n) if cd.R == a else alpha_formula(a, b, n)
        witness = alpha_witness(a, b, n)
        assert mu_exact(SpectrumProblem((a, b, n), witness)).value == expected
        seen_gap += cd.R == a
    assert seen_gap > 0  # sample covered the gap case


def test_regime_predicate_is_conservative():
    # wherever the formulas disagree with the oracle, the predicate must
    # already have declined to vouch for the triple
    from kronlab.cli import UNVERIFIED, evaluate_sweep_row
    for a, b, lo, hi in [(2, 5, 6, 20), (3, 5, 8, 18), (1, 3, 4, 12)]:
        for n in range(lo, hi + 1):
            row = evaluate_sweep_row(a, b, n, verify=True)
            if row.verified == UNVERIFIED:
                assert not in_asymptotic_regime(a, b, n)


def test_in_asymptotic_regime():
    assert in_asymptotic_regime(1, 2, 100)
    assert in_asymptotic_regime(2, 3, 300)
    assert not in_asymptotic_regime(1, 2, 3)
    # the three sufficient inequalities, spelled out
    for (a, b, n) in [(1, 2, 100), (2, 3, 300), (4, 5, 304)]:
        en, ln = alpha_formula(a, b, n), ln_value(a, b, n)
        assert Fraction(3 * b - a, 2 * n) <= en
        assert Fraction(1, a + b) - ln > Fraction(b - a, 2 * n)
        assert en < Fraction(1, a + b)
