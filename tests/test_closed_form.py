import math
import random
from fractions import Fraction

import pytest

import closed_form_reference as reference
import kronlab.closed_form as closed_form
from conftest import rand_coprime_pair
from kronlab.closed_form import (TripleConstants, alpha_formula, beta_formula,
                                 canonical_binary_pair, in_asymptotic_regime,
                                 triple_constants)
from kronlab.greedy_triple import TripleProblem, greedy_en_certificate
from kronlab.oracle import SpectrumProblem, mu_exact
from kronlab.pair_solver import PairProblem, best_pair_approx, mu_pair

HALF = Fraction(1, 2)


def test_congruence_examples():
    cd = triple_constants(1, 2, 100).congruence
    assert (cd.r, cd.T, cd.R, cd.r2, cd.S) == (1, 1, 1, 4, 4)
    assert (cd.g, cd.h, cd.parity_case) == (1, 0, "b-even")

    cd = triple_constants(1, 2, 99).congruence
    assert (cd.r, cd.R) == (0, 0)

    cd = triple_constants(2, 3, 300).congruence
    assert (cd.T, cd.r, cd.R) == (3, 0, 0)
    assert (cd.g, cd.h, cd.r2, cd.S, cd.parity_case) == (2, 1, 0, 0, "b-odd")


def test_congruence_invariants_random():
    rng = random.Random(4242)
    for _ in range(300):
        a, b = rand_coprime_pair(rng, 20)
        n = rng.randrange(b + 1, 2000)
        cd = triple_constants(a, b, n).congruence
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
            triple_constants(*bad)


def test_alpha_examples():
    assert alpha_formula(1, 2, 100) == Fraction(51, 302)
    assert alpha_formula(1, 2, 99) == Fraction(17, 100)
    assert alpha_formula(2, 3, 300) == Fraction(31, 302)


def test_ln_examples():
    assert triple_constants(1, 2, 100).ln == Fraction(51, 302)
    assert triple_constants(2, 3, 300).ln == Fraction(306, 3012) == Fraction(51, 502)
    # limit toward the pair constant
    assert abs(triple_constants(1, 2, 10**7).ln - Fraction(1, 6)) < Fraction(1, 10**7)


def test_ln_between_pair_constant_and_alpha():
    rng = random.Random(7)
    for _ in range(200):
        a, b = rand_coprime_pair(rng, 9)
        n = rng.randrange(60 * b, 60 * b + 120)
        tc = triple_constants(a, b, n)
        assert tc.ln > Fraction(1, 2 * (a + b))
        if tc.in_regime():
            assert tc.ln <= tc.alpha
        assert (tc.ln == tc.alpha) == (tc.congruence.R == a) == tc.gap


def test_binary_mu_examples():
    assert triple_constants(1, 2, 100).binary(Fraction(0)).value == Fraction(17, 101)
    assert triple_constants(1, 2, 100).binary(HALF).value == Fraction(1, 6)
    assert triple_constants(2, 3, 300).binary(HALF).value == Fraction(31, 302)
    with pytest.raises(ValueError):
        triple_constants(1, 2, 100).binary(Fraction(1, 3))


def test_binary_mu_detail_labels():
    """One full label of each row type for each t3, all on (1, 2, n)."""
    labels = {(n, t3): triple_constants(1, 2, n).binary(t3).case
              for n, t3 in [(96, 0), (100, 0), (98, 0), (100, HALF), (96, HALF), (95, HALF)]}
    assert labels == {
        (96, 0): "t3=0 type-1 (S in {0, 1, 2a+2b-1})",
        (100, 0): "t3=0 type-2 (2a < S <= 2a+2b-2)",
        (98, 0): "t3=0 type-3 (2 <= S <= 2a)",
        (100, HALF): "t3=1/2 type-1 ((S+a+b mod 2a+2b) in {0, 1, 2a+2b-1})",
        (96, HALF): "t3=1/2 type-2 (2a < (S+a+b mod 2a+2b) <= 2a+2b-2)",
        (95, HALF): "t3=1/2 type-3 (2 <= (S+a+b mod 2a+2b) <= 2a)",
    }
    assert "type-2" in triple_constants(2, 3, 300).binary(HALF).case


def test_beta_examples_and_gap():
    assert beta_formula(1, 2, 100) == Fraction(17, 101)
    assert beta_formula(1, 2, 100) < alpha_formula(1, 2, 100)
    assert triple_constants(1, 2, 100).gap and not triple_constants(1, 2, 99).gap
    assert beta_formula(1, 2, 99) == Fraction(17, 100)
    assert beta_formula(2, 3, 300) == Fraction(31, 302)


def test_gap_law_random():
    rng = random.Random(11)
    for _ in range(300):
        a, b = rand_coprime_pair(rng, 12)
        n = rng.randrange(b + 1, 3000)
        gap = beta_formula(a, b, n) < alpha_formula(a, b, n)
        tc = triple_constants(a, b, n)
        assert gap == (tc.congruence.R == a) == tc.gap
        assert beta_formula(a, b, n) <= alpha_formula(a, b, n)


def _agrees_with_reference(a, b, n):
    tc = triple_constants(a, b, n)
    R, S = tc.congruence.R, tc.congruence.S
    tables = [tc.binary(t3) for t3 in (Fraction(0), HALF)]
    return ((tc.alpha, tc.beta, tc.ln, tc.gap)
            == (reference.alpha(a, b, n, R), reference.beta(a, b, n, R), reference.ln(a, b, n),
                R == a)
            and [(table.value, table.case.split()[1]) for table in tables]
            == [reference.binary(a, b, n, S, t3) for t3 in (Fraction(0), HALF)])


def test_closed_forms_match_the_paper_formulas():
    """alpha, beta, L_n and both binary tables (value and row type) equal
    the paper's case-by-case expressions in tests/closed_form_reference.py:
    on every coprime a < b <= 13 with b < n < 6b^2, and on seeded random
    triples with b < 2000 and n up to 10^12.  No oracle call."""
    triples = 0
    for b in range(2, 14):
        for a in range(1, b):
            if math.gcd(a, b) != 1:
                continue
            for n in range(b + 1, 6 * b * b):
                assert _agrees_with_reference(a, b, n), (a, b, n)
                triples += 1
    assert triples == 32269
    rng = random.Random(2024)
    for _ in range(3000):
        a, b = rand_coprime_pair(rng, 1998)
        n = rng.randrange(b + 1, 10 ** rng.randrange(4, 13))
        assert _agrees_with_reference(a, b, n), (a, b, n)


def test_beta_is_max_of_binary_tables_in_regime():
    rng = random.Random(23)
    for _ in range(200):
        a, b = rand_coprime_pair(rng, 9)
        n = rng.randrange(60 * b, 60 * b + 60)
        tc = triple_constants(a, b, n)
        assert tc.in_regime()
        assert tc.beta == max(tc.binary(Fraction(0)).value, tc.binary(HALF).value)


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
    assert triple_constants(1, 2, 100).witness() == (
        (0, Fraction(149, 302), Fraction(5151, 302)), Fraction(51, 302))
    assert Fraction(5151, 302) % 1 == Fraction(17, 302)

    (t1, t2, t3), expected = triple_constants(1, 2, 99).witness()
    assert expected == Fraction(17, 100)
    assert (t1, t2) == (Fraction(0), HALF)  # b even canonical pair
    assert t3 in (Fraction(0), HALF)
    assert mu_exact(SpectrumProblem((1, 2, 99), (t1, t2, t3))).value == Fraction(17, 100)

    assert triple_constants(2, 3, 300).witness() == ((HALF, Fraction(0), HALF),
                                                     Fraction(31, 302))


def test_witness_tie_picks_t3_zero():
    """When both case tables give the same value, the witness takes t3 = 0.
    Every such tie with b <= 30 and n < 6b^2 lies below the regime, so no
    golden file pins the rule; (1, 6, 9), with R = 2 != a, has the smallest b."""
    tc = triple_constants(1, 6, 9)
    assert tc.congruence.R == 2 and not tc.gap
    assert tc.binary(Fraction(0)).value == tc.binary(HALF).value == Fraction(1, 10)
    assert tc.witness() == ((Fraction(0), HALF, Fraction(0)), Fraction(1, 10))


def test_case_tables_are_read_once_per_record(monkeypatch):
    rows = []
    row = closed_form._row
    monkeypatch.setattr(closed_form, "_row", lambda a, b, n, s: rows.append(s) or row(a, b, n, s))
    tc = triple_constants(2, 3, 300)
    assert not tc.gap and rows == [tc.congruence.R + 5]  # beta's row, read once
    rows.clear()
    for _ in range(2):
        tc.binary(Fraction(0)), tc.binary(HALF), tc.witness()
    S = tc.congruence.S
    assert rows == [S, (S + 5) % 10]


def test_alpha_witness_attains_constant():
    rng = random.Random(37)
    seen_gap = 0
    for _ in range(40):
        a, b = rand_coprime_pair(rng, 5)
        n = rng.randrange(60 * b, 60 * b + 30)
        tc = triple_constants(a, b, n)
        expected = tc.ln if tc.congruence.R == a else tc.alpha
        witness, cost = tc.witness()
        assert cost == expected
        assert mu_exact(SpectrumProblem((a, b, n), witness)).value == expected
        seen_gap += tc.congruence.R == a
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
    # the sufficient inequality, spelled out, and the two bounds it implies
    for (a, b, n) in [(1, 2, 100), (2, 3, 300), (4, 5, 304)]:
        tc = triple_constants(a, b, n)
        en, ln = tc.alpha, tc.ln
        assert tc.in_regime()
        assert Fraction(3 * b - a, 2 * n) <= en
        assert Fraction(1, a + b) - ln > Fraction(b - a, 2 * n)
        assert en < Fraction(1, a + b)


def test_regime_bound_on_en_is_implied():
    """in_regime tests clause (1) alone, which implies clause (2) and
    E_n < 1/(a+b) (proof in its docstring).  On every coprime a < b <= 12
    and b < n < 6b^2 the predicate equals the one with all three clauses
    spelled out, and E_n stays below 1/(a+b) wherever (1) and (2) hold."""
    held = unbounded = 0
    for b in range(2, 13):
        for a in range(1, b):
            if math.gcd(a, b) != 1:
                continue
            for n in range(b + 1, 6 * b * b):
                tc = triple_constants(a, b, n)
                en = tc.alpha
                first = Fraction(3 * b - a, 2 * n) <= en
                second = Fraction(1, a + b) - tc.ln > Fraction(b - a, 2 * n)
                third = en < Fraction(1, a + b)
                assert tc.in_regime() == (first and second and third), (a, b, n)
                if first and second:
                    assert third, (a, b, n)
                    held += 1
                unbounded += not third
    # both sides occur: 10,306 rows in the regime, 1,768 with E_n >= 1/(a+b)
    assert held > 10_000 and unbounded > 1_000


def test_one_record_per_row_and_per_certificate(monkeypatch):
    """A verified sweep row and a certificate each build one TripleConstants:
    the row on an R = a and an R != a triple, the certificate on each branch
    of its dispatch and on both signs of the best balanced point."""
    from kronlab.cli import VERIFIED_ORACLE, VERIFIED_WITNESS, evaluate_sweep_row
    a, b, n = 1, 2, 100
    m, ln = a + b, triple_constants(a, b, n).ln
    branches = {  # t2 of the target (0, t2, 1/3) -> lam of its best balanced point
        "small-lambda": (Fraction(m * (b - a), 2 * a * n), Fraction(b - a, 2 * n)),
        "L_n window": (Fraction(m, a) * (Fraction(1, m) - ln), Fraction(1, m) - ln),
        "E_n windows": (Fraction(99, 200), Fraction(33, 200)),
    }
    problems = {}
    for name, (t2, lam) in branches.items():
        for sign in (1, -1):
            p = TripleProblem(a, b, n, 0, sign * t2, sign * Fraction(1, 3))
            ba = best_pair_approx(p.pair())
            assert (ba.lam, ba.sign) == (lam, sign), name
            assert (name == "E_n windows") == (lam > Fraction(1, m) - ln)
            problems[name, sign] = p

    built = []
    init = TripleConstants.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args or kwargs)
        init(self, *args, **kwargs)

    monkeypatch.setattr(TripleConstants, "__init__", counting_init)
    for triple, flag in (((1, 2, 100), VERIFIED_WITNESS), ((2, 3, 300), VERIFIED_ORACLE)):
        built.clear()
        assert evaluate_sweep_row(*triple, True).verified == flag
        assert len(built) == 1, triple
    for key, p in problems.items():
        built.clear()
        assert greedy_en_certificate(p).negated == (key[1] < 0)
        assert len(built) == 1, key
