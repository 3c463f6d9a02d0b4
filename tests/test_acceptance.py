"""Acceptance suite: every criterion at its stated (zero) tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail
line per criterion, with wall time.
"""
import random
import time
from contextlib import contextmanager
from fractions import Fraction

from conftest import rand_coprime_pair, rand_fraction
from kronlab.cli import UNVERIFIED, evaluate_sweep_row
from kronlab.closed_form import (alpha_formula, beta_formula,
                                 canonical_binary_pair, in_asymptotic_regime,
                                 triple_constants)
from kronlab.exact_arith import bezout_coprime
from kronlab.greedy_triple import (TripleProblem, greedy_en_certificate,
                                   z_windows)
from kronlab.oracle import SpectrumProblem, beta_exact, mu_exact
from kronlab.pair_solver import (BalancedApprox, PairProblem,
                                 best_pair_approx, mu_pair,
                                 second_best_approx)

HALF = Fraction(1, 2)

PAIRS = [(1, 2), (1, 3), (2, 3), (2, 5), (3, 4), (3, 5), (4, 5)]

RANDOM_TARGETS_PER_TRIPLE = 500


def family():
    for a, b in PAIRS:
        for n in range(60 * b, 60 * b + 2 * (a + b)):
            yield a, b, n


@contextmanager
def criterion(name, budget_s):
    t0 = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"[FAIL] {name}")
        raise
    elapsed = time.perf_counter() - t0
    print(f"[pass] {name} ({elapsed:.1f}s, budget {budget_s}s)")
    assert elapsed < budget_s, f"{name} exceeded its runtime budget"


def _random_targets(seed):
    rng = random.Random(seed)
    return [(rand_fraction(rng, 60), rand_fraction(rng, 60), rand_fraction(rng, 60))
            for _ in range(RANDOM_TARGETS_PER_TRIPLE)]


def test_c1_binary_constant_equality():
    with criterion("criterion 1: beta_formula = beta_exact on the triple family", 120):
        for a, b, n in family():
            exact, argmax = beta_exact((a, b, n))
            formula = beta_formula(a, b, n)
            assert formula == exact, (
                f"beta mismatch at ({a}, {b}, {n}): formula {formula}, "
                f"oracle {exact} at {argmax}")


def test_c2_binary_case_table_equality():
    with criterion("criterion 2: binary case tables match the oracle per row", 120):
        for a, b, n in family():
            tc = triple_constants(a, b, n)
            t1, t2 = canonical_binary_pair(a, b)
            for t3 in (Fraction(0), HALF):
                table = tc.binary(t3)
                exact = mu_exact(SpectrumProblem((a, b, n), (t1, t2, t3))).value
                assert table.value == exact, (
                    f"case-table mismatch at ({a}, {b}, {n}), t3={t3}: "
                    f"row '{table.case}' gives {table.value}, oracle {exact}")


def test_c3_alpha_sandwich_gap_case():
    with criterion("criterion 3: R=a sandwich (witness = L_n, greedy <= L_n)", 300):
        triples = [(a, b, n) for a, b, n in family()
                   if triple_constants(a, b, n).congruence.R == a]
        assert len(triples) == 2 * len(PAIRS)  # two per congruence window
        for a, b, n in triples:
            tc = triple_constants(a, b, n)
            ln = tc.ln
            assert tc.alpha == ln
            witness, _ = tc.witness()
            got = mu_exact(SpectrumProblem((a, b, n), witness)).value
            assert got == ln, f"witness cost {got} != {ln} at ({a}, {b}, {n})"
            assert tc.beta < ln  # the strict gap, exactly
            for t in _random_targets(seed=n * 7919 + a):
                cert = greedy_en_certificate(TripleProblem(a, b, n, *t))
                assert cert.cost <= ln, (
                    f"greedy cost {cert.cost} > {ln} at ({a}, {b}, {n}), t={t}")


def test_c4_alpha_sandwich_equal_case():
    with criterion("criterion 4: R!=a sandwich (witness = E_n, greedy <= E_n)", 300):
        triples = [(a, b, n) for a, b, n in family()
                   if triple_constants(a, b, n).congruence.R != a]
        for a, b, n in triples:
            tc = triple_constants(a, b, n)
            en = tc.alpha
            witness, _ = tc.witness()
            got = mu_exact(SpectrumProblem((a, b, n), witness)).value
            assert got == en, f"binary witness cost {got} != {en} at ({a}, {b}, {n})"
            for t in _random_targets(seed=n * 104729 + b):
                cert = greedy_en_certificate(TripleProblem(a, b, n, *t))
                assert cert.cost <= en, (
                    f"greedy cost {cert.cost} > {en} at ({a}, {b}, {n}), t={t}")


def test_c5_window_geometry():
    with criterion("criterion 5: window widths 1/n; union span >= 1/n at E_n", 60):
        rng = random.Random(20259)
        for _ in range(200):
            a, b = rand_coprime_pair(rng, 9)
            n = rng.randrange(60 * b, 60 * b + 60)
            assert in_asymptotic_regime(a, b, n)
            p = TripleProblem(a, b, n, Fraction(0), Fraction(0), Fraction(0))

            # strategy E: both windows exactly 1/n wide, any lam in (0, 1/2)
            lam = Fraction(rng.randrange(1, 120), 240)
            x = rand_fraction(rng)
            ba = BalancedApprox(x=x, k1=0, k2=0, lam=lam, sign=1)
            E = (n * (a + b) * lam + a * b) / Fraction(2 * a * b + a * n + b * n)
            pos, neg = z_windows(ba, E, p)
            assert pos.width() == Fraction(1, n)
            assert neg.width() == Fraction(1, n)

            # E = E_n with complementary best/second-best costs
            en = alpha_formula(a, b, n)
            m = a + b
            lo = Fraction(1, m) - triple_constants(a, b, n).ln
            lam = lo + (Fraction(1, 2 * m) - lo) * Fraction(rng.randrange(1, 40), 40)
            ba = BalancedApprox(x=x, k1=0, k2=0, lam=lam, sign=1)
            sb = BalancedApprox(x=x - Fraction(sum(bezout_coprime(a, b)), m),
                                k1=0, k2=0, lam=Fraction(1, m) - lam, sign=-1)
            w1 = z_windows(ba, en, p)[0]
            w2 = z_windows(sb, en, p)[1]
            assert w1.width() + w2.width() >= Fraction(1, n)


def test_c6_pair_layer_exactness():
    with criterion("criterion 6: pair layer vs oracle, complement, shifts", 60):
        rng = random.Random(60011)
        for _ in range(1000):
            a, b = rand_coprime_pair(rng, 25)
            t1, t2 = rand_fraction(rng, 40), rand_fraction(rng, 40)
            p = PairProblem(a, b, t1, t2)
            best = best_pair_approx(p)
            assert best.lam == mu_pair(p)
            assert mu_pair(p) == mu_exact(SpectrumProblem((a, b), (t1, t2))).value
            second = second_best_approx(p, best)
            assert best.lam + second.lam == Fraction(1, a + b)
            s = rng.randrange(-4, 5)
            y, j1, j2 = best.x + s, best.k1 + a * s, best.k2 + b * s
            assert a * y - (t1 + j1) == -(b * y - (t2 + j2))


def test_c7_asymptotics():
    with criterion("criterion 7: alpha -> 1/6 with an explicit C/n envelope", 10):
        a, b = 1, 2
        c = Fraction(max(a * (a + b - 1), b * (2 * a - 1), a * (2 * b - 1)),
                     2 * (a + b))
        deviations = []
        for n in (10**2, 10**3, 10**4, 10**5):
            dev = abs(alpha_formula(a, b, n) - Fraction(1, 6))
            assert dev <= c / n
            deviations.append(dev)
        assert all(x > y for x, y in zip(deviations, deviations[1:]))


def test_c8_small_n_honesty():
    with criterion("criterion 8: small-n rows never claim verification", 120):
        for n in range(3, 21):
            row = evaluate_sweep_row(1, 2, n, verify=True)
            # recompute the oracle agreement independently of the flag logic
            tc = triple_constants(1, 2, n)
            agree = tc.beta == beta_exact((1, 2, n))[0]
            t1, t2 = canonical_binary_pair(1, 2)
            for t3 in (Fraction(0), HALF):
                agree = agree and tc.binary(t3).value == mu_exact(
                    SpectrumProblem((1, 2, n), (t1, t2, t3))).value
            expected = tc.ln if tc.congruence.R == 1 else tc.alpha
            agree = agree and mu_exact(
                SpectrumProblem((1, 2, n), tc.witness()[0])).value == expected
            if row.verified != UNVERIFIED:
                assert agree, f"n={n} flagged verified but the oracle disagrees"
            else:
                assert not agree, f"n={n} agrees with the oracle but was not flagged"
