import math
import random
from fractions import Fraction

import pytest

from conftest import rand_coprime_pair, rand_fraction
from kronlab.closed_form import (alpha_formula, in_asymptotic_regime,
                                 triple_constants)
from kronlab.exact_arith import bezout_coprime
from kronlab.greedy_triple import (Certificate, EmptyWindowError,
                                   NotApplicableError, NotInAsymptoticRegime,
                                   TripleProblem, WindowViolationError, ZWindow,
                                   _pick_alignment, _z_window, certificate_at,
                                   greedy_bound, greedy_en_certificate, modify,
                                   small_lambda_certificate, z_windows)
from kronlab.oracle import SpectrumProblem, mu_exact
from kronlab.pair_solver import BalancedApprox, PairProblem, best_pair_approx
from oracle_reference import angular_norm

HALF = Fraction(1, 2)


def _recomputed_cost(p: TripleProblem, cert: Certificate) -> Fraction:
    return angular_norm([nj * cert.x_star - tj
                         for nj, tj in zip(p.spectrum(), p.targets())])


def _strategy_e(a, b, n, lam):
    return (n * (a + b) * lam + a * b) / Fraction(2 * a * b + a * n + b * n)


def test_small_lambda_examples():
    p = TripleProblem(1, 2, 100, Fraction(0), Fraction(0), Fraction(1, 4))
    ba = best_pair_approx(p.pair())
    assert ba.lam == 0
    cert = small_lambda_certificate(p, ba)
    assert cert.cost <= Fraction(5, 200)
    assert 100 * cert.x_star - Fraction(1, 4) - cert.k[2] == 0  # third residual

    p = TripleProblem(1, 2, 100, Fraction(0), Fraction(0), Fraction(0))
    cert = small_lambda_certificate(p, best_pair_approx(p.pair()))
    assert cert.x_star == 0 and cert.cost == 0

    p = TripleProblem(2, 3, 300, Fraction(1, 3), Fraction(1, 2), Fraction(0))
    ba = best_pair_approx(p.pair())
    assert ba.lam == 0  # 2*(1/2) - 3*(1/3) = 0
    cert = small_lambda_certificate(p, ba)
    assert cert.cost <= Fraction(7, 600)
    assert cert.method == "small-lambda"


def test_small_lambda_precondition():
    p = TripleProblem(1, 2, 100, Fraction(0), HALF, Fraction(0))
    ba = best_pair_approx(p.pair())  # lam = 1/6 > (b-a)/(2n)
    with pytest.raises(NotApplicableError):
        small_lambda_certificate(p, ba)


def test_z_window_width_identity_example():
    # E = (n(a+b)lam + ab)/(2ab+an+bn) makes both windows exactly 1/n wide
    p = TripleProblem(1, 2, 100, Fraction(0), HALF, HALF)
    ba = best_pair_approx(p.pair())
    assert ba.lam == Fraction(1, 6)
    E = _strategy_e(1, 2, 100, ba.lam)
    assert E == Fraction(13, 76)
    pos, neg = z_windows(ba, E, p)
    assert pos.width() == Fraction(1, 100)
    assert neg.width() == Fraction(1, 100)
    assert pos.lo <= ba.x <= pos.hi and neg.lo <= ba.x <= neg.hi


def test_z_window_boundary_and_error():
    p = TripleProblem(1, 2, 100, Fraction(0), HALF, HALF)
    ba = best_pair_approx(p.pair())
    pos, neg = z_windows(ba, ba.lam, p)  # boundary E = lam
    assert pos.lo <= pos.hi and neg.lo <= neg.hi
    assert pos.width() == neg.width() == 2 * ba.lam / 100
    with pytest.raises(EmptyWindowError):
        z_windows(ba, ba.lam - Fraction(1, 10**9), p)


def test_one_window_is_the_matching_member_of_both():
    # reference: the window formulas written out for each sign
    rng = random.Random(1111)
    for _ in range(300):
        a, b = rand_coprime_pair(rng, 12)
        n = rng.randrange(b + 1, 80 * b)
        p = TripleProblem(a, b, n, *(rand_fraction(rng) for _ in range(3)))
        ba = best_pair_approx(p.pair())
        x, lam = ba.x, ba.lam
        for E in (lam, lam + rand_fraction(rng), alpha_formula(a, b, n)):
            if E < lam:
                continue
            both = z_windows(ba, E, p)
            expected = (
                ZWindow(x + (n * lam - (b + n) * E) / (b * n),
                        x + ((a + n) * E - n * lam) / (a * n), "positive-sign", x),
                ZWindow(x + (n * lam - (a + n) * E) / (a * n),
                        x + ((b + n) * E - n * lam) / (b * n), "negative-sign", x))
            assert both == expected
            assert (_z_window(ba, E, p, +1), _z_window(ba, E, p, -1)) == both
        if lam > 0:
            E = lam - rand_fraction(rng) * lam - Fraction(1, 10**6) * lam
            with pytest.raises(EmptyWindowError) as both_error:
                z_windows(ba, E, p)
            for sign in (+1, -1):
                with pytest.raises(EmptyWindowError) as one_error:
                    _z_window(ba, E, p, sign)
                assert str(one_error.value) == str(both_error.value) == f"E={E} < lam={lam}"


def test_certificate_cost_is_the_angular_norm_of_its_residuals():
    rng = random.Random(1112)
    for i in range(600):
        a, b = rand_coprime_pair(rng, 12)
        n = rng.randrange(b + 1, 80 * b)
        x = rand_fraction(rng) + rng.randrange(-3, 3)
        if i % 2:
            # every residual n_j*x - t_j an exact half-integer
            t = [nj * x - Fraction(2 * rng.randrange(-5, 5) + 1, 2) for nj in (a, b, n)]
        else:
            t = [rand_fraction(rng) for _ in range(3)]
        p = TripleProblem(a, b, n, *t)
        cert = certificate_at(p, x, "oracle")
        residuals = [nj * x - tj for nj, tj in zip(p.spectrum(), p.targets())]
        assert cert.cost == angular_norm(residuals)
        if i % 2:
            assert cert.cost == HALF
            assert cert.k == tuple(r - HALF for r in residuals)  # halves round down


def test_modify_examples():
    # third target already aligned at x: delta = 0 branch
    p = TripleProblem(1, 2, 100, Fraction(0), HALF, Fraction(2, 3))
    ba = best_pair_approx(p.pair())
    z = ba.x
    q = TripleProblem(1, 2, 100, Fraction(0), HALF, 100 * z % 1)
    cert = modify(ba, z, q)
    assert cert.x_star == ba.x and cert.cost == ba.lam

    # z = x + 1/300: balanced against the slow (first) component
    z = ba.x + Fraction(1, 300)
    q = TripleProblem(1, 2, 100, Fraction(0), HALF, 100 * z % 1)
    cert = modify(ba, z, q)
    assert cert.x_star == ba.x + Fraction(1, 606)
    assert cert.cost == Fraction(1, 6) + Fraction(1, 606)
    assert cert.cost == _recomputed_cost(q, cert)


def test_modify_endpoint_sharpness():
    rng = random.Random(2024)
    checked = 0
    while checked < 40:
        a, b = rand_coprime_pair(rng, 9)
        n = rng.randrange(60 * b, 60 * b + 40)
        t1, t2 = rand_fraction(rng), rand_fraction(rng)
        ba = best_pair_approx(TripleProblem(a, b, n, t1, t2, Fraction(0)).pair())
        if 2 * n * ba.lam <= b - a:
            continue
        E = _strategy_e(a, b, n, ba.lam)
        pos, neg = z_windows(ba, E, TripleProblem(a, b, n, t1, t2, Fraction(0)))
        w = pos if ba.sign > 0 else neg
        for z in (w.lo, w.hi):
            p = TripleProblem(a, b, n, t1, t2, n * z % 1)
            cert = modify(ba, z, p, window=w)
            assert cert.cost == E
        checked += 1


def test_modify_rejections():
    p = TripleProblem(1, 2, 100, Fraction(0), HALF, Fraction(1, 4))
    ba = best_pair_approx(p.pair())
    with pytest.raises(ValueError):
        modify(ba, ba.x + Fraction(1, 7), p)  # 100*z not aligned with t3
    far = ba.x + Fraction(2, 100) + Fraction(1, 400)
    q = TripleProblem(1, 2, 100, Fraction(0), HALF, 100 * far % 1)
    with pytest.raises(WindowViolationError):
        modify(ba, far, q)  # |n z - n x| > 1
    E = _strategy_e(1, 2, 100, ba.lam)
    w = z_windows(ba, E, p)[0]
    outside = w.hi + Fraction(1, 100)
    q = TripleProblem(1, 2, 100, Fraction(0), HALF, 100 * outside % 1)
    with pytest.raises(WindowViolationError):
        modify(ba, outside, q, window=w)


def test_greedy_bound_examples():
    p = TripleProblem(1, 2, 100, Fraction(0), HALF, HALF)
    cert = greedy_bound(p)
    assert cert.cost <= Fraction(13, 76)
    assert cert.cost == _recomputed_cost(p, cert)

    p = TripleProblem(1, 2, 100, Fraction(0), Fraction(0), Fraction(0))
    assert greedy_bound(p).cost == 0

    p = TripleProblem(2, 3, 300, HALF, Fraction(0), HALF)
    assert greedy_bound(p).cost <= Fraction(156, 1512) == Fraction(13, 126)


def test_greedy_bound_total_and_within_bound():
    rng = random.Random(31337)
    for _ in range(300):
        a, b = rand_coprime_pair(rng, 9)
        n = rng.randrange(b + 1, 500)
        p = TripleProblem(a, b, n, rand_fraction(rng), rand_fraction(rng),
                          rand_fraction(rng))
        cert = greedy_bound(p)
        lam = best_pair_approx(p.pair()).lam
        bound = max(_strategy_e(a, b, n, lam), Fraction(3 * b - a, 2 * n))
        assert cert.cost <= bound
        assert cert.cost == _recomputed_cost(p, cert)


def test_greedy_en_witness_attains_ln_exactly():
    p = TripleProblem(1, 2, 100, Fraction(0), Fraction(149, 302), Fraction(5151, 302))
    cert = greedy_en_certificate(p)
    assert cert.cost == triple_constants(1, 2, 100).ln == Fraction(51, 302)
    assert mu_exact(SpectrumProblem((1, 2, 100), p.targets())).value == Fraction(51, 302)


def test_greedy_en_examples():
    p = TripleProblem(1, 2, 99, Fraction(0), HALF, HALF)
    assert greedy_en_certificate(p).cost <= alpha_formula(1, 2, 99) == Fraction(17, 100)

    p = TripleProblem(1, 2, 100, Fraction(0), Fraction(0), Fraction(0))
    assert greedy_en_certificate(p).cost == 0


def test_greedy_en_soundness_and_domination():
    # certificate cost is the true norm at x_star, sits between the oracle
    # minimum and the closed-form constant
    rng = random.Random(777)
    for _ in range(25):
        a, b = rand_coprime_pair(rng, 4)
        n = rng.randrange(60 * b, 60 * b + 20)
        assert in_asymptotic_regime(a, b, n)
        p = TripleProblem(a, b, n, rand_fraction(rng, 24), rand_fraction(rng, 24),
                          rand_fraction(rng, 24))
        cert = greedy_en_certificate(p)
        assert cert.cost == _recomputed_cost(p, cert)
        assert cert.cost <= alpha_formula(a, b, n)
        assert mu_exact(SpectrumProblem(p.spectrum(), p.targets())).value <= cert.cost


def test_greedy_en_covers_every_residue_class():
    # the window search must succeed for all R classes, not only R < a
    rng = random.Random(60601)
    seen = set()
    for (a, b) in [(1, 2), (2, 5), (3, 4), (4, 5), (5, 6), (3, 8)]:
        for n in range(60 * b, 60 * b + a + b):
            if not in_asymptotic_regime(a, b, n):
                continue
            R = triple_constants(a, b, n).congruence.R
            klass = ("R<a" if R < a else "R=a" if R == a else
                     "a<R<=2a" if R <= 2 * a else "R>2a")
            p = TripleProblem(a, b, n, rand_fraction(rng), rand_fraction(rng),
                              rand_fraction(rng))
            cert = greedy_en_certificate(p)  # must not raise
            assert cert.cost <= alpha_formula(a, b, n)
            seen.add(klass)
    assert seen == {"R<a", "R=a", "a<R<=2a", "R>2a"}


def test_sign_normalization_negation_invariance():
    rng = random.Random(404)
    for _ in range(20):
        a, b = rand_coprime_pair(rng, 4)
        n = rng.randrange(60 * b, 60 * b + 15)
        t = (rand_fraction(rng, 20), rand_fraction(rng, 20), rand_fraction(rng, 20))
        v1 = mu_exact(SpectrumProblem((a, b, n), t)).value
        v2 = mu_exact(SpectrumProblem((a, b, n), tuple(-tj for tj in t))).value
        assert v1 == v2
        cert = greedy_en_certificate(TripleProblem(a, b, n, *t))
        if cert.negated:
            # mapped-back certificate still certifies the original problem
            assert cert.cost == _recomputed_cost(TripleProblem(a, b, n, *t), cert)


def test_window_alignment_identities_all_R_classes():
    # with E = E_n, the best/second-best windows align on the 1/n grid:
    # z2 - z3 (R < a, R > 2a) or z1 - z4 (a < R <= 2a) is an integer over n
    rng = random.Random(808)
    for _ in range(200):
        a, b = rand_coprime_pair(rng, 9)
        n = rng.randrange(60 * b, 60 * b + 200)
        tc = triple_constants(a, b, n)
        cd = tc.congruence
        if cd.R == a or not tc.in_regime():
            continue
        en, ln = tc.alpha, tc.ln
        lo, hi = Fraction(1, a + b) - ln, Fraction(1, 2 * (a + b))
        lam = lo + (hi - lo) * Fraction(rng.randrange(1, 50), 50)
        x = rand_fraction(rng)
        ba = BalancedApprox(x=x, k1=0, k2=0, lam=lam, sign=1)
        xp = x - Fraction(sum(bezout_coprime(a, b)), a + b)
        sb = BalancedApprox(x=xp, k1=0, k2=0, lam=Fraction(1, a + b) - lam, sign=-1)
        p = TripleProblem(a, b, n, Fraction(0), Fraction(0), Fraction(0))
        w1 = z_windows(ba, en, p)[0]
        w2 = z_windows(sb, en, p)[1]
        assert w1.width() + w2.width() >= Fraction(1, n)
        if a < cd.R <= 2 * a:
            assert (n * (w1.lo - w2.hi)).denominator == 1
        else:
            assert (n * (w1.hi - w2.lo)).denominator == 1


def test_gap_case_union_span_identity():
    # R = a: after shifting the second window by s/n the union is one
    # interval of length 1/n + b(ab+n)/((a+b) n (ab+an+bn))
    rng = random.Random(909)
    checked = 0
    while checked < 60:
        a, b = rand_coprime_pair(rng, 9)
        m = a + b
        n0 = rng.randrange(60 * b, 60 * b + 40)
        n = n0 + (a * a - n0) % m  # force n == a^2 (mod a+b)
        tc = triple_constants(a, b, n)
        assert tc.congruence.R == a
        if not tc.in_regime():
            continue
        en = tc.alpha
        assert en == tc.ln
        lo, hi = Fraction(1, m) - en, Fraction(1, 2 * m)
        lam = lo + (hi - lo) * Fraction(rng.randrange(1, 50), 50)
        x = rand_fraction(rng)
        g, h = bezout_coprime(a, b)
        ba = BalancedApprox(x=x, k1=0, k2=0, lam=lam, sign=1)
        sb = BalancedApprox(x=x - Fraction(g + h, m), k1=0, k2=0,
                            lam=Fraction(1, m) - lam, sign=-1)
        p = TripleProblem(a, b, n, Fraction(0), Fraction(0), Fraction(0))
        w1 = z_windows(ba, en, p)[0]
        w2 = z_windows(sb, en, p)[1]
        s = (n - a * a) // m * (g + h) + a * h + 1
        shift = Fraction(s, n)
        assert w1.hi - (w2.lo + shift) == 2 * a * en / (n * m)  # overlap size
        assert w1.hi <= w2.hi + shift
        span = (w2.hi + shift) - w1.lo
        assert span == Fraction(1, n) + \
            Fraction(b * (a * b + n), m * n * (a * b + a * n + b * n))
        checked += 1


def test_small_n_never_returns_unsound_certificates():
    # at small n the E_n construction may fail; it must then raise with a
    # sound greedy_bound fallback attached, never return a bad certificate
    rng = random.Random(515)
    raised = 0
    for _ in range(400):
        a, b = rand_coprime_pair(rng, 12)
        n = rng.randrange(b + 1, 8 * b)
        t = (rand_fraction(rng, 20), rand_fraction(rng, 20), rand_fraction(rng, 20))
        p = TripleProblem(a, b, n, *t)
        try:
            cert = greedy_en_certificate(p)
        except NotInAsymptoticRegime as exc:
            raised += 1
            assert isinstance(exc.certificate, Certificate)
            assert exc.certificate.cost == _recomputed_cost(p, exc.certificate)
        else:
            assert cert.cost == _recomputed_cost(p, cert)
            assert cert.cost <= alpha_formula(a, b, n)  # the promise, or a raise
    assert raised >= 0  # construction may in fact be total; both outcomes sound


def test_greedy_en_raises_when_small_lambda_exceeds_en():
    # (2, 5, 12) is below the regime: the small-lambda snap costs 5/24,
    # above E_n = 1/7 (the oracle gives 5/34), so it must not be returned
    p = TripleProblem(2, 5, 12, Fraction(0), Fraction(0), HALF)
    assert alpha_formula(2, 5, 12) == Fraction(1, 7)
    with pytest.raises(NotInAsymptoticRegime, match="exceeds E_n=1/7") as info:
        greedy_en_certificate(p)
    cert = info.value.certificate
    assert cert.method == "small-lambda" and cert.cost == Fraction(5, 24)
    assert cert.cost == _recomputed_cost(p, cert)
    assert mu_exact(SpectrumProblem(p.spectrum(), p.targets())).value == Fraction(5, 34)


def test_en_branch_windows_are_never_empty_for_b_up_to_12():
    """The E_n branch's windows, checked against the proof in
    greedy_en_certificate's docstring on a finite range.

    The best point's window is empty only if E_n < lam <= 1/(2(a+b)), the
    pair bound, which the proof rules out for every triple.  The
    second-best point costs 1/(a+b) - lam with lam above both (b-a)/(2n)
    and 1/(a+b) - L_n in this branch, so its window is empty for some lam
    only if E_n < L_n and E_n < 1/(a+b) - (b-a)/(2n).  That would be no
    failure: an empty second-best window adds no alignment point to the
    pick.  Neither holds on any coprime a < b <= 12 with b < n < 10*b**2.
    """
    triples = 0
    for b in range(2, 13):
        for a in range(1, b):
            if math.gcd(a, b) != 1:
                continue
            for n in range(b + 1, 10 * b * b):
                triples += 1
                tc = triple_constants(a, b, n)
                en, ln = tc.alpha, tc.ln
                assert en >= Fraction(1, 2 * (a + b)), (a, b, n)
                assert en >= ln or en >= Fraction(1, a + b) - Fraction(b - a, 2 * n), \
                    (a, b, n)
    assert triples == 34061


def test_certificate_k_vector_is_nearest():
    p = TripleProblem(1, 2, 100, Fraction(0), HALF, HALF)
    cert = greedy_en_certificate(p)
    for nj, tj, kj in zip(p.spectrum(), p.targets(), cert.k):
        assert abs(nj * cert.x_star - tj - kj) <= HALF


def test_certificate_at_oracle_method():
    p = TripleProblem(1, 2, 100, Fraction(0), HALF, HALF)
    r = mu_exact(SpectrumProblem(p.spectrum(), p.targets()))
    cert = certificate_at(p, r.x_star, "oracle")
    assert cert.cost == r.value and cert.method == "oracle"


# Boundary cases of the integer rounding: each fails for an off-by-one
# ceil, floor or comparison.

def test_pick_alignment_takes_an_exactly_aligned_endpoint():
    # a window narrower than 1/n holds one alignment point at most; when an
    # end is exactly aligned (n*end - t3 an integer), that end is the pick
    rng = random.Random(1404)
    for _ in range(60):
        a, b = rand_coprime_pair(rng, 9)
        n = rng.randrange(b + 1, 80 * b)
        t1, t2 = rand_fraction(rng) - rng.randrange(3), rand_fraction(rng) + rng.randrange(-2, 2)
        ba = best_pair_approx(PairProblem(a, b, t1, t2))
        for w in z_windows(ba, ba.lam + Fraction(1, 8 * n), TripleProblem(a, b, n, t1, t2, 0)):
            assert w.width() < Fraction(1, n)
            for end in (w.lo, w.hi):
                k3 = rng.randrange(-3, 3)
                p = TripleProblem(a, b, n, t1, t2, n * end - k3)  # n*end - t3 = k3
                assert _pick_alignment(w, p) == k3
                modify(ba, end, p, window=w)  # the closed window admits its ends


def test_pick_alignment_half_tie_takes_the_smaller_k3():
    # n*anchor - t3 = -7/2, and the window holds both -4 and -3
    p = TripleProblem(1, 2, 100, 0, 0, Fraction(7, 2))
    ba = best_pair_approx(p.pair())
    for w in z_windows(ba, Fraction(1, 50), p):
        assert w.lo <= (p.t3 - 4) / 100 and (p.t3 - 3) / 100 <= w.hi
        assert _pick_alignment(w, p) == -4


def test_small_lambda_half_tie_rounds_down():
    # n*x - t3 = -5/2 at x = 0: k3 = -3, so z = (5/2 - 3)/100
    p = TripleProblem(1, 2, 100, 0, 0, Fraction(5, 2))
    cert = small_lambda_certificate(p, best_pair_approx(p.pair()))
    assert cert.x_star == Fraction(-1, 200) and cert.k == (0, 0, -3)


def test_certificate_negative_half_residuals_round_down():
    # residuals -9/2, -5/2, -9/2 at x = -1
    p = TripleProblem(1, 2, 5, Fraction(7, 2), HALF, -HALF)
    cert = certificate_at(p, Fraction(-1), "oracle")
    assert cert.k == (-5, -3, -5) and cert.cost == HALF


@pytest.mark.parametrize("a, b, n, t1, t2", [
    (1, 2, 100, Fraction(0), HALF),
    (2, 5, 300, Fraction(-7, 3), Fraction(5, 4)),
    (3, 4, 41, Fraction(11, 6), Fraction(-2, 7)),
])
def test_modify_gap_boundaries(a, b, n, t1, t2):
    ba = best_pair_approx(PairProblem(a, b, t1, t2))
    assert ba.lam > 0
    for s in (+1, -1):
        # gap exactly lam: x is kept, and the third residual is lam too
        z = ba.x + s * ba.lam / n
        p = TripleProblem(a, b, n, t1, t2, n * z)
        cert = modify(ba, z, p)
        assert cert.x_star == ba.x and cert.cost == ba.lam
        # gap exactly 1 is admissible: x moves by (1 - lam)/(f + n)
        z = ba.x + Fraction(s, n)
        p = TripleProblem(a, b, n, t1, t2, n * z)
        cert = modify(ba, z, p)
        f = a if (s > 0) == (ba.sign > 0) else b
        assert cert.x_star == ba.x + s * (1 - ba.lam) / (f + n)
        assert cert.cost == _recomputed_cost(p, cert)
        # just beyond 1 is not
        z = ba.x + s * (Fraction(1, n) + Fraction(1, 10**9))
        p = TripleProblem(a, b, n, t1, t2, n * z)
        with pytest.raises(WindowViolationError, match="> 1"):
            modify(ba, z, p)


@pytest.mark.parametrize("a, b, n", [(1, 2, 100), (2, 3, 181), (3, 5, 300), (1, 3, 204)])
@pytest.mark.parametrize("t3", [Fraction(0), HALF, Fraction(1, 3), Fraction(-5, 7)])
def test_dispatch_thresholds_are_inclusive(a, b, n, t3):
    # lam exactly (b-a)/(2n) takes the small-lambda snap
    p = TripleProblem(a, b, n, 0, Fraction((a + b) * (b - a), 2 * a * n), t3)
    ba = best_pair_approx(p.pair())
    assert 2 * n * ba.lam == b - a and ba.sign > 0
    assert greedy_en_certificate(p) == greedy_bound(p) == small_lambda_certificate(p, ba)
    # lam exactly 1/(a+b) - L_n takes the L_n window
    ln = triple_constants(a, b, n).ln
    p = TripleProblem(a, b, n, 0, Fraction(a + b, a) * (Fraction(1, a + b) - ln), t3)
    ba = best_pair_approx(p.pair())
    assert ba.lam == Fraction(1, a + b) - ln and ba.sign > 0
    w = _z_window(ba, ln, p, +1)
    z = (t3 + _pick_alignment(w, p)) / n
    assert greedy_en_certificate(p) == modify(ba, z, p, window=w)
