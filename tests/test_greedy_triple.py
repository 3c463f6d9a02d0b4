import math
import random
from dataclasses import replace
from fractions import Fraction

import pytest

import kronlab.greedy_triple as greedy_triple
from conftest import rand_coprime_pair, rand_fraction
from kronlab.closed_form import (alpha_formula, in_asymptotic_regime,
                                 triple_constants)
from kronlab.exact_arith import bezout_coprime
from kronlab.greedy_triple import (Certificate, NotInAsymptoticRegime,
                                   TripleProblem, ZWindow, _aligned_step,
                                   _snap, _z_window, certificate_at,
                                   greedy_bound, greedy_en_certificate,
                                   z_windows)
from kronlab.oracle import SpectrumProblem, mu_exact
from kronlab.pair_solver import (BalancedApprox, PairProblem, best_pair_approx,
                                  negate_approx, second_best_approx)
from oracle_reference import angular_norm

HALF = Fraction(1, 2)


def _recomputed_cost(p: TripleProblem, cert: Certificate) -> Fraction:
    return angular_norm([nj * cert.x_star - tj
                         for nj, tj in zip(p.spectrum(), p.targets())])


def _strategy_e(a, b, n, lam):
    return (n * (a + b) * lam + a * b) / Fraction(2 * a * b + a * n + b * n)


def _k3(p: TripleProblem, z: Fraction) -> int:
    """The k3 of an alignment point z of p: n*z - t3, an integer."""
    k3 = p.n * z - p.t3
    assert k3.denominator == 1, z
    return int(k3)


def _pick(p: TripleProblem, E: Fraction, anchor: BalancedApprox):
    """(k3, |n*x - (t3+k3)|) of _aligned_step's pick in the window of the
    anchor's sign at E < 1/2, or None when the window holds no alignment
    point.  k3 is read from the certificate: the nudge leaves the third
    residual at most E, so its nearest integer is k3."""
    cert = _aligned_step(p, E, [anchor])
    if cert is None:
        return None
    k3 = cert.k[2]
    assert abs(p.n * cert.x_star - p.t3 - k3) <= E < HALF, (p, E, anchor)
    return k3, abs(p.n * anchor.x - p.t3 - k3)


def test_small_lambda_examples():
    p = TripleProblem(1, 2, 100, Fraction(0), Fraction(0), Fraction(1, 4))
    ba = best_pair_approx(p.pair())
    assert ba.lam == 0
    cert = _snap(p, ba)
    assert cert.cost <= Fraction(5, 200)
    assert 100 * cert.x_star - Fraction(1, 4) - cert.k[2] == 0  # third residual

    p = TripleProblem(1, 2, 100, Fraction(0), Fraction(0), Fraction(0))
    cert = _snap(p, best_pair_approx(p.pair()))
    assert cert.x_star == 0 and cert.cost == 0

    p = TripleProblem(2, 3, 300, Fraction(1, 3), Fraction(1, 2), Fraction(0))
    ba = best_pair_approx(p.pair())
    assert ba.lam == 0  # 2*(1/2) - 3*(1/3) = 0
    cert = _snap(p, ba)
    assert cert.cost <= Fraction(7, 600)
    assert cert.method == "small-lambda"


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
    with pytest.raises(ValueError, match=r"^E=499999997/3000000000 < lam=1/6$"):
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
                        x + ((a + n) * E - n * lam) / (a * n), x),
                ZWindow(x + (n * lam - (a + n) * E) / (a * n),
                        x + ((b + n) * E - n * lam) / (b * n), x))
            assert both == expected
            assert (_z_window(ba, E, p, +1), _z_window(ba, E, p, -1)) == both
        if lam > 0:
            # the public entry refuses E < lam; the construction's own E never is
            E = lam - rand_fraction(rng) * lam - Fraction(1, 10**6) * lam
            with pytest.raises(ValueError, match=f"^E={E} < lam={lam}$"):
                z_windows(ba, E, p)


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
    # the nudge of _aligned_step; third target already aligned at x: delta = 0
    p = TripleProblem(1, 2, 100, Fraction(0), HALF, Fraction(2, 3))
    ba = best_pair_approx(p.pair())
    z = ba.x
    q = TripleProblem(1, 2, 100, Fraction(0), HALF, 100 * z % 1)
    cert = _aligned_step(q, ba.lam, [ba])
    assert cert.k[2] == _k3(q, z)
    assert cert.x_star == ba.x and cert.cost == ba.lam

    # z = x + 1/300, in the window at greedy_bound's E = 13/76: balanced
    # against the slow (first) component
    z = ba.x + Fraction(1, 300)
    q = TripleProblem(1, 2, 100, Fraction(0), HALF, 100 * z % 1)
    cert = _aligned_step(q, Fraction(13, 76), [ba])
    assert cert.k[2] == _k3(q, z)
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
        # at greedy_bound's E the window is 1/n wide, so both ends are
        # alignment points; halfway to lam it is narrower and holds one end
        bound_e = _strategy_e(a, b, n, ba.lam)
        for E in (bound_e, (ba.lam + bound_e) / 2):
            w = _z_window(ba, E, TripleProblem(a, b, n, t1, t2, Fraction(0)), ba.sign)
            for z in (w.lo, w.hi):
                p = TripleProblem(a, b, n, t1, t2, n * z % 1)
                cert = _aligned_step(p, E, [ba])
                assert cert.cost == E
                if w.width() < Fraction(1, n):
                    assert cert.k[2] == _k3(p, z)
        checked += 1


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
    # the small-lambda snap raises on 119 of these draws
    assert raised > 0


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
    greedy_en_certificate's docstring on a finite range: the second check
    of the proof that lets the branch build both windows with no guard
    (_window does not check E >= lam).

    The best point's window is empty only if E_n < lam <= 1/(2(a+b)), the
    pair bound, which the proof rules out for every triple.  The
    second-best point costs 1/(a+b) - lam with lam above both (b-a)/(2n)
    and 1/(a+b) - L_n in this branch, so its window is empty for some lam
    only if E_n < L_n and E_n < 1/(a+b) - (b-a)/(2n), which the docstring
    rules out too.  Neither holds on any coprime a < b <= 12 with
    b < n < 10*b**2.
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


def test_aligned_step_returns_none_when_no_window_holds_an_alignment_point():
    """At E = lam each window of a balanced point is x +- lam/n, 2*lam/n
    wide.  With t3 = n*x + 1/2 (mod 1) the alignment points (t3 + k3)/n lie
    1/(2n) + k/n from x, so no window holds one as lam < 1/2; with
    t3 = n*x (mod 1) the point x itself is one, which the step keeps."""
    a, b, n = 1, 2, 100
    ba = best_pair_approx(PairProblem(a, b, Fraction(0), Fraction(1, 3)))
    assert 0 < ba.lam < HALF
    for shift, expected in ((HALF, None), (Fraction(0), ba.x)):
        p = TripleProblem(a, b, n, Fraction(0), Fraction(1, 3), (n * ba.x + shift) % 1)
        for sign in (+1, -1):
            w = _z_window(ba, ba.lam, p, sign)
            assert (w.lo, w.hi) == (ba.x - ba.lam / n, ba.x + ba.lam / n)
        cert = _aligned_step(p, ba.lam, [ba, replace(ba, sign=-ba.sign)])
        assert (None if cert is None else cert.x_star) == expected, shift


def test_en_case_without_an_alignment_point_raises_with_greedy_bound(monkeypatch):
    """No known input leaves both E_n windows without an alignment point
    (greedy_en_certificate's docstring).  With _aligned_step finding none
    there, the construction raises NotInAsymptoticRegime carrying
    greedy_bound's certificate, which takes one window at its own E."""
    p = TripleProblem(1, 2, 100, Fraction(0), HALF, Fraction(0))
    bound = greedy_bound(p)
    aligned_step = greedy_triple._aligned_step
    anchor_counts = []

    def none_on_the_en_windows(q, E, anchors):
        anchor_counts.append(len(anchors))
        return None if len(anchors) == 2 else aligned_step(q, E, anchors)

    monkeypatch.setattr(greedy_triple, "_aligned_step", none_on_the_en_windows)
    with pytest.raises(NotInAsymptoticRegime,
                       match=r"no alignment point at E_n=51/302 for \(1, 2, 100\)") as info:
        greedy_en_certificate(p)
    assert anchor_counts == [2, 1]
    assert info.value.certificate == bound


def _en_case_picks(p: TripleProblem):
    """(second-best pick, best pick) of the E_n case of greedy_en_certificate
    for p, each as _pick reads it, with p's sign normalised the way the
    construction does it; None when p takes another case."""
    ba = best_pair_approx(p.pair())
    if ba.sign < 0:
        p, ba = p.negated(), negate_approx(ba)
    a, b, n = p.spectrum()
    tc = triple_constants(a, b, n)
    if 2 * n * ba.lam <= b - a or ba.lam <= Fraction(1, a + b) - tc.ln:
        return None
    sb = second_best_approx(p.pair(), ba)
    assert sb.lam < tc.alpha, p  # the E_n windows need no guard
    assert (sb.sign, ba.sign) == (-1, +1), p  # each anchor's window is its own sign's
    return _pick(p, tc.alpha, sb), _pick(p, tc.alpha, ba)


def test_en_distance_tie_goes_to_the_smaller_k3():
    """greedy_en_certificate's docstring proves that on a tie of distance
    the second-best pick has the smaller k3, so ties going to the earlier
    anchor is the (distance, k3) rule.  Checked here on random E_n-case
    inputs: coprime a < b < 14, b < n < 4b^2, signed targets of
    denominator <= 12."""
    rng = random.Random(2401)
    inputs = ties = 0
    for _ in range(20000):
        b = rng.randrange(2, 14)
        a = rng.randrange(1, b)
        if math.gcd(a, b) != 1:
            continue
        n = rng.randrange(b + 1, 4 * b * b)
        qs = [rng.randrange(1, 13) for _ in range(3)]
        p = TripleProblem(a, b, n, *(Fraction(rng.randrange(-2 * q, 2 * q), q) for q in qs))
        picks = _en_case_picks(p)
        if picks is None:
            continue
        inputs += 1
        second, best = picks
        if second and best and second[1] == best[1]:
            ties += 1
            assert second[0] < best[0], (p, picks)
    assert (inputs, ties) == (2806, 461)


def test_en_distance_tie_pinned():
    # both picks lie 1/6 from their anchors; the second-best one, listed
    # first, has k3 = 1 against the best one's 6
    p = TripleProblem(1, 2, 16, Fraction(1, 4), 0, HALF)
    (k3s, rs), (k3b, rb) = _en_case_picks(p)
    assert (k3s, k3b) == (1, 6)
    assert rs == rb == Fraction(1, 6)
    cert = greedy_en_certificate(p)
    assert (cert.x_star, cert.k, cert.cost) == (Fraction(1, 12), (0, 0, 1), Fraction(1, 6))
    assert not cert.negated


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
        E = ba.lam + Fraction(1, 8 * n)
        windows = z_windows(ba, E, TripleProblem(a, b, n, t1, t2, 0))
        for w, anchor in zip(windows, (replace(ba, sign=+1), replace(ba, sign=-1))):
            assert w.width() < Fraction(1, n)
            for end in (w.lo, w.hi):
                k3 = rng.randrange(-3, 3)
                p = TripleProblem(a, b, n, t1, t2, n * end - k3)  # n*end - t3 = k3
                assert _pick(p, E, anchor) == (k3, n * abs(w.anchor_x - end))


def test_every_pick_lies_in_its_window_within_1_of_its_anchor():
    """What the nudge relies on without checking it: on every window the
    construction builds (greedy_bound's E, the L_n window and both E_n
    windows, each wherever E >= lam), the step's k3 puts (t3+k3)/n in its
    window, and n*anchor - t3 is within 1 of k3.  Each window is the one of
    its anchor's own sign."""
    rng = random.Random(3501)
    picks = 0
    for _ in range(400):
        a, b = rand_coprime_pair(rng, 12)
        n = rng.randrange(b + 1, 80 * b)
        p = TripleProblem(a, b, n, *(rand_fraction(rng) - rng.randrange(-2, 2) for _ in range(3)))
        ba = best_pair_approx(p.pair())
        tc = triple_constants(a, b, n)
        windows = [(p, ba, _strategy_e(a, b, n, ba.lam), ba.sign)]
        if ba.sign < 0:
            p, ba = p.negated(), negate_approx(ba)
        sb = second_best_approx(p.pair(), ba)
        windows += [(p, ba, tc.ln, +1), (p, sb, tc.alpha, -1), (p, ba, tc.alpha, +1)]
        for q, anchor, E, sign in windows:
            assert anchor.sign == sign, (q, E, sign)
            if E < anchor.lam:
                continue
            w = _z_window(anchor, E, q, sign)
            pick = _pick(q, E, anchor)
            if pick is None:
                continue
            k3, r = pick
            assert w.lo <= (q.t3 + k3) / n <= w.hi, (q, E, sign)
            assert r == abs(n * w.anchor_x - q.t3 - k3) < 1, (q, E, sign)
            picks += 1
    assert picks == 1239


def test_step_reads_the_window_z_windows_returns():
    """_aligned_step and z_windows read one _window: on random anchors of
    either sign, the step's k3 is the nearest integer to n*x - t3 (halves
    round down) clamped into [ceil(n*w.lo - t3), floor(n*w.hi - t3)], with
    w the z_windows window of the anchor's sign, and the step returns None
    exactly when that range is empty.  E runs from lam up to about three
    windows of width 1/n, below 1/2."""
    rng = random.Random(3601)
    seen = dict.fromkeys(("empty", "up", "down", "nearest"), 0)
    for _ in range(1500):
        a, b = rand_coprime_pair(rng, 12)
        n = rng.randrange(b + 1, 80 * b)
        p = TripleProblem(a, b, n, *(rand_fraction(rng) - rng.randrange(-2, 2) for _ in range(3)))
        lam = Fraction(rng.randrange(51), 100 * (a + b))
        anchor = BalancedApprox(x=rand_fraction(rng) - rng.randrange(-2, 2), k1=0, k2=0,
                                lam=lam, sign=rng.choice((-1, 1)))
        E = min(lam + Fraction(rng.randrange(300), 100) * Fraction(a * b, n * (a + b)),
                Fraction(49, 100))
        w = z_windows(anchor, E, p)[0 if anchor.sign > 0 else 1]
        lo_k, hi_k = math.ceil(n * w.lo - p.t3), math.floor(n * w.hi - p.t3)
        pick = _pick(p, E, anchor)
        if lo_k > hi_k:
            assert pick is None, (p, anchor, E)
            seen["empty"] += 1
            continue
        nearest = math.ceil(n * anchor.x - p.t3 - HALF)
        k3 = min(max(nearest, lo_k), hi_k)
        assert pick[0] == k3, (p, anchor, E)
        seen["nearest" if k3 == nearest else "up" if k3 > nearest else "down"] += 1
    assert seen == {"empty": 229, "up": 30, "down": 19, "nearest": 1222}


def test_pick_alignment_half_tie_takes_the_smaller_k3():
    # n*anchor - t3 = -7/2, and the window holds both -4 and -3
    p = TripleProblem(1, 2, 100, 0, 0, Fraction(7, 2))
    ba = best_pair_approx(p.pair())
    for w, anchor in zip(z_windows(ba, Fraction(1, 50), p),
                         (replace(ba, sign=+1), replace(ba, sign=-1))):
        assert w.lo <= (p.t3 - 4) / 100 and (p.t3 - 3) / 100 <= w.hi
        assert _pick(p, Fraction(1, 50), anchor) == (-4, HALF)


def test_small_lambda_half_tie_rounds_down():
    # n*x - t3 = -5/2 at x = 0: k3 = -3, so z = (5/2 - 3)/100
    p = TripleProblem(1, 2, 100, 0, 0, Fraction(5, 2))
    cert = _snap(p, best_pair_approx(p.pair()))
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
    # the step's nudge to k3 = 0, with t3 = n*z putting the alignment point at z
    ba = best_pair_approx(PairProblem(a, b, t1, t2))
    assert ba.lam > 0
    for s in (+1, -1):
        # gap exactly lam, the end of the window at E = lam: x is kept, and
        # the third residual is lam too
        z = ba.x + s * ba.lam / n
        p = TripleProblem(a, b, n, t1, t2, n * z)
        cert = _aligned_step(p, ba.lam, [ba])
        assert cert.k[2] == 0
        assert cert.x_star == ba.x and cert.cost == ba.lam
        # gap 2*lam, inside the window at E = 2*lam: x moves by lam/(f + n)
        z = ba.x + 2 * s * ba.lam / n
        p = TripleProblem(a, b, n, t1, t2, n * z)
        cert = _aligned_step(p, 2 * ba.lam, [ba])
        assert cert.k[2] == 0
        f = a if (s > 0) == (ba.sign > 0) else b
        assert cert.x_star == ba.x + s * ba.lam / (f + n)
        assert cert.cost == _recomputed_cost(p, cert)


@pytest.mark.parametrize("a, b, n", [(1, 2, 100), (2, 3, 181), (3, 5, 300), (1, 3, 204)])
@pytest.mark.parametrize("t3", [Fraction(0), HALF, Fraction(1, 3), Fraction(-5, 7)])
def test_dispatch_thresholds_are_inclusive(a, b, n, t3):
    # lam exactly (b-a)/(2n) takes the small-lambda snap
    p = TripleProblem(a, b, n, 0, Fraction((a + b) * (b - a), 2 * a * n), t3)
    ba = best_pair_approx(p.pair())
    assert 2 * n * ba.lam == b - a and ba.sign > 0
    assert greedy_en_certificate(p) == greedy_bound(p) == _snap(p, ba)
    # lam exactly 1/(a+b) - L_n takes the L_n window
    ln = triple_constants(a, b, n).ln
    p = TripleProblem(a, b, n, 0, Fraction(a + b, a) * (Fraction(1, a + b) - ln), t3)
    ba = best_pair_approx(p.pair())
    assert ba.lam == Fraction(1, a + b) - ln and ba.sign > 0
    assert greedy_en_certificate(p) == _aligned_step(p, ln, [ba])
