"""Constructive greedy certificates for triples {a, b, n}.

Strategy: solve the pair problem {a, b} exactly, then repair the third
coordinate.  Writing lam for the balanced pair cost at x:

  * lam <= (b-a)/(2n): snap x to the nearest z with n*z == t3 (mod 1);
    x moves by at most 1/(2n), so all three residuals stay within
    lam + b/(2n) <= (2b-a)/(2n).
  * otherwise: admissible alignment points z form an interval around x
    (a "z-window") whose endpoints depend on a target bound E >= lam;
    nudging x toward z by the balancing displacement delta keeps the
    worst residual at most E.  With E = (n(a+b)lam + ab)/(2ab+an+bn)
    each window has width exactly 1/n, so an alignment point always
    exists and mu(t) <= max(E, (2b-a)/(2n)) unconditionally.
  * to reach the closed-form constant E_n itself, large lam is handled
    by searching the window of the best balanced point together with the
    window of its complementary "second best" point; a congruence
    argument makes the shifted union long enough whenever n is large.

Certificates never trust the construction: the reported cost is the
angular norm recomputed at x_star.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .closed_form import triple_constants
from .exact_arith import _checked_coprime, _checked_target, _nearest_ratio
from .pair_solver import (BalancedApprox, PairProblem, best_pair_approx,
                          negate_approx, second_best_approx)


class NotInAsymptoticRegime(RuntimeError):
    """The construction did not certify E_n: n is too small for the
    closed-form constant to be certified by it.

    ``certificate`` carries a sound certificate as a best effort: the
    unconditional greedy_bound one when no alignment point exists at E_n,
    otherwise the constructed one whose cost exceeds E_n.
    """

    def __init__(self, message, certificate):
        super().__init__(message)
        self.certificate = certificate


@dataclass(frozen=True)
class TripleProblem:
    """Frequencies a < b < n with gcd(a, b) = 1 and rational targets."""

    a: int
    b: int
    n: int
    t1: Fraction
    t2: Fraction
    t3: Fraction

    def __post_init__(self):
        _checked_coprime((self.a, self.b, self.n))
        for name in ("t1", "t2", "t3"):
            object.__setattr__(self, name, _checked_target(getattr(self, name)))

    def pair(self) -> PairProblem:
        return PairProblem(self.a, self.b, self.t1, self.t2)

    def spectrum(self) -> tuple[int, int, int]:
        return (self.a, self.b, self.n)

    def targets(self) -> tuple[Fraction, Fraction, Fraction]:
        return (self.t1, self.t2, self.t3)

    def negated(self) -> "TripleProblem":
        return TripleProblem(self.a, self.b, self.n, -self.t1, -self.t2, -self.t3)


@dataclass(frozen=True)
class ZWindow:
    """Admissible alignment interval [lo, hi] around anchor_x.

    z_windows returns it for the public API; the construction builds none
    and reads _window's integers directly.  Neither the sign of the window
    nor the bound E and the anchor's lam that fixed the endpoints are kept.
    """

    lo: Fraction
    hi: Fraction
    anchor_x: Fraction

    def width(self) -> Fraction:
        return self.hi - self.lo


@dataclass(frozen=True)
class Certificate:
    """A certified approximate: cost is the exact angular norm at x_star.

    k holds the nearest integers to n_j*x_star - t_j.  ``negated`` records
    that the construction internally solved the negated-target problem
    (the returned x_star and k are already mapped back).
    """

    x_star: Fraction
    k: tuple[int, int, int]
    cost: Fraction
    method: str  # 'small-lambda' | 'greedy-window' (the constructions' labels)
    negated: bool = False


def _residual_ratio(nj: int, y: Fraction, tj: Fraction) -> tuple[int, int]:
    """(num, den) with num/den = nj*y - tj and den > 0."""
    return (nj * y.numerator * tj.denominator - tj.numerator * y.denominator,
            y.denominator * tj.denominator)


def _small_lambda_applies(p: TripleProblem, lam: Fraction) -> bool:
    """lam <= (b-a)/(2n), the precondition of the small-lambda snap."""
    return 2 * p.n * lam.numerator <= (p.b - p.a) * lam.denominator


def certificate_at(p: TripleProblem, x_star: Fraction, method: str) -> Certificate:
    """Evaluate a candidate point exactly and package it as a Certificate.

    Residual j is r_j/(den*q_j) over x_star = num/den and t_j's denominator
    q_j; one _nearest_ratio gives its k_j and distance (halves round down, so
    the distance is exactly <r>), the distances are compared cross-multiplied
    (the common den cancels) and the cost becomes one Fraction.
    """
    x_star = _checked_target(x_star)
    k = []
    best_r, best_q = 0, 1
    for nj, tj in ((p.a, p.t1), (p.b, p.t2), (p.n, p.t3)):
        kj, r = _nearest_ratio(*_residual_ratio(nj, x_star, tj))
        k.append(kj)
        if r * best_q > best_r * tj.denominator:
            best_r, best_q = r, tj.denominator
    cost = Fraction(best_r, x_star.denominator * best_q)
    return Certificate(x_star=x_star, k=tuple(k), cost=cost, method=method)


def _snap(p: TripleProblem, ba: BalancedApprox) -> Certificate:
    """Snap to the nearest alignment point; callers take this step only
    when _small_lambda_applies, that is lam <= (b-a)/(2n).

    x_star = z with n*z = t3 + k3 and |n*z - n*x| <= 1/2, so the third
    residual vanishes, x moves by at most 1/(2n) and the cost is at most
    lam + b/(2n) <= (2b-a)/(2n).
    """
    t3 = p.t3
    k3 = _nearest_ratio(*_residual_ratio(p.n, ba.x, t3))[0]
    return certificate_at(p, Fraction(t3.numerator + k3 * t3.denominator, p.n * t3.denominator),
                          "small-lambda")


def _window(ba: BalancedApprox, E: Fraction, p: TripleProblem, sign: int
            ) -> tuple[int, int, int, int, int]:
    """(X, L, W, lo, hi): one alignment window of a balanced point at an
    exact bound E >= lam, in integers over one denominator W.

    x = X/W, lam = L/W, and the window holds the z with
    lo/W <= n*(z - x) <= hi/W, in phase units:

      sign > 0, positive-sign: [(n*lam - (b+n)E)/b, ((a+n)E - n*lam)/a]
      sign < 0, negative-sign: [(n*lam - (a+n)E)/a, ((b+n)E - n*lam)/b]

    Its width is (E*(2ab+an+bn) - n*lam*(a+b))/(ab) phase units; it always
    contains the anchor.  W is a*b times the common denominator of x, lam
    and E, so both ends are integers over it.  E is not checked: z_windows
    checks it, and the construction passes its own E_n, L_n or
    greedy_bound's E.
    """
    a, b, n = p.a, p.b, p.n
    c = math.lcm(ba.x.denominator, ba.lam.denominator, E.denominator)
    # over the denominator c: lam = lam_, E = e_
    lam_, e_ = ba.lam.numerator * (c // ba.lam.denominator), E.numerator * (c // E.denominator)
    lo_f, hi_f = (b, a) if sign > 0 else (a, b)
    return (ba.x.numerator * (c // ba.x.denominator) * a * b, lam_ * a * b, c * a * b,
            hi_f * (n * lam_ - (lo_f + n) * e_), lo_f * ((hi_f + n) * e_ - n * lam_))


def _z_window(ba: BalancedApprox, E: Fraction, p: TripleProblem, sign: int) -> ZWindow:
    """The _window of sign as a ZWindow: [x + lo/(nW), x + hi/(nW)]."""
    X, _, W, lo, hi = _window(ba, E, p, sign)
    n = p.n
    return ZWindow(lo=Fraction(n * X + lo, n * W), hi=Fraction(n * X + hi, n * W), anchor_x=ba.x)


def z_windows(ba: BalancedApprox, E: Fraction, p: TripleProblem) -> tuple[ZWindow, ZWindow]:
    """Both alignment windows (positive-sign, negative-sign) for a balanced
    point at bound E >= lam; see _window.  Raises ValueError on an inexact
    E or on E < lam."""
    E = _checked_target(E)
    if E < ba.lam:
        raise ValueError(f"E={E} < lam={ba.lam}")
    return _z_window(ba, E, p, +1), _z_window(ba, E, p, -1)


def _aligned_step(p: TripleProblem, E: Fraction, anchors) -> Certificate | None:
    """Nudge one anchor toward an alignment point of its window at E.

    anchors is a list of balanced points, each read in the _window of its
    own sign, in phase units n*z - t3 over den = W*q, with q the
    denominator of t3: the anchor lies at s/den and the window's ends at
    (s + q*lo)/den and (s + q*hi)/den, so its alignment points are the k3
    from the ceil of the one to the floor of the other.  The pick is the
    nearest integer to s/den (halves round down) clamped into that range,
    so it minimizes |n*x - (t3+k3)| with ties to the smaller k3; then
    diff = k3*den - s is n*(z - x) for the alignment point z = (t3+k3)/n.
    The step takes the pick nearest its own anchor, and a tie of distance
    goes to the earlier anchor.  Returns None when no window holds an
    alignment point.

    The nudge: the pick lies in a window that holds its anchor, so
    |diff| < den.  If z is within lam/n of x, x is kept; otherwise x moves
    by the displacement that balances the third residual against the
    growing pair residual:

      positive-sign, z <= x:  delta = (|nx-nz| - lam)/(b+n), x_star = x - delta
      positive-sign, z >  x:  delta = (|nx-nz| - lam)/(a+n), x_star = x + delta
      negative-sign, z <= x:  delta = (|nx-nz| - lam)/(a+n), x_star = x - delta
      negative-sign, z >  x:  delta = (|nx-nz| - lam)/(b+n), x_star = x + delta

    The gap |nx-nz| = |diff| and lam are integers over den; a Fraction is
    built only for x_star.
    """
    n, q = p.n, p.t3.denominator
    best = None
    for ba in anchors:
        X, L, W, lo, hi = _window(ba, E, p, ba.sign)
        den = W * q
        s = n * X * q - p.t3.numerator * W  # n*x - t3 = s/den
        lo_k, hi_k = -(-(s + q * lo) // den), (s + q * hi) // den
        if lo_k > hi_k:
            continue
        diff = min(max(_nearest_ratio(s, den)[0], lo_k), hi_k) * den - s
        # distance |diff|/den, cross-multiplied; a tie keeps the earlier anchor
        if best is None or abs(diff) * best[1] < abs(best[0]) * den:
            best = diff, den, ba, X * q, L * q
    if best is None:
        return None
    diff, den, ba, x_, lam_ = best
    gap = abs(diff)
    if gap <= lam_:
        return certificate_at(p, ba.x, "greedy-window")
    f = p.a + n if (diff > 0) == (ba.sign > 0) else p.b + n
    # x_star = x +- (gap - lam)/f, over the denominator den*f
    step = gap - lam_ if diff > 0 else lam_ - gap
    return certificate_at(p, Fraction(x_ * f + step, den * f), "greedy-window")


def greedy_bound(p: TripleProblem) -> Certificate:
    """Unconditional certificate with cost at most

        max((n(a+b)*mu_pair + ab)/(2ab+an+bn), (2b-a)/(2n)).

    Total for every valid triple: at this E the window width is exactly
    1/n, so an alignment point always exists.
    """
    a, b, n = p.a, p.b, p.n
    ba = best_pair_approx(p.pair())
    if _small_lambda_applies(p, ba.lam):
        return _snap(p, ba)
    lam = ba.lam
    E = Fraction(n * (a + b) * lam.numerator + a * b * lam.denominator,
                 (2 * a * b + a * n + b * n) * lam.denominator)
    cert = _aligned_step(p, E, [ba])
    assert cert is not None, "a window of width 1/n holds an alignment point"
    return cert


def greedy_en_certificate(p: TripleProblem) -> Certificate:
    """Certificate with cost at most the closed-form constant E_n.

    Normalizes the sign of the best balanced point (replacing t by -t if
    needed; the cost is negation-invariant), then dispatches:

      lam <= (b-a)/(2n)        -> small-lambda snap, cost <= (2b-a)/(2n)
      lam <= 1/(a+b) - L_n     -> positive window at E = L_n (width >= 1/n)
      otherwise                -> negative window of the second-best point
                                  and positive window of the best point,
                                  both at E = E_n

    _aligned_step reads each anchor in the window of its own sign.  After
    the normalization the best point has sign +1, and the second-best one
    has sign -1: in _balanced_at's units, with q the product of the pair's
    target denominators, the best point's signed residual is signed with
    0 <= signed <= q/2, as lam <= 1/(2(a+b)); the Bezout shift makes the
    second-best one signed - q*(ag - bh) = signed - q < 0, as ag - bh = 1.
    So the anchors [sb, ba] are the two windows above.

    In the last case the alignment point nearest its own anchor wins, and a
    tie of distance goes to the second-best point, the earlier anchor.  On
    such a tie the second-best pick also has the smaller k3, so this rule
    picks what a (distance, k3) key would, with no k3 term.  With d and d'
    the residuals n*anchor - (t3+k3) of the best and the second-best pick,
    the anchors lie (g+h)/(a+b) apart, so k3 - k3' = n(g+h)/(a+b) - d + d'.
    That is positive unless d = -d' >= n(g+h)/(2(a+b)).  Each pick is the
    nearest integer clamped into the k3 range of a window that holds its
    anchor, so |d| < 1, and n < 2(a+b)/(g+h).  The case has
    (b-a)/(2n) < lam <= 1/(2(a+b)), so n > b^2 - a^2; both bounds together
    leave b = a+1, g+h = 2a-1, hence (1, 2) with n in {4, 5}.  There the
    best window reaches x - 1/6 only if E_n >= (n/3 + n*lam)/(n+2) > 11/36,
    but E_n = 3/14.

    Raises NotInAsymptoticRegime when no alignment point exists in the
    final case (with a greedy_bound fallback attached), and on every branch
    when the recomputed cost exceeds E_n (with that certificate attached):
    below the regime the small-lambda snap can cost more than E_n, e.g.
    5/24 > 1/7 for (2, 5, 12) at t = (0, 0, 1/2).  For n in the asymptotic
    regime neither happens, for any residue class R.

    The best window of the final case is never empty: lam <= 1/(2(a+b))
    <= E_n for every valid triple.  By the case of R, E_n >= 1/(2(a+b))
    reduces to a+b-R >= 1 for R < a, to R >= 1 for a < R <= 2a, and to
    2(a+b)-R >= 1 for R > 2a; all three hold, as R < a+b always.  For
    R = a, E_n = L_n > 1/(2(a+b)) since (n+ab)(a+b) > an+bn+ab.  Nor is
    the second-best one: it costs lam' = 1/(a+b) - lam < E_n, because the
    case has lam > (b-a)/(2n) and lam > 1/(a+b) - L_n, and no triple has
    both E_n < L_n and E_n < 1/(a+b) - (b-a)/(2n).  With E_n written
    (n+K)/(2(a+b)(n+c)) as in TripleConstants.in_regime, the second needs
    n > (a+b)(b-a) + K - 2c.  The first is false for R = a and on a type-2
    row R > 2a; it needs n < ab(b-j)/((a+b)(j-1)+a) on a type-3 row
    s = a+j and n < abR/((a+b)(a-R-1)+b) <= aR on the type-2 row R+a+b,
    R < a.  The bounds clash: for j = 1, n < b(b-1) against
    n > b(b-1) + a(b-a); for j >= 2, n < b^2/2 against n > b^2; for R < a,
    n < aR against n > b + ab.  So lam' < E_n, and _window, which does
    not check E >= lam, takes the second-best point with no guard.  The final
    case fails only when neither window holds an alignment point, which no
    known input reaches; that raise stays until a proof that the two
    windows always hold one.

    Why negate instead of picking the window by sign, as greedy_bound
    does: the two are not the same certificate.  _aligned_step's pick
    breaks a half-integer tie toward the smaller k3 of the problem it is
    given, so on the negated problem it rounds the original k3 up.  Picking the
    window by sign with ties rounding down changed 62 of 30 000 random
    certificates (6 959 of them negative-sign), e.g. (1, 3, 204) at
    t = (0, 2/3, 1/2).  Reproducing all of them would need an orientation
    parameter in _snap and _aligned_step, because greedy_bound rounds
    ties down for either sign (mirroring it too changed 5 of 30 000 of its
    certificates): a new parameter for about 15 lines.
    """
    a, b, n = p.a, p.b, p.n
    ba = best_pair_approx(p.pair())
    negated = ba.sign < 0
    q, ba = (p.negated(), negate_approx(ba)) if negated else (p, ba)
    tc = triple_constants(a, b, n)
    en, ln = tc.alpha, tc.ln

    lam = ba.lam
    if _small_lambda_applies(q, lam):
        cert = _snap(q, ba)
    elif (a + b) * lam.numerator * ln.denominator \
            <= lam.denominator * (ln.denominator - (a + b) * ln.numerator):
        # lam <= 1/(a+b) - L_n: the L_n window is at least 1/n wide
        cert = _aligned_step(q, ln, [ba])
    else:
        sb = second_best_approx(q.pair(), ba)
        cert = _aligned_step(q, en, [sb, ba])
    if cert is None:  # only the E_n windows can lack an alignment point
        raise NotInAsymptoticRegime(
            f"no alignment point at E_n={en} for ({a}, {b}, {n})", greedy_bound(p))

    if negated:
        cert = Certificate(x_star=-cert.x_star, k=tuple(-kj for kj in cert.k),
                           cost=cert.cost, method=cert.method, negated=True)
    if cert.cost > en:
        raise NotInAsymptoticRegime(
            f"{cert.method} certificate cost {cert.cost} exceeds E_n={en} "
            f"for ({a}, {b}, {n})", cert)
    return cert
