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


class NotApplicableError(ValueError):
    """Dispatch guard: the small-lambda construction needs lam <= (b-a)/(2n)."""


class EmptyWindowError(ValueError):
    """Raised when a z-window is requested with E < lam."""


class WindowViolationError(ValueError):
    """Raised when modify() is handed an alignment point outside its window."""


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

    case_tag 'positive-sign' is the window for a balanced point whose
    first residual is +lam; 'negative-sign' for -lam.  Its readers
    (_pick_alignment, modify, the E_n pick) need only these four fields, so
    the bound E and the anchor's lam that fixed the endpoints are not kept.
    """

    lo: Fraction
    hi: Fraction
    case_tag: str
    anchor_x: Fraction

    def width(self) -> Fraction:
        return self.hi - self.lo

    def contains(self, z: Fraction) -> bool:
        return self.lo <= z <= self.hi


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


def _over_common_den(ba: BalancedApprox) -> tuple[int, int, int]:
    """(X, L, D) with x = X/D and lam = L/D."""
    x, lam = ba.x, ba.lam
    den = math.lcm(x.denominator, lam.denominator)
    return x.numerator * (den // x.denominator), lam.numerator * (den // lam.denominator), den


def _small_lambda_applies(p: TripleProblem, lam: Fraction) -> bool:
    """lam <= (b-a)/(2n), the precondition of the small-lambda snap."""
    return 2 * p.n * lam.numerator <= (p.b - p.a) * lam.denominator


def _alignment_point(p: TripleProblem, k3: int) -> Fraction:
    """z = (t3 + k3)/n, where the third residual vanishes."""
    return Fraction(p.t3.numerator + k3 * p.t3.denominator, p.n * p.t3.denominator)


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


def small_lambda_certificate(p: TripleProblem, ba: BalancedApprox) -> Certificate:
    """Snap to the nearest alignment point when lam <= (b-a)/(2n).

    x_star = z with n*z = t3 + k3 and |n*z - n*x| <= 1/2, so the third
    residual vanishes, x moves by at most 1/(2n) and the cost is at most
    lam + b/(2n) <= (2b-a)/(2n).
    """
    if not _small_lambda_applies(p, ba.lam):
        raise NotApplicableError(
            f"lam={ba.lam} exceeds (b-a)/(2n)={Fraction(p.b - p.a, 2 * p.n)}")
    k3 = _nearest_ratio(*_residual_ratio(p.n, ba.x, p.t3))[0]
    return certificate_at(p, _alignment_point(p, k3), "small-lambda")


def _z_window(ba: BalancedApprox, E: Fraction, p: TripleProblem, sign: int) -> ZWindow:
    """One alignment window of a balanced point at bound E >= lam:

    sign > 0, positive-sign: [x + (n*lam - (b+n)E)/(bn), x + ((a+n)E - n*lam)/(an)]
    sign < 0, negative-sign: [x + (n*lam - (a+n)E)/(an), x + ((b+n)E - n*lam)/(bn)]

    Its width is E*(2ab+an+bn)/(abn) - lam*(a+b)/(ab); it always contains
    the anchor.  x, lam and E are put over one denominator, so each
    endpoint is one Fraction.
    """
    E = _checked_target(E)
    X, L, D = _over_common_den(ba)
    # over the denominator D*E.denominator: x = x_, lam = lam_, E = e_
    x_, lam_, e_, den = X * E.denominator, L * E.denominator, E.numerator * D, D * E.denominator
    if e_ < lam_:
        raise EmptyWindowError(f"E={E} < lam={ba.lam}")
    n = p.n
    lo_f, hi_f, tag = (p.b, p.a, "positive-sign") if sign > 0 else (p.a, p.b, "negative-sign")
    return ZWindow(lo=Fraction(lo_f * n * x_ + n * lam_ - (lo_f + n) * e_, lo_f * n * den),
                   hi=Fraction(hi_f * n * x_ + (hi_f + n) * e_ - n * lam_, hi_f * n * den),
                   case_tag=tag, anchor_x=ba.x)


def z_windows(ba: BalancedApprox, E: Fraction, p: TripleProblem) -> tuple[ZWindow, ZWindow]:
    """Both alignment windows (positive-sign, negative-sign) for a balanced
    point at bound E >= lam; see _z_window."""
    return _z_window(ba, E, p, +1), _z_window(ba, E, p, -1)


def modify(ba: BalancedApprox, z: Fraction, p: TripleProblem,
           window: ZWindow | None = None) -> Certificate:
    """Nudge the balanced point toward the alignment point z.

    z must satisfy n*z == t3 (mod 1) and |n*z - n*x| <= 1 (pass the
    admissibility window to have it enforced as well).  If z is within
    lam/n of x, x is kept; otherwise x moves by the displacement that
    balances the third residual against the growing pair residual:

      positive-sign, z <= x:  delta = (|nx-nz| - lam)/(b+n), x_star = x - delta
      positive-sign, z >  x:  delta = (|nx-nz| - lam)/(a+n), x_star = x + delta
      negative-sign, z <= x:  delta = (|nx-nz| - lam)/(a+n), x_star = x - delta
      negative-sign, z >  x:  delta = (|nx-nz| - lam)/(b+n), x_star = x + delta

    The gap |nx-nz|, lam and delta are integers over the denominator of
    z times that of (x, lam).
    """
    a, b, n = p.a, p.b, p.n
    z = _checked_target(z)
    num, den = _residual_ratio(n, z, p.t3)
    if num % den:
        raise ValueError(f"n*z - t3 = {Fraction(num, den)} is not an integer")
    if window is not None and not window.contains(z):
        raise WindowViolationError(f"z={z} outside [{window.lo}, {window.hi}]")
    X, L, D = _over_common_den(ba)
    # over the denominator gap_den: z - x = diff, |nz - nx| = gap, lam = lam_
    diff = z.numerator * D - X * z.denominator
    gap, lam_, gap_den = n * abs(diff), L * z.denominator, D * z.denominator
    if gap > gap_den:
        raise WindowViolationError(f"|n*z - n*x| = {Fraction(gap, gap_den)} > 1")
    if gap <= lam_:
        return certificate_at(p, ba.x, "greedy-window")
    slow_side = (diff > 0) if ba.sign > 0 else (diff <= 0)
    f = (a + n) if slow_side else (b + n)
    # x_star = x +- (gap - lam)/f, over the denominator gap_den*f
    step = gap - lam_ if diff > 0 else lam_ - gap
    return certificate_at(p, Fraction(X * z.denominator * f + step, gap_den * f),
                          "greedy-window")


def _pick_alignment(w: ZWindow, p: TripleProblem):
    """Best admissible k3 in the window: minimizes |n*anchor - (t3+k3)|,
    ties to the smaller k3.  Returns None when the window holds no
    alignment point."""
    t3 = p.t3
    lo_num, lo_den = _residual_ratio(p.n, w.lo, t3)
    hi_num, hi_den = _residual_ratio(p.n, w.hi, t3)
    lo_k = -(-lo_num // lo_den)  # ceil(n*lo - t3)
    hi_k = hi_num // hi_den      # floor(n*hi - t3)
    if lo_k > hi_k:
        return None
    k3 = _nearest_ratio(*_residual_ratio(p.n, w.anchor_x, t3))[0]
    return min(max(k3, lo_k), hi_k)


def _window_step(ba: BalancedApprox, E: Fraction, p: TripleProblem, sign: int) -> Certificate:
    """Nudge ba toward the best alignment point of its sign's window at E.

    The caller guarantees the window is at least 1/n wide, so it holds an
    alignment point."""
    w = _z_window(ba, E, p, sign)
    k3 = _pick_alignment(w, p)
    assert k3 is not None, "a window of width >= 1/n holds an alignment point"
    return modify(ba, _alignment_point(p, k3), p, window=w)


def greedy_bound(p: TripleProblem) -> Certificate:
    """Unconditional certificate with cost at most

        max((n(a+b)*mu_pair + ab)/(2ab+an+bn), (2b-a)/(2n)).

    Total for every valid triple: at this E the window width is exactly
    1/n, so an alignment point always exists.
    """
    a, b, n = p.a, p.b, p.n
    ba = best_pair_approx(p.pair())
    if _small_lambda_applies(p, ba.lam):
        return small_lambda_certificate(p, ba)
    lam = ba.lam
    E = Fraction(n * (a + b) * lam.numerator + a * b * lam.denominator,
                 (2 * a * b + a * n + b * n) * lam.denominator)
    return _window_step(ba, E, p, ba.sign)


def greedy_en_certificate(p: TripleProblem) -> Certificate:
    """Certificate with cost at most the closed-form constant E_n.

    Normalizes the sign of the best balanced point (replacing t by -t if
    needed; the cost is negation-invariant), then dispatches:

      lam <= (b-a)/(2n)        -> small-lambda snap, cost <= (2b-a)/(2n)
      lam <= 1/(a+b) - L_n     -> positive window at E = L_n (width >= 1/n)
      otherwise                -> positive window of the best point and
                                  negative window of the second-best point,
                                  both at E = E_n

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
    R = a, E_n = L_n > 1/(2(a+b)) since (n+ab)(a+b) > an+bn+ab.  The
    second-best point costs 1/(a+b) - lam; when that exceeds E_n its window
    is empty, which is no failure: it adds no alignment point to the pick.
    So the final case fails only when neither window holds an alignment
    point, which no known input reaches; that raise stays until a proof
    that the two windows always hold one.

    Why negate instead of picking the window by sign, as greedy_bound
    does: the two are not the same certificate.  _pick_alignment breaks a
    half-integer tie toward the smaller k3 of the problem it is given, so
    on the negated problem it rounds the original k3 up.  Picking the
    window by sign with ties rounding down changed 62 of 30 000 random
    certificates (6 959 of them negative-sign), e.g. (1, 3, 204) at
    t = (0, 2/3, 1/2).  Reproducing all of them would need an orientation
    parameter in small_lambda_certificate and _pick_alignment, because
    greedy_bound rounds ties down for either sign (mirroring it too changed
    5 of 30 000 of its certificates): a new parameter for about 15 lines.
    """
    a, b, n = p.a, p.b, p.n
    q = p
    pair = p.pair()
    negated = False
    ba = best_pair_approx(pair)
    if ba.sign < 0:
        q = p.negated()
        ba = negate_approx(ba)
        negated = True
    tc = triple_constants(a, b, n)
    en, ln = tc.alpha, tc.ln

    lam = ba.lam
    if _small_lambda_applies(q, lam):
        cert = small_lambda_certificate(q, ba)
    elif (a + b) * lam.numerator * ln.denominator \
            <= lam.denominator * (ln.denominator - (a + b) * ln.numerator):
        # lam <= 1/(a+b) - L_n: the L_n window is at least 1/n wide
        cert = _window_step(ba, ln, q, +1)
    else:
        sb = second_best_approx(q.pair() if negated else pair, ba)
        anchors = ((ba, +1), (sb, -1)) if sb.lam <= en else ((ba, +1),)
        picks = []
        for anchor_ba, sign in anchors:
            w = _z_window(anchor_ba, en, q, sign)
            k3 = _pick_alignment(w, q)
            if k3 is not None:
                num, den = _residual_ratio(n, w.anchor_x, q.t3)
                picks.append((Fraction(abs(num - k3 * den), den), k3, w, anchor_ba))
        if not picks:
            raise NotInAsymptoticRegime(
                f"no alignment point at E_n={en} for ({a}, {b}, {n})",
                greedy_bound(p))
        picks.sort(key=lambda item: (item[0], item[1], item[2].case_tag))
        _, k3, w, anchor_ba = picks[0]
        cert = modify(anchor_ba, _alignment_point(q, k3), q, window=w)

    if negated:
        cert = Certificate(x_star=-cert.x_star, k=tuple(-kj for kj in cert.k),
                           cost=cert.cost, method=cert.method, negated=True)
    if cert.cost > en:
        raise NotInAsymptoticRegime(
            f"{cert.method} certificate cost {cert.cost} exceeds E_n={en} "
            f"for ({a}, {b}, {n})", cert)
    return cert
