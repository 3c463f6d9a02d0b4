"""Exact solution of the two-frequency approximation problem {a, b}.

For coprime a < b and rational targets (t1, t2) the minimax cost

    mu_{a,b}(t1, t2) = min_x max(<a*x - t1>, <b*x - t2>)

is attained at a "balanced" point where the two residuals are equal in
magnitude and opposite in sign:

    a*x - (t1 + k1) = -(b*x - (t2 + k2)),  x = (t1 + k1 + t2 + k2)/(a + b).

The signed residual equals (a*t2 - b*t1 - m)/(a + b) where m = b*k1 - a*k2
ranges over the integers, so the optimum picks m in {floor(d), floor(d)+1}
with d = a*t2 - b*t1.  The complementary choice of m yields the "second
best" balanced point whose cost is 1/(a+b) - mu.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .exact_arith import (_checked_coprime, _checked_target, _nearest_ratio,
                          bezout_coprime)


@dataclass(frozen=True)
class PairProblem:
    """Coprime frequencies a < b with rational targets t1, t2."""

    a: int
    b: int
    t1: Fraction
    t2: Fraction

    def __post_init__(self):
        _checked_coprime((self.a, self.b))
        object.__setattr__(self, "t1", _checked_target(self.t1))
        object.__setattr__(self, "t2", _checked_target(self.t2))


@dataclass(frozen=True)
class BalancedApprox:
    """A balanced solution: a*x-(t1+k1) = -(b*x-(t2+k2)), cost lam = |a*x-(t1+k1)|.

    sign is the sign of the first residual (+1 by convention when lam == 0).
    """

    x: Fraction
    k1: int
    k2: int
    lam: Fraction
    sign: int


def _balanced_at(p: PairProblem, k1: int, k2: int) -> BalancedApprox:
    """The balanced point of p for the integer shifts (k1, k2).

    In units of 1/(q1*q2), the targets' denominators, T_j = t_j + k_j; then
    x = (T1 + T2)/((a+b)*q1*q2) and the signed first residual
    a*x - T1/(q1*q2) = (a*T2 - b*T1)/((a+b)*q1*q2).
    """
    q = p.t1.denominator * p.t2.denominator
    big_t1 = p.t1.numerator * p.t2.denominator + k1 * q
    big_t2 = p.t2.numerator * p.t1.denominator + k2 * q
    signed = p.a * big_t2 - p.b * big_t1
    den = (p.a + p.b) * q
    return BalancedApprox(x=Fraction(big_t1 + big_t2, den), k1=k1, k2=k2,
                          lam=Fraction(abs(signed), den), sign=-1 if signed < 0 else 1)


def _pair_residue(p: PairProblem) -> tuple[int, int]:
    """(num, den) with num/den = a*t2 - b*t1."""
    q1, q2 = p.t1.denominator, p.t2.denominator
    return p.a * p.t2.numerator * q1 - p.b * p.t1.numerator * q2, q1 * q2


def mu_pair(p: PairProblem) -> Fraction:
    """Exact pair cost; always in [0, 1/(2(a+b))]."""
    num, den = _pair_residue(p)
    return Fraction(_nearest_ratio(num, den)[1], (p.a + p.b) * den)


def best_pair_approx(p: PairProblem) -> BalancedApprox:
    """Balanced best approximate realizing mu_pair(p).

    (k1, k2) solves b*k1 - a*k2 = m* via the Bezout pair, shifted by the
    homogeneous solution (a*s, b*s) to the representative with smallest
    |k1| (ties to the smaller k1), which keeps x in a small window.
    """
    a, b = p.a, p.b
    m = _nearest_ratio(*_pair_residue(p))[0]
    g, h = bezout_coprime(a, b)
    k1, k2 = -h * m, -g * m
    s = _nearest_ratio(-k1, a)[0]
    return _balanced_at(p, k1 + a * s, k2 + b * s)


def second_best_approx(p: PairProblem, best: BalancedApprox) -> BalancedApprox:
    """Balanced point with the complementary cost 1/(a+b) - mu_pair(p).

    Obtained from ``best`` by the Bezout shift (k1, k2) -> (k1 - h, k2 - g),
    mirrored when the best point's residual is negative; the shift moves x
    by sign*(g+h)/(a+b) and flips the residual sign.
    """
    g, h = bezout_coprime(p.a, p.b)
    return _balanced_at(p, best.k1 - best.sign * h, best.k2 - best.sign * g)


def negate_approx(ba: BalancedApprox) -> BalancedApprox:
    """The balanced solution of the negated-target problem.

    If ba solves (t1, t2) then its pointwise negation solves (-t1, -t2)
    with the same cost and opposite sign.
    """
    return BalancedApprox(x=-ba.x, k1=-ba.k1, k2=-ba.k2, lam=ba.lam,
                          sign=1 if ba.lam == 0 else -ba.sign)
