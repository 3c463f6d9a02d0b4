"""Closed-form Kronecker constants for triples {a, b, n} with gcd(a,b) = 1.

The angular constant alpha(a,b,n) depends on the residue class of n mod
(a+b) through R = r*T mod (a+b), where a*T == 1 (mod a+b) and n == r.
Four cases arise, with R = a (equivalently n == a^2 mod (a+b)) the special
one where alpha exceeds the binary constant beta.  The binary constant is
governed by S = (g+h)*n mod (2a+2b) for a parity-specific Bezout pair
(g, h), via two three/four-row case tables (one per value of the third
binary target).

All formulas are exact rational expressions, valid for n large, evaluated
once per triple into a TripleConstants record by triple_constants; for small
n they still evaluate but must be checked against the oracle (see
``TripleConstants.in_regime`` and the sweep verification flags).
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .exact_arith import HALF, _checked_coprime, _checked_target, bezout_coprime


@dataclass(frozen=True)
class CongruenceData:
    """Residues steering the case analysis for a triple (a, b, n).

    r, T, R live mod (a+b):  a*T == 1, n == r, R == r*T.
    r2, S live mod (2a+2b):  n == r2, S == (g+h)*r2, where (g, h) is the
    parity-specific pair below (a*g - b*h = 1 in either case):

      b odd:  2a*G - b*H = 1 with least positive G;  g = 2G, h = H (H odd).
      b even: a*G - 2b*H = 1 with least positive G;  g = G (odd), h = 2H.
    """

    r: int
    T: int
    R: int
    r2: int
    S: int
    g: int
    h: int
    parity_case: str  # 'b-odd' | 'b-even'


class BinaryCase(NamedTuple):
    value: Fraction
    case: str


def canonical_binary_pair(a: int, b: int) -> tuple[Fraction, Fraction]:
    """The binary pair target all others toggle to: (1/2,0) for b odd, (0,1/2) for b even."""
    return (HALF, Fraction(0)) if b % 2 == 1 else (Fraction(0), HALF)


@dataclass(frozen=True)
class TripleConstants:
    """The closed forms of one checked triple; build it with triple_constants.

    alpha is the four-case angular constant keyed on R.  beta is the binary
    constant: alpha unless R = a, where it drops to (n+ab)/(2(a+b)(a+n));
    gap is that case, R = a, the only one where beta < alpha.
    ln is L_n = (n+ab)/(2(an+bn+ab)), which equals alpha exactly when R = a;
    it always exceeds the pair constant 1/(2(a+b)) and, for n in the
    asymptotic regime, never exceeds alpha.
    """

    a: int
    b: int
    n: int
    congruence: CongruenceData
    alpha: Fraction
    beta: Fraction
    ln: Fraction
    gap: bool

    def binary(self, t3: Fraction) -> BinaryCase:
        """Case-table value of mu at (canonical pair, t3), with the row label.

        The label names the balanced structure of the optimum: type-1 is the
        pure pair crossing at cost 1/(2(a+b)); type-2 balances the first and
        third residuals; type-3 balances the second and third.  The t3 = 1/2
        table is the t3 = 0 table shifted by a+b in S: binary(1/2) at S has
        the value and row type of binary(0) at (S + a + b) mod 2(a+b).
        """
        a, b, n, S = self.a, self.b, self.n, self.congruence.S
        m = a + b
        t3 = _checked_target(t3)
        if t3 == 0:
            if S in (0, 1, 2 * m - 1):
                return BinaryCase(Fraction(1, 2 * m), "t3=0 type-1 (S in {0, 1, 2a+2b-1})")
            if 2 <= S <= 2 * a:
                return BinaryCase(Fraction(n + b * S, 2 * m * (b + n)),
                                  "t3=0 type-3 (2 <= S <= 2a)")
            return BinaryCase(Fraction(n + 2 * a * a + 2 * a * b - a * S, 2 * m * (a + n)),
                              "t3=0 type-2 (2a < S <= 2a+2b-2)")
        if t3 == HALF:
            if S in (m - 1, m, m + 1):
                return BinaryCase(Fraction(1, 2 * m), "t3=1/2 type-1 (S in {a+b-1, a+b, a+b+1})")
            if S < m - 1:
                return BinaryCase(Fraction(n + a * a + a * b - a * S, 2 * m * (a + n)),
                                  "t3=1/2 type-2 (0 <= S < a+b-1)")
            if S <= 3 * a + b:
                return BinaryCase(Fraction(n - a * b - b * b + b * S, 2 * m * (b + n)),
                                  "t3=1/2 type-3 (a+b+1 < S <= 3a+b)")
            return BinaryCase(Fraction(n + 3 * a * a + 3 * a * b - a * S, 2 * m * (a + n)),
                              "t3=1/2 type-2 (3a+b < S < 2a+2b)")
        raise ValueError(f"t3 must be 0 or 1/2, got {t3}")

    def witness(self) -> tuple[tuple[Fraction, Fraction, Fraction], Fraction]:
        """(t, cost): a rational target triple t whose cost attains alpha.

        R = a: the analytic witness t1 = 0, t2 = ((a+b)/a)(1/(a+b) - L_n),
        t3 = n*z2 where z2 is the upper window endpoint; its cost is L_n.
        The raw t3 may exceed 1; reduce mod 1 freely, the cost is periodic.

        R != a: the canonical binary pair plus the t3 in {0, 1/2} maximizing
        the case table, t3 = 0 on a tie; its cost is alpha (= beta here).
        """
        a, b, n = self.a, self.b, self.n
        if self.gap:
            t2 = Fraction(a + b, a) * (Fraction(1, a + b) - self.ln)
            t3 = Fraction((a + n) * (n + a * b), 2 * a * (a * n + b * n + a * b))
            return (Fraction(0), t2, t3), self.alpha
        t1, t2 = canonical_binary_pair(a, b)
        v0, vh = self.binary(Fraction(0)).value, self.binary(HALF).value
        return (t1, t2, Fraction(0) if v0 >= vh else HALF), self.alpha

    def in_regime(self) -> bool:
        """Sufficient conditions under which the greedy construction is known
        to certify alpha (E_n):

          (1) (3b-a)/(2n) <= E_n,   (2) 1/(a+b) - L_n > (b-a)/(2n).

        They imply E_n < 1/(a+b), so the predicate need not test it.  For
        R = a, E_n = L_n < 1/(a+b) - (b-a)/(2n) < 1/(a+b) by (2), as a < b.
        For R != a, write E_n = N/(2(a+b)(c+n)), with c = b when
        a < R <= 2a and c = a otherwise, so that (1) reads
        (3b-a)(a+b)(c+n) <= n*N.  E_n >= 1/(a+b) would mean N >= 2(c+n),
        which bounds n by the case:

          R < a:          N = n + a(a+b-R),    n <= a(a+b-R-2),
                          N <= 2a(a+b-R-1) < 2a(a+b);
          a < R <= 2a:    N = n + bR,          n <= b(R-2),
                          N <= 2b(R-1) <= 2b(2a-1);
          R > 2a:         N = n + a(2a+2b-R),  n <= a(2a+2b-R-2),
                          N <= 2a(2a+2b-R-1) <= 4a(b-1).

        Each bound is below (3b-a)(a+b): 2a < 3b-a; (3b-a)(a+b) - 2b(2a-1) =
        (3b+a)(b-a) + 2b > 0; (3b-a)(a+b) - 4a(b-1) = (3b+a)(b-a) + 4a > 0.
        So n*N < n(3b-a)(a+b) < (3b-a)(a+b)(c+n) and (1) fails.

        A False result does not mean the formulas are wrong for this triple,
        only that they are not backed by the construction; the oracle is the
        arbiter there.
        """
        a, b, n, en = self.a, self.b, self.n, self.alpha
        return (
            Fraction(3 * b - a, 2 * n) <= en
            and Fraction(1, a + b) - self.ln > Fraction(b - a, 2 * n)
        )


def triple_constants(a: int, b: int, n: int) -> TripleConstants:
    """Check the triple once and derive its congruence data, alpha, beta, L_n
    and the gap case."""
    _checked_coprime((a, b, n))
    m = a + b
    T = pow(a, -1, m)
    r = n % m
    R = (r * T) % m
    r2 = n % (2 * m)
    if b % 2 == 1:
        G, H = bezout_coprime(2 * a, b)
        g, h = 2 * G, H
        parity = "b-odd"
    else:
        G, H = bezout_coprime(a, 2 * b)
        g, h = G, 2 * H
        parity = "b-even"
    assert a * g - b * h == 1
    S = ((g + h) * r2) % (2 * m)
    cd = CongruenceData(r=r, T=T, R=R, r2=r2, S=S, g=g, h=h, parity_case=parity)

    ln = Fraction(n + a * b, 2 * (a * n + b * n + a * b))
    if R < a:
        alpha = Fraction(n + a * a + a * b - a * R, 2 * m * (a + n))
    elif R == a:
        alpha = ln
    elif R <= 2 * a:
        alpha = Fraction(n + b * R, 2 * m * (b + n))
    else:
        alpha = Fraction(n + 2 * a * a + 2 * a * b - a * R, 2 * m * (a + n))
    gap = R == a
    beta = Fraction(n + a * b, 2 * m * (a + n)) if gap else alpha
    return TripleConstants(a=a, b=b, n=n, congruence=cd, alpha=alpha, beta=beta, ln=ln,
                           gap=gap)


def alpha_formula(a: int, b: int, n: int) -> Fraction:
    """Four-case closed form for the angular Kronecker constant, keyed on R."""
    return triple_constants(a, b, n).alpha


def beta_formula(a: int, b: int, n: int) -> Fraction:
    """Binary Kronecker constant, TripleConstants.beta of the triple."""
    return triple_constants(a, b, n).beta


def in_asymptotic_regime(a: int, b: int, n: int) -> bool:
    """TripleConstants.in_regime of the triple (a, b, n)."""
    return triple_constants(a, b, n).in_regime()
