"""Closed-form Kronecker constants for triples {a, b, n} with gcd(a,b) = 1.

Two residues steer the closed forms: R = r*T mod (a+b), where a*T == 1 and
n == r (mod a+b), and S = (g+h)*n mod 2(a+b) for a parity-specific pair
(g, h) with a*g - b*h = 1 (see CongruenceData).  Every constant is read
from one table of 2(a+b) rows, the binary table for t3 = 0, keyed on a
position s (_row):

  type-1   s in {0, 1, 2a+2b-1}   1/(2(a+b))
  type-3   2 <= s <= 2a           (n + b*s) / (2(a+b)(b+n))
  type-2   2a < s <= 2a+2b-2      (n + a*(2a+2b-s)) / (2(a+b)(a+n))

  - S == R (mod a+b), because a*(g+h) = 1 + (a+b)*h == 1 == a*T: the two
    positions S and (S+a+b) mod 2(a+b) are R and R+a+b in some order.
  - beta is row R if R > a, else row R+a+b.  R < a and R = a land on type-2
    rows in [a+b, 2a+b]; a < R <= 2a on type-3 rows; R > 2a on type-2 rows.
    No position reaches a type-1 row: every one lies in [2, 2a+b], and
    2a+b < 2a+2b-1.
  - alpha is beta except at R = a (equivalently n == a^2 mod (a+b)), where
    it is L_n = (n+ab)/(2(an+bn+ab)), above beta: the only gap.
  - The binary table for t3 = 1/2 is row (S+a+b) mod 2(a+b).  The shift maps
    its four cases onto the three rows: S in {a+b-1, a+b, a+b+1} onto
    type-1; S < a+b-1 onto type-2 at S+a+b; a+b+1 < S <= 3a+b onto type-3
    at S-a-b; S > 3a+b onto type-2 at S-a-b.

So the closed forms are four rational expressions: L_n, 1/(2(a+b)) and the
type-3 and type-2 rows.  They are exact, valid for n large, and evaluated
once per triple into a TripleConstants record by triple_constants; for small
n they still evaluate but must be checked against the oracle (see
``TripleConstants.in_regime`` and the sweep verification flags).
"""
from __future__ import annotations

import functools
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
    """One row of the case table: mu's value there and the row's type,
    "type-1", "type-2" or "type-3" (module docstring)."""

    value: Fraction
    case: str


def canonical_binary_pair(a: int, b: int) -> tuple[Fraction, Fraction]:
    """The binary pair target all others toggle to: (1/2,0) for b odd, (0,1/2) for b even."""
    return (HALF, Fraction(0)) if b % 2 == 1 else (Fraction(0), HALF)


def _row(a: int, b: int, n: int, s: int) -> BinaryCase:
    """Row s, 0 <= s < 2(a+b), of the one case table (module docstring)."""
    m = a + b
    if s in (0, 1, 2 * m - 1):
        return BinaryCase(Fraction(1, 2 * m), "type-1")
    if s <= 2 * a:
        return BinaryCase(Fraction(n + b * s, 2 * m * (b + n)), "type-3")
    return BinaryCase(Fraction(n + a * (2 * m - s), 2 * m * (a + n)), "type-2")


@dataclass(frozen=True)
class TripleConstants:
    """The closed forms of one checked triple; build it with triple_constants.

    beta is the binary constant, row R of the case table if R > a and row
    R+a+b otherwise.  alpha is the angular constant: beta, except in the gap
    case R = a, where it is ln.  gap is that case, the only one where
    beta < alpha.  ln is L_n = (n+ab)/(2(an+bn+ab)); it always exceeds the
    pair constant 1/(2(a+b)) and, for n in the asymptotic regime, never
    exceeds alpha.
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
        """The case-table row mu takes at (canonical pair, t3): its value
        and its type.

        t3 = 0 reads row S of the case table and t3 = 1/2 row
        (S+a+b) mod 2(a+b); the two are rows R and R+a+b in some order, so in
        the asymptotic regime the larger value is beta.  The type names the
        residuals that balance at the optimum: those of a and b for type-1,
        the pair crossing at cost 1/(2(a+b)); a and n for type-2; b and n
        for type-3.  Both rows are read once per record, and every call
        returns the same BinaryCase.
        """
        t3 = _checked_target(t3)
        if t3 == 0:
            return self._tables[0]
        if t3 == HALF:
            return self._tables[1]
        raise ValueError(f"t3 must be 0 or 1/2, got {t3}")

    @functools.cached_property
    def _tables(self) -> tuple[BinaryCase, BinaryCase]:
        """The case-table rows for t3 = 0 and t3 = 1/2, rows S and
        (S+a+b) mod 2(a+b), read once per record: binary and witness share
        them."""
        a, b, n, S = self.a, self.b, self.n, self.congruence.S
        return _row(a, b, n, S), _row(a, b, n, (S + a + b) % (2 * (a + b)))

    def witness(self) -> tuple[tuple[Fraction, Fraction, Fraction], Fraction]:
        """(t, alpha): a rational target triple t and alpha, the cost the
        closed forms give it.

        R = a: the analytic witness t1 = 0, t2 = ((a+b)/a)(1/(a+b) - L_n),
        t3 = n*z2 where z2 is the upper window endpoint; its cost is L_n.
        The raw t3 may exceed 1; reduce mod 1 freely, the cost is periodic.

        R != a: the canonical binary pair plus the t3 in {0, 1/2} whose case
        table is larger, t3 = 0 on a tie.  Its cost is that table's value,
        which is alpha (= beta) only in the asymptotic regime: at (1, 7, 10)
        the larger table gives 1/11, but alpha = 3/34.
        """
        a, b, n = self.a, self.b, self.n
        if self.gap:
            t2 = Fraction(a + b, a) * (Fraction(1, a + b) - self.ln)
            t3 = Fraction((a + n) * (n + a * b), 2 * a * (a * n + b * n + a * b))
            return (Fraction(0), t2, t3), self.alpha
        t1, t2 = canonical_binary_pair(a, b)
        v0, vh = (row.value for row in self._tables)
        return (t1, t2, Fraction(0) if v0 >= vh else HALF), self.alpha

    def in_regime(self) -> bool:
        """A sufficient condition under which the greedy construction is
        known to certify alpha (E_n):

          (1) (3b-a)/(2n) <= E_n.

        It implies (2) 1/(a+b) - L_n > (b-a)/(2n) and (3) E_n < 1/(a+b),
        so the predicate tests neither.  E_n is (n+K)/(2(a+b)(n+c)) with
        c > 0 and K <= 2ab: a type-3 row s of the case table has K = b*s
        and c = b, a type-2 row K = a(2a+2b-s) < 2ab and c = a, and L_n
        K = ab and c = ab/(a+b).  So (1), (3b-a)(a+b)(n+c) <= n(n+K),
        gives (3b-a)(a+b) < n+K <= n+2ab, that is n > 3b^2 - a^2, which
        exceeds 2ab as (3b+a)(b-a) > 0.

          (2) reads n^2 > P*n + Q with P = b^2 - a^2 + ab(a+b-2)/(a+b)
              < b^2 - a^2 + ab and Q = (b-a)ab < n*b/2, and
              P + Q/n < b^2 - a^2 + ab + b/2 < 3b^2 - a^2 < n.
          (3) E_n >= 1/(a+b) would mean n+K >= 2(n+c), so n < K <= 2ab.

        A False result does not mean the formulas are wrong for this triple,
        only that they are not backed by the construction; the oracle is the
        arbiter there.
        """
        return Fraction(3 * self.b - self.a, 2 * self.n) <= self.alpha


def triple_constants(a: int, b: int, n: int) -> TripleConstants:
    """Check the triple once and derive its congruence data, beta, alpha,
    L_n and the gap case."""
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
    gap = R == a
    beta = _row(a, b, n, R if R > a else R + m).value
    return TripleConstants(a=a, b=b, n=n, congruence=cd, alpha=ln if gap else beta,
                           beta=beta, ln=ln, gap=gap)


def alpha_formula(a: int, b: int, n: int) -> Fraction:
    """Angular Kronecker constant, TripleConstants.alpha of the triple."""
    return triple_constants(a, b, n).alpha


def beta_formula(a: int, b: int, n: int) -> Fraction:
    """Binary Kronecker constant, TripleConstants.beta of the triple."""
    return triple_constants(a, b, n).beta


def in_asymptotic_regime(a: int, b: int, n: int) -> bool:
    """TripleConstants.in_regime of the triple (a, b, n)."""
    return triple_constants(a, b, n).in_regime()
