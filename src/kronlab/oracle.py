"""Independent brute-force ground truth for approximation costs.

mu_exact minimizes F(x) = max_j <n_j*x - t_j> over x in [0, 1) by exact
enumeration of a finite candidate set that provably contains every minimizer.
Candidates:

  * balanced crossings  x = (t_i + t_j + s)/(n_i + n_j), i < j, s integer;
  * valleys             x = (t_j + k)/n_j;
  * peaks               x = (t_j + k + 1/2)/n_j.

When d >= 2 every minimizer is a balanced crossing.  F is 1-periodic and
piecewise linear, and each component has slope +n_j or -n_j on either side
of any point.  At a local minimum x of F, some active component j (one with
<n_j*x - t_j> = F(x)) rises to the right of x, so n_j*x - t_j - k_j = F(x)
for its nearest integer k_j; and some active component i falls to the left
of x, so n_i*x - t_i - k_i = -F(x).  If i = j, then F(x) = 0, every
component vanishes at x, and x lies on every crossing progression.  If
i != j, adding the two equations gives (n_i + n_j)*x - t_i - t_j = k_i + k_j,
an integer.  So the scan walks the crossings only; with d = 1 there are no
pairs, and it walks the valleys and peaks, where the one component's
minimum, 0, is attained.  The valleys and peaks stay in the counted
candidate set.

Each progression has an integer grid of its own.  Let D be a common
denominator of the targets (mu_exact takes their lcm), so every t_j*D is an
integer.  The crossings of (i, j) are x = Y/M with M = (n_i + n_j)*D and
Y = (t_i + t_j)*D + s*D: the integers Y in [0, M) congruent to
(t_i + t_j)*D modulo D, a progression of step D.
The valleys and peaks of n_j, x = (2*t_j + k)/(2*n_j), are likewise the
integers Y in [0, M) congruent to 2*t_j*D modulo D, with M = 2*n_j*D.
At x = Y/M, n_k*x - t_k = (n_k*Y - t_k*M)/M, and t_k*M = (t_k*D)*(M/D) is an
integer, so the distance <n_k*x - t_k> is min(r, M - r)/M for the integer
r = (n_k*Y - t_k*M) mod M.  So within one progression the scan compares
integers on a common denominator M, and M stays small: it is one pair sum
(or 2*n_j) times D, not the lcm of all of them.

Across progressions the incumbent is kept as integers too: the value bv/bM
at x = bY/bM.  A candidate of progression M with distance worst/M is
rejected when worst > thr = floor(bv*M/bM).  That floor loses nothing:
worst is an integer, so worst > thr exactly when worst/M > bv/bM.  A kept
candidate replaces the incumbent when worst*bM < bv*M (a smaller value) or
Y*bM < bY*M (a tie at a smaller x), both cross-multiplied, so the scan is
exact with no tolerance anywhere, and builds a Fraction only for its result.

The scan walks each progression in turn, with no merged or sorted candidate
list.  An explicit tie rule makes that order irrelevant: the incumbent
(value, x) is replaced only by a lexicographically smaller pair, so the
result is the smallest minimising x.  At each point it walks, the largest
frequency's term is evaluated first, and most points are rejected on it
alone.

Within a progression the scan walks only points that the smallest
frequency n_1 admits.  A point Y of progression M can be kept only if its
n_1 term is at most thr, that is, if r = n_1*Y - o_1 lies within thr of
some multiple of M, with o_1 = t_1*M.  Any walk that visits every such
point, in whatever order, returns what a walk of every point returns: a
point it skips has its n_1 term, so its value, above the thr in force when
the walk passes it, and thr never falls below the final minimum, so that
point is neither the minimum nor a tie of it; among the points it visits
the tie rule makes the order irrelevant.  thr is read afresh for each
range of points the walk hands to the evaluation loop; a stale thr is only
larger, so it admits more points, never fewer.  Every bound is inclusive,
so a point whose n_1 term equals thr is walked, and the smallest-x tie
rule sees every tie.  Two walks feed one evaluation loop, and one rule
picks between them: the window walk when 8*n_2*D <= M, with n_2 the
second-smallest frequency, the residue walk otherwise.

The residue walk.  With m = M/D and Y = s + D*k, k in [0, m),
n_1*Y - o_1 = c_0 + n_1*D*k with c_0 = n_1*s - o_1, and n_1*D*k modulo
M = D*m is D*(n_1*k mod m), which runs over the multiples of D*g,
g = gcd(n_1, m).  So r modulo M lies in the class c_0 + D*g*Z, and each
member r of the class is met by the k with

    (n_1/g)*k == (r - c_0)/(D*g)  (mod m/g),

the one residue k_0 = (r - c_0)/(D*g) * (n_1/g)^-1 modulo m/g (the
congruence the candidate count below solves too), and by its g lifts
Y = s + D*k_0 + l*M/g, l in [0, g), whose n_1 term is |r|/M.  So the scan
takes one gcd and one modular inverse per progression, then walks the
members of the class in (-M/2, M/2], each once, outward from 0 in
increasing |r| (the nonnegative one first on a tie), each with its lifts
below the end; a member whose first lift is not below the end holds no
point and is not handed on (under halving, one of r and -r usually has
none).  It stops at the first r with |r| > thr, since every later
r is at least as far out and thr only falls, or at the first r outside
(-M/2, M/2], whose points were walked already.  So it walks exactly the
points whose n_1 term is within the thr in force, about 2*mu of the
progression, and computes no window per k.  With d = 2 a crossing's value
is its n_1 term (at a crossing both terms are equal), so the first r that
holds a point gives the minimum and only its ties follow.

The window walk.  The Y whose r lies within thr of k*M form, for each k,
the window [ceil((o_1 + k*M - thr)/n_1), floor((o_1 + k*M + thr)/n_1)].
The scan walks the windows in increasing k, each time the first window
that ends at or after the first point not yet passed, from that point on
and on the progression's residue modulo D, so overlapping windows are
walked once and Y only grows.  Within each window of n_1 it walks, by the
same argument, only the sub-windows of n_2: for each k those Y with
n_2*Y - o_2 within thr of k*M, o_2 = t_2*M, clipped to the window of n_1.
A point is walked only if both of its two smallest terms are within thr,
so the walked share falls to about (2*mu)^2.  A window costs a few
operations of its own, so the windows are taken only where the
sub-windows number at most an eighth of the points, 8*n_2*D <= M (those
of n_1 are then fewer still).  So neither a d = 2 spectrum nor the
(n_1, n_2) crossing of a triple takes windows: they and the valleys and
peaks of d = 1 are walked by residue.

Half-integer targets (every 2*t_j an integer, as in beta's {0, 1/2}^d) make
F symmetric: F(1 - x) = max_j <-(n_j*x + t_j)> = max_j <n_j*x - t_j + 2*t_j>
= F(x).  The reflection Y -> M - Y also maps each progression onto itself:
M is a multiple of D, the residue modulo D is t_i*D + t_j*D or 2*t_j*D, and
each 2*t_j*D is a multiple of D, so each residue equals its negative.  So a minimiser x above
1/2 has a mirror 1 - x below 1/2 that is a minimiser too, the smallest
minimiser lies in [0, 1/2], and the scan walks each progression only up to
Y = M/2 (included: x = 1/2 is its own mirror).  Value, x_star,
k_star and the tie rule are unchanged.  Other targets are scanned over all
of [0, 1).

The seed.  Walked from the incumbent the (n_1, n_2) crossing leaves, a
long crossing keeps wide windows: that crossing's best point balances
the two smallest terms only, and its value, up to 1/2, comes from the
others.  So where the largest crossing takes windows (d >= 3 and
8*n_2 <= n_{d-1} + n_d, that is 8*n_2*D <= M for its M), the scan first
evaluates a few points of its own choosing.  It takes x0 = Y0/M0 on the
(n_1, n_2) crossing whose n_1 term is least: the first lift of the member
of n_1's class nearest 0 (the nonnegative one on a tie), from the same gcd
and modular inverse as the residue walk.  On each later crossing, in its
own grid, it takes the two points nearest x0, the one at or below x0 and
the next, reduced into [0, M): 4 points on a triple, 2*(d(d-1)/2 - 1) in
all.  These go to the one evaluation loop first, each crossing's pair on
that crossing's grid, and then every progression is walked as it would be
unseeded.  Near x0 the two smallest terms are about as small as at x0,
and each later crossing balances its own pair there, so a seed is
usually close to the minimum; a verified sweep row walks about 6 points
besides its 12 seed points, at any n.  The result is unchanged: a seed is
F at a candidate, so at least the minimum, and thr never falls below the
minimum; the walk still visits every point whose n_1 term is within thr,
every bound inclusive; and the tie rule keeps the smallest minimiser in
any order, so a seed that ties the minimum at a larger x gives way to it.
Under halving a seed may lie above 1/2, where no walk goes; if it ties the
minimum, its mirror 1 - x is a minimiser at most 1/2, which the walk
visits and which wins the tie.

mu_exact also counts the distinct candidates (candidates_examined) over the
full progressions of all three families, walked or not, halved or not, so
the count is the size of the candidate set.  It counts without building
that set.  With m = M/D, the progression of residue s modulo D is the coset
s/M + (1/m)*Z modulo 1, whose m points x = s/M + k/m, k in [0, m), are
distinct.  Each point is counted in the first progression that holds it:
point k of progression i (m_i, s_i) lies in an earlier progression j exactly
when s_i/M_i + k/m_i - s_j/M_j is a multiple of 1/m_j, that is (multiplied
by D*m_i*m_j) when

    D*m_j*k == s_j*m_i - s_i*m_j  (mod D*m_i).

With g = gcd(m_i, m_j) this congruence has a solution only when D*g
divides the right-hand side rhs, and then its solutions are the one residue
k0 = (rhs/(D*g)) * (m_j/g)^-1 modulo m_i/g.  So each earlier progression
covers one arithmetic progression of k or none, marked in a bytearray of
m_i bytes by one slice assignment, and progression i adds its unmarked
points.  For P progressions (P <= d(d-1)/2 + d) that is P(P-1)/2 gcds and
modular inverses and sum(m_i) bytes, at most candidate_budget; no point is
iterated and no common grid is built.  The value-only path behind mu_value,
binary_values, beta_exact and alpha_grid_lower_bound counts nothing; the
scan takes each target as integers t_j*D on a common denominator D, so
binary_values passes its targets' bits on D = 2 and builds no Fraction
target.  Every path applies the MAX_CANDIDATE_BUDGET refusal.

This module deliberately shares no code with the closed forms, the pair
solver or the greedy construction it is used to check: it imports only the
exact substrate.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .exact_arith import HALF, _checked_spectrum, _checked_target, _nearest_ratio

#: mu_exact refuses spectra whose candidate_budget exceeds this, before it
#: allocates anything: d = 3 admits n up to about 110000.
MAX_CANDIDATE_BUDGET = 10**6

#: alpha_grid_lower_bound refuses grids of more targets (or steps) than
#: this, before it builds any: D up to 316 for a triple.
MAX_GRID_TARGETS = 10**5

#: alpha_grid_lower_bound also refuses grids whose D^(d-1) targets allow more
#: than this many oracle candidates in all (candidate_budget per target).  At
#: the measured 0.004-0.065 us per budgeted candidate (Python 3.11, 2-CPU x86,
#: four runs each; (1,2,100), (1,2,1000), (2,5,300), (3,7,2000), (1,2,3,50)),
#: the largest accepted grid takes 0.6-5.6 s; the slowest is (1,2,3,50), whose
#: small pairs (3 to 5 points) are too short for windows and are walked by
#: residue, nearly whole.
MAX_GRID_WORK = 150_000_000

#: binary_values and beta_exact refuse spectra of more frequencies than this:
#: they enumerate up to 2^d binary targets.
MAX_BINARY_SIZE = 12


@dataclass(frozen=True)
class SpectrumProblem:
    """A strictly increasing tuple of positive frequencies plus rational
    targets, one per frequency; both are checked, and stored as tuples,
    when the problem is built."""

    spectrum: tuple[int, ...]
    targets: tuple[Fraction, ...]

    def __post_init__(self):
        spectrum = _checked_spectrum(self.spectrum)
        targets = tuple(_checked_target(t) for t in self.targets)
        if len(spectrum) != len(targets):
            raise ValueError("spectrum and targets lengths differ")
        object.__setattr__(self, "spectrum", spectrum)
        object.__setattr__(self, "targets", targets)


@dataclass(frozen=True)
class OracleResult:
    value: Fraction
    x_star: Fraction
    k_star: tuple[int, ...]
    candidates_examined: int


def _grid(targets: tuple[Fraction, ...]) -> tuple[int, list[int]]:
    """(D, scaled): the lcm D of the target denominators and the integers
    t_j*D, the integer grid _scan takes."""
    D = math.lcm(*(t.denominator for t in targets))
    return D, [t.numerator * (D // t.denominator) for t in targets]


def _crossings(spectrum: tuple[int, ...], D: int, scaled: Sequence[int]
               ) -> list[tuple[int, range]]:
    """The crossings of each pair at the targets t_j = scaled[j]/D, as
    (M, range of Y) progressions, x = Y/M with M = (n_i + n_j)*D."""
    return [((ni + nj) * D, range((si + sj) % D, (ni + nj) * D, D))
            for (ni, si), (nj, sj) in itertools.combinations(zip(spectrum, scaled), 2)]


def _extrema(spectrum: tuple[int, ...], D: int, scaled: Sequence[int]
             ) -> list[tuple[int, range]]:
    """The valleys and peaks of each n_j at the targets t_j = scaled[j]/D,
    as (M, range of Y) progressions, x = Y/M with M = 2*n_j*D."""
    return [(2 * nj * D, range(2 * sj % D, 2 * nj * D, D))
            for nj, sj in zip(spectrum, scaled)]


def _scan(spectrum: tuple[int, ...], D: int, scaled: Sequence[int]
          ) -> tuple[int, int, int, list[tuple[int, range]]]:
    """(best, best_Y, best_M, crossings): the minimum best/best_M of F at
    the targets t_j = scaled[j]/D on the candidates, its smallest minimiser
    best_Y/best_M, and the crossings it built (none when d = 1), which
    mu_exact counts with the valleys and peaks.  D may be any common
    denominator of the targets (_grid takes their lcm, binary_values 2):
    each progression is the same set of x on any of them.  Raises
    ValueError when candidate_budget(spectrum) exceeds MAX_CANDIDATE_BUDGET,
    before it allocates anything.

    Only the crossings are walked when there are any (d >= 2), since they
    hold every minimiser; the valleys and peaks are walked when d = 1.  The
    walked progressions are scanned one after another, not merged, so a
    point in several of them is evaluated once in each.  Each is walked
    only where the smallest frequency's term is within the incumbent: where
    8*n_2*D <= M, in increasing Y, in the windows of n_1 and within each in
    the sub-windows of n_2; elsewhere by the residue r of n_1's term,
    outward from r = 0 until |r| exceeds the incumbent, each r with the Y
    that one modular inverse gives it.  Where the largest crossing takes
    windows (d >= 3 and 8*n_2 <= n_{d-1} + n_d), the scan first seeds its
    own incumbent: it takes x0, the point of the (n_1, n_2) crossing whose
    n_1 term is least, and hands the evaluation loop the two points of every
    later crossing nearest x0, before any walk (see the module docstring).
    The order of the points cannot change the result, which the tie rule
    fixes as the smallest (value, x).  With half-integer targets each
    progression is walked only up to Y = M/2.
    """
    check_candidate_budget(spectrum)
    crossings = _crossings(spectrum, D, scaled)
    walked = crossings or _extrema(spectrum, D, scaled)
    # Largest frequency first: it moves fastest, so its term alone exceeds
    # the incumbent for most points walked, which are rejected before the
    # loop.
    order = list(zip(spectrum, scaled))[::-1]
    # F(1 - x) = F(x) when every 2*t_j is an integer: the smallest minimiser
    # is at most 1/2, which is its own mirror and must be walked.
    halve = all(2 * sj % D == 0 for sj in scaled)
    # The incumbent (best/best_M, best_Y/best_M) gives way only to a
    # lexicographically smaller (worst/M, Y/M), so the progressions may come
    # in any order and overlap.  A candidate is dropped once worst > thr,
    # which for an integer worst means worst/M > best/best_M; one that ties
    # is kept only at a smaller x.  It starts at value 1 and x = 1, above
    # every candidate, so the first candidate wins.
    best, best_Y, best_M = 1, 1, 1
    # With d = 1 the one frequency stands in for n2: the extrema's
    # M = 2*n1*D is too short for windows.
    i2 = min(1, len(spectrum) - 1)
    n1, n2 = spectrum[0], spectrum[i2]

    def walk(M, start, end):
        """Ranges of Y in [start, end), on the residue start modulo D, that
        hold every point whose term of n1 is within thr, read afresh for each
        range: the windows of n1 and n2 or the residues of n1."""
        m = M // D
        o1 = scaled[0] * m
        if 8 * n2 * D <= M:
            # Window by window, the Y with n1*Y - o1 within thr of k*M, for
            # the first k (c = o1 + k*M) whose window reaches lo; within it,
            # the sub-windows of n2 by the same rule, each reaching first and
            # aligned to the residue (which aligns the window of n1 too); a
            # sub-window that holds no point of the residue is not handed on.
            o2 = scaled[i2] * m
            lo = start
            while lo < end:
                c = o1 - (o1 + thr - n1 * lo) // M * M
                first = max(lo, -((thr - c) // n1))
                hi = min(end, (c + thr) // n1 + 1)
                while first < hi:
                    c = o2 - (o2 + thr - n2 * first) // M * M
                    sub = max(first, -((thr - c) // n2))
                    sub += (start - sub) % D
                    sub_hi = min(hi, (c + thr) // n2 + 1)
                    if sub < sub_hi:
                        yield range(sub, sub_hi, D)
                    first = sub_hi
                lo = hi
            return
        # Residue by residue, r = n1*Y - o1 in the class c0 + D*g*Z, from
        # the members nearest 0 outward, each with the Y of its lifts, when
        # the first of them lies below end.
        g = math.gcd(n1, m)
        step, lift, period = D * g, M // g, m // g
        inverse = pow(n1 // g, -1, period)
        c0 = n1 * start - o1
        pos = c0 % step
        neg = pos - step
        while True:
            if pos <= -neg:
                r, pos = pos, pos + step
            else:
                r, neg = neg, neg - step
            if abs(r) > thr or not -M < 2 * r <= M:
                return
            first = start + (r - c0) // step * inverse % period * D
            if first < end:
                yield range(first, end, lift)

    # (M, ranges of Y) in the order evaluated: each walk starts only when the
    # loop reaches it, so it reads the thr of its own pass
    passes = [(M, walk(M, progression.start, M // 2 + 1 if halve else M))
              for M, progression in walked]
    if len(spectrum) >= 3 and 8 * n2 <= spectrum[-2] + spectrum[-1]:
        # The seed, handed over before every walk.  x0 = Y0/M0 is the first
        # lift of the member r of n1's class nearest 0 (the nonnegative one
        # on a tie) on the (n1, n2) crossing, met as in the residue walk.
        # Each later crossing gives its two points nearest x0, the one at or
        # below it and the next, reduced into [0, M).
        (M0, pair), *later = walked
        m = M0 // D
        g = math.gcd(n1, m)
        c0 = n1 * pair.start - scaled[0] * m
        r = c0 % (D * g)
        if 2 * r > D * g:
            r -= D * g
        Y0 = pair.start + (r - c0) // (D * g) * pow(n1 // g, -1, m // g) % (m // g) * D
        seeds = []
        for M, progression in later:
            s = progression.start
            lo = s + (Y0 * M - s * M0) // (D * M0) * D
            seeds.append((M, [(lo % M, (lo + D) % M)]))
        passes = seeds + passes
    for M, ranges in passes:
        scale = M // D  # t_k*M = (t_k*D)*scale
        (n0, o0), *rest = [(nk, sk * scale) for nk, sk in order]
        half = M // 2
        thr = best * M // best_M
        for ys in ranges:
            for Y in ys:
                worst = (n0 * Y - o0) % M
                if worst > half:
                    worst = M - worst
                if worst > thr:
                    continue
                for nk, ok in rest:
                    r = (nk * Y - ok) % M
                    if r > half:
                        r = M - r
                    if r > worst:
                        worst = r
                        if worst > thr:
                            break
                else:
                    if worst * best_M < best * M or Y * best_M < best_Y * M:
                        best, best_Y, best_M = worst, Y, M
                        thr = worst
    return best, best_Y, best_M, crossings


def mu_exact(p: SpectrumProblem) -> OracleResult:
    """Exact minimum of x -> max_j <n_j*x - t_j> over x in [0, 1).

    Ties broken toward the smallest x_star, then the lexicographically
    smallest k_star (nearest integers, halves rounding down).  k_star comes
    from the scan's integers: with x_star = Y/M and t_j = p_j/q_j,
    n_j*x_star - t_j = (n_j*Y*q_j - p_j*M)/(M*q_j), and k_j is
    _nearest_ratio of that numerator and denominator: the integer nearest
    n_j*x_star - t_j, halves rounding down, without Fraction arithmetic.
    candidates_examined counts the distinct candidates, coset by coset and
    without iterating any of them.  Raises ValueError when
    candidate_budget(spectrum) exceeds MAX_CANDIDATE_BUDGET.
    """
    spectrum, targets = p.spectrum, p.targets
    D, scaled = _grid(targets)
    best, best_Y, best_M, crossings = _scan(spectrum, D, scaled)
    k_star = tuple(_nearest_ratio(nj * best_Y * tj.denominator - tj.numerator * best_M,
                                  best_M * tj.denominator)[0]
                   for nj, tj in zip(spectrum, targets))
    candidates = _distinct_count(crossings + _extrema(spectrum, D, scaled))
    return OracleResult(value=Fraction(best, best_M), x_star=Fraction(best_Y, best_M),
                        k_star=k_star, candidates_examined=candidates)


def _distinct_count(progressions: list[tuple[int, range]]) -> int:
    """The number of distinct x = Y/M over the (M, range of Y) progressions,
    each counted in the first progression that holds it
    (see the module docstring)."""
    total = 0
    for i, (M, prog) in enumerate(progressions):
        D, s = prog.step, prog.start
        m = M // D
        covered = bytearray(m)
        for Mj, prog_j in progressions[:i]:
            mj = Mj // D
            g = math.gcd(m, mj)
            rhs = prog_j.start * m - s * mj
            if rhs % (D * g):
                continue
            step = m // g
            k0 = rhs // (D * g) * pow(mj // g, -1, step) % step
            covered[k0::step] = b"\x01" * ((m - 1 - k0) // step + 1)
        total += m - covered.count(1)
    return total


def candidate_budget(spectrum: Sequence[int]) -> int:
    """Documented ceiling on candidates_examined: d^2 * (max pair sum + 2).

    The progressions hold (d + 1)*sum(n_j) points counted with multiplicity
    (2*n_1 when d = 1), at most (d^2 - 1)*(max pair sum) since
    sum(n_j) <= (d - 1)*(max pair sum), so the ceiling also bounds the bytes
    mu_exact's count allocates."""
    d = len(spectrum)
    if d == 1:
        return 2 * (spectrum[0] + 2)
    max_pair = spectrum[-1] + spectrum[-2]
    return d * d * (max_pair + 2)


def check_candidate_budget(spectrum: Sequence[int]) -> None:
    """Raises ValueError when candidate_budget(spectrum) exceeds
    MAX_CANDIDATE_BUDGET: the one refusal rule of every scan, also for a
    caller that refuses a batch of spectra before it scans any."""
    budget = candidate_budget(spectrum)
    if budget > MAX_CANDIDATE_BUDGET:
        raise ValueError(f"spectrum {spectrum} allows up to {budget} oracle candidates, "
                         f"above the limit of {MAX_CANDIDATE_BUDGET}")


def _mu_value_at(spectrum, D, scaled):
    """mu_exact value at the targets t_j = scaled[j]/D for a checked
    spectrum, without the x_star, k_star and candidate count mu_exact
    derives."""
    best, _, best_M, _ = _scan(spectrum, D, scaled)
    return Fraction(best, best_M)


def mu_value(spectrum: Sequence[int], targets: Sequence) -> Fraction:
    """mu_exact(SpectrumProblem(spectrum, targets)).value, from the same scan
    but without x_star, k_star and the candidate count.  Raises ValueError
    when SpectrumProblem refuses the input or candidate_budget(spectrum)
    exceeds MAX_CANDIDATE_BUDGET."""
    p = SpectrumProblem(spectrum, targets)
    return _mu_value_at(p.spectrum, *_grid(p.targets))


def binary_values(spectrum: Sequence[int]) -> list[Fraction]:
    """mu_exact value at each of the 2^d binary targets, by index: value i
    is at the target with t_j = 1/2 exactly where bit d-1-j of i is set (bit
    k belongs to the k-th frequency from the end), so the indices follow
    the lexicographic order of the targets.  One scan per toggling pair,
    none for the all-zero target and its twin.  Raises ValueError when
    candidate_budget(spectrum) exceeds MAX_CANDIDATE_BUDGET, before any scan.

    Toggle a binary t, replacing t_j by 1/2 - t_j at every odd n_j.  For
    odd n_j, n_j*(x + 1/2) - (1/2 - t_j) = n_j*x + t_j + (n_j - 1)/2, and for
    even n_j, n_j*(x + 1/2) - t_j = n_j*x - t_j + n_j/2: integer shifts
    either way.  Since 2*t_j is an integer, <n_j*x + t_j> = <n_j*x - t_j>.
    So the toggled target's F at x + 1/2 is F at x, and both have the same
    minimum.  Target i's twin is target i ^ toggle, toggle holding the bits
    of the odd n_j, and of each pair only the smaller index is scanned, the
    target with t_j = 0 at the first odd n_j; every target is scanned when
    all n_j are even.  The all-zero target is not scanned: F(0) = 0 there,
    the least value F takes, so its minimum is 0, and so is its twin's.
    Each target scanned goes to _mu_value_at as its bits t_j*2 on the grid
    D = 2.
    """
    spectrum = _checked_spectrum(spectrum)
    d = len(spectrum)
    if d > MAX_BINARY_SIZE:
        raise ValueError(f"|S| = {d} exceeds MAX_BINARY_SIZE = {MAX_BINARY_SIZE}")
    check_candidate_budget(spectrum)
    toggle = sum(1 << k for k, nj in enumerate(reversed(spectrum)) if nj % 2)
    values = [None] * 2**d
    values[0] = values[toggle] = Fraction(0)
    for i, bits in enumerate(itertools.product((0, 1), repeat=d)):
        if 0 < i <= i ^ toggle:
            values[i] = values[i ^ toggle] = _mu_value_at(spectrum, 2, bits)
    return values


def beta_exact(spectrum: Sequence[int]) -> tuple[Fraction, tuple[Fraction, ...]]:
    """Exhaustive binary Kronecker constant: max of mu_exact over {0, 1/2}^d,
    ties to the lexicographically smallest target, from binary_values.  Its
    indices follow the lexicographic order, so the first index of the
    maximum is the smallest target, the one built as the argmax."""
    values = binary_values(spectrum)
    best = max(values)
    targets = itertools.product((Fraction(0), HALF), repeat=len(spectrum))
    return best, next(itertools.islice(targets, values.index(best), None))


def alpha_grid_lower_bound(spectrum: Sequence[int], D: int
                           ) -> tuple[Fraction, tuple[Fraction, ...]]:
    """Lower bound on the angular constant from a 1/D target grid.

    Translation invariance (mu is unchanged by t -> t + c*spectrum) pins
    t_1 = 0, so only D^(d-1) grid targets are scanned, one at a time.  The
    result is a certified lower bound, monotone under grid refinement
    D -> k*D; it is not claimed to attain the constant.  Raises ValueError,
    before any target is built, when D is not an int (or is a bool), when
    D < 2, when the grid has more than MAX_GRID_TARGETS targets or steps,
    or when its candidate budget exceeds MAX_GRID_WORK.
    """
    if isinstance(D, bool) or not isinstance(D, int):
        raise ValueError(f"grid resolution must be an int, got {D!r}")
    spectrum = _checked_spectrum(spectrum)
    if D < 2:
        raise ValueError(f"grid resolution must be >= 2, got {D}")
    count = D ** (len(spectrum) - 1)
    if max(count, D) > MAX_GRID_TARGETS:
        raise ValueError(f"a 1/{D} grid on {spectrum} has {count} targets of {D} steps, "
                         f"above the limit of {MAX_GRID_TARGETS}")
    work_budget = count * candidate_budget(spectrum)
    if work_budget > MAX_GRID_WORK:
        raise ValueError(f"a 1/{D} grid on {spectrum} allows up to {work_budget} oracle "
                         f"candidates, above the limit of {MAX_GRID_WORK}")
    # each target t = (0, i, j, ...)/D is scanned as its integers on D; the
    # steps come in lexicographic order and max keeps the first of equal
    # values, so a tie goes to the smallest target
    value, steps = max(((_mu_value_at(spectrum, D, (0, *steps)), steps)
                        for steps in itertools.product(range(D), repeat=len(spectrum) - 1)),
                       key=lambda vs: vs[0])
    return value, (Fraction(0), *(Fraction(i, D) for i in steps))
