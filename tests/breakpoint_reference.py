"""Lemma-free reference for mu: F evaluated at every one of its breakpoints.

F(x) = max_j <n_j*x - t_j> is 1-periodic, continuous and piecewise linear,
and on each piece its slope is that of an active term, +n_j or -n_j, never
0.  So F attains its minimum over [0, 1), and only at breakpoints, where
one term has a kink or two terms cross.  The kinks of <n_j*x - t_j> are its
valleys and peaks, n_j*x - t_j in (1/2)*Z.  Two terms cross where
n_i*x - t_i = +-(n_j*x - t_j) modulo 1, at x = (t_j +- t_i + s)/(n_j +- n_i)
for an integer s.  mu_breakpoints evaluates F at every such x in [0, 1), in
both signs, and keeps the least value at the smallest x.

It shares no lemma with kronlab.oracle: it does not use that every
minimiser is a balanced crossing, the mirror F(1 - x) = F(x) of
half-integer targets, the toggling of binary targets, windows, residue
walks or any pruning.  Each family of breakpoints is put on one integer
grid x = Y/M, M = N*D with D the lcm of the target denominators, so the
terms are compared as integers; only the result is a Fraction.
"""
import itertools
import math
from fractions import Fraction


def breakpoint_families(spectrum, D, scaled):
    """(N, C) per family of breakpoints x = (C/D + s)/N, s an integer, at
    the targets t_j = scaled[j]/D: the valleys and peaks of each n_j, then
    the crossings of each pair in both signs.  The spectrum is strictly
    increasing, as SpectrumProblem requires, so every N is positive."""
    families = [(2 * nj, 2 * sj) for nj, sj in zip(spectrum, scaled)]
    for (ni, si), (nj, sj) in itertools.combinations(zip(spectrum, scaled), 2):
        families += [(nj + ni, sj + si), (nj - ni, sj - si)]
    return families


def mu_breakpoints(spectrum, targets) -> tuple[Fraction, Fraction]:
    """(value, x_star): the minimum of F over [0, 1) and its smallest
    minimiser, by evaluating F at every breakpoint."""
    targets = [Fraction(t) for t in targets]
    D = math.lcm(*(t.denominator for t in targets))
    scaled = [t.numerator * (D // t.denominator) for t in targets]
    best = None  # (worst, Y, M): F = worst/M at x = Y/M
    for N, C in breakpoint_families(spectrum, D, scaled):
        M = N * D
        offsets = [sj * N for sj in scaled]  # t_j*M
        for Y in range(C % D, M, D):  # x = Y/M in [0, 1), Y = C mod D
            worst = 0
            for nj, oj in zip(spectrum, offsets):
                r = (nj * Y - oj) % M
                worst = max(worst, min(r, M - r))
            if best is None or (worst * best[2], Y * best[2]) < (best[0] * M, best[1] * M):
                best = worst, Y, M
    worst, Y, M = best
    return Fraction(worst, M), Fraction(Y, M)
