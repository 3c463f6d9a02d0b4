"""Reference oracle: the Fraction-arithmetic mu_exact that the integer-grid
oracle replaced, kept verbatim as the baseline of the differential tests.

Candidates are the same three families as in ``kronlab.oracle`` (balanced
crossings, valleys, peaks), built and evaluated as Fractions.  The
nearest-integer distance <u> and the angular norm max_j <v_j> are defined
here, in Fractions, for every test that checks a cost against them; the
package computes both in integers and exports neither.  So is the nearest
integer, halves rounding down, which the package computes only as
``exact_arith._nearest_ratio`` of a numerator and a denominator.
"""
import itertools
import math
from fractions import Fraction

from kronlab.oracle import OracleResult, SpectrumProblem

HALF = Fraction(1, 2)


def nearest_int(u: Fraction) -> int:
    """The integer nearest to u; exact half-integers round down."""
    return math.ceil(u - HALF)


def nearest_int_distance(u: Fraction) -> Fraction:
    """<u>: distance from u to the nearest integer, in [0, 1/2]."""
    r = u - math.floor(u)
    return min(r, 1 - r)


def angular_norm(v) -> Fraction:
    """max_j <v_j>; ValueError on an empty vector."""
    return max(nearest_int_distance(c) for c in v)


def _span(total: Fraction, offset: Fraction):
    """Integers s with (offset + s)/total in [0, 1), i.e. s in [-offset, total-offset)."""
    return range(math.ceil(-offset), math.ceil(total - offset))


def _candidates(p: SpectrumProblem) -> list[Fraction]:
    spectrum, targets = p.spectrum, p.targets
    cands: set[Fraction] = set()
    for i, j in itertools.combinations(range(len(spectrum)), 2):
        total = spectrum[i] + spectrum[j]
        off = targets[i] + targets[j]
        for s in _span(total, off):
            cands.add(Fraction(off + s, total))
    for nj, tj in zip(spectrum, targets):
        for off in (tj, tj + HALF):
            for k in _span(nj, off):
                cands.add(Fraction(off + k, nj))
    return sorted(cands)


def mu_exact_reference(p: SpectrumProblem) -> OracleResult:
    """Exact minimum of x -> max_j <n_j*x - t_j> over x in [0, 1).

    Ties broken toward the smallest x_star, then the lexicographically
    smallest k_star (nearest integers, halves rounding down).
    """
    cands = _candidates(p)
    order = sorted(range(len(p.spectrum)), key=lambda i: -p.spectrum[i])
    spectrum, targets = p.spectrum, p.targets
    best_val = None
    best_x = None
    for x in cands:
        worst = Fraction(0)
        for i in order:
            d = nearest_int_distance(spectrum[i] * x - targets[i])
            if d > worst:
                worst = d
                if best_val is not None and worst >= best_val:
                    break
        else:
            if best_val is None or worst < best_val:
                best_val, best_x = worst, x
    k_star = tuple(nearest_int(nj * best_x - tj) for nj, tj in zip(spectrum, targets))
    return OracleResult(value=best_val, x_star=best_x, k_star=k_star,
                        candidates_examined=len(cands))
