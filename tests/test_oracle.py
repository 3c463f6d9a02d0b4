import ast
import itertools
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import rand_coprime_pair, rand_fraction, rand_triple
from kronlab.closed_form import triple_constants
import kronlab.cli as cli
import kronlab.oracle as oracle
from kronlab.oracle import (MAX_BINARY_SIZE, MAX_CANDIDATE_BUDGET,
                            MAX_GRID_TARGETS, MAX_GRID_WORK, SpectrumProblem,
                            alpha_grid_lower_bound, beta_exact, binary_values,
                            candidate_budget, mu_exact, mu_value)
from oracle_reference import _candidates, mu_exact_reference, nearest_int, nearest_int_distance

HALF = Fraction(1, 2)


def scan_problem(p):
    """oracle._scan at p's targets, on the lcm of their denominators."""
    return oracle._scan(p.spectrum, *oracle._grid(p.targets))


def mu_scan(spectrum, targets):
    """Independent exact minimax: partition [0, 1] at every breakpoint of
    every component distance, then minimize the convex max of the (locally
    linear) components on each segment via endpoints and pairwise line
    crossings.  Shares no candidate logic with mu_exact."""
    bps = {Fraction(0), Fraction(1)}
    for nj, tj in zip(spectrum, targets):
        for off in (tj, tj + HALF):
            for k in range(math.ceil(-off), math.floor(nj - off) + 1):
                x = Fraction(off + k, nj)
                if 0 <= x <= 1:
                    bps.add(x)
    grid = sorted(bps)
    best = None
    for xl, xr in zip(grid, grid[1:]):
        mid = (xl + xr) / 2
        lines = []
        for nj, tj in zip(spectrum, targets):
            k = nearest_int(nj * mid - tj)
            if nj * mid - tj - k >= 0:
                lines.append((nj, -(tj + k)))
            else:
                lines.append((-nj, tj + k))
        points = {xl, xr}
        for (s1, c1), (s2, c2) in itertools.combinations(lines, 2):
            if s1 != s2:
                xc = (c2 - c1) / (s1 - s2)
                if xl <= xc <= xr:
                    points.add(xc)
        for x in points:
            value = max(s * x + c for s, c in lines)
            if best is None or value < best:
                best = value
    return best


def _rand_problem(rng, max_d=3, max_freq=60, max_den=24):
    d = rng.randrange(1, max_d + 1)
    spectrum = tuple(sorted(rng.sample(range(1, max_freq + 1), d)))
    targets = tuple(rand_fraction(rng, max_den) for _ in spectrum)
    return SpectrumProblem(spectrum, targets)


def test_mu_exact_examples():
    r = mu_exact(SpectrumProblem((7,), (Fraction(3, 5),)))
    assert r.value == 0 and r.x_star == Fraction(3, 35)

    r = mu_exact(SpectrumProblem((2, 3), (HALF, Fraction(0))))
    assert r.value == Fraction(1, 10)

    r = mu_exact(SpectrumProblem((1, 2, 100),
                                 (Fraction(0), Fraction(149, 302), Fraction(17, 302))))
    assert r.value == Fraction(51, 302)

    # Half-integer targets: the scan stops at x = 1/2 and must include it.
    r = mu_exact(SpectrumProblem((1,), (HALF,)))
    assert r.value == 0 and r.x_star == HALF
    # Other targets are scanned over [0, 1): the only minimiser is above 1/2.
    r = mu_exact(SpectrumProblem((1,), (Fraction(3, 4),)))
    assert r.value == 0 and r.x_star == Fraction(3, 4)


@pytest.fixture
def walks(monkeypatch):
    """The length of every range the oracle iterates, in order: one per
    sub-window of the window walk and one per residue of the residue walk,
    the lifts of that residue.  The progressions _scan builds are never
    iterated, neither by the scan nor by mu_exact's candidate count, which
    reads only their starts and steps, so they add nothing."""
    lengths = []

    class CountingRange:
        def __init__(self, *args):
            self._range = range(*args)

        def __getattr__(self, name):
            return getattr(self._range, name)

        def __iter__(self):
            lengths.append(len(self._range))
            return iter(self._range)

    monkeypatch.setattr(oracle, "range", CountingRange, raising=False)
    return lengths


@pytest.mark.parametrize("triple, points, ranges", [
    ((3, 7, 1001), 123, 11), ((1, 2, 1001), 425, 9), ((2, 5, 1001), 383, 15),
    ((1, 2, 10001), 4175, 9)],
    ids=["3-7-1001", "1-2-1001", "2-5-1001", "1-2-10001"])
def test_verified_row_walks_only_the_windows(walks, triple, points, ranges):
    """The scan walks only the Y whose smallest frequencies' terms can still
    tie the incumbent: the n-crossings in the windows of n_1 and n_2, the
    short (a, b) crossing by the residues of n_1.  One verified row of
    (3, 7, 1001) scans three binary targets (none for the all-zero one) and
    visits 123 points of the 3,036 that their whole crossing progressions
    hold up to x = 1/2; (1, 2, 1001) visits 425 of 3,016, (2, 5, 1001) 383
    of 3,028, and (1, 2, 10001), where mu is large and the n_2 level pays
    most, 4,175 of 30,016.  A window too wide, a threshold never lowered, a
    walk of the wrong kind or residues walked out of order change the count,
    not the result; on (2, 5, 1001) so does a window of n_1 that starts one
    Y early.  The ranges handed to the evaluation loop
    are pinned too: a sub-window that holds no point is not one of them, nor
    is a residue whose first lift lies past the end (under halving, one of r
    and -r usually has none), so (3, 7, 1001) hands over 11 ranges where 29
    were built."""
    assert cli._verified(triple_constants(*triple)) != cli.UNVERIFIED
    assert sum(walks) == points
    assert len(walks) == ranges


@pytest.mark.parametrize("spectrum, targets, points", [
    ((12, 30), (HALF, Fraction(0)), 6),
    ((13, 50, 77, 190), (Fraction(1, 4), Fraction(-2, 3), Fraction(3, 5), Fraction(7, 6)), 224)],
    ids=["d2", "d4"])
def test_mu_walks_only_the_residues(walks, spectrum, targets, points):
    """Off the windows the scan walks each progression by the residue r of
    n_1's term, outward from 0, and stops past thr.  On (12, 30) at
    (1/2, 0), M = 84 and g = gcd(12, 42) = 6: the minimum 6/84 lies on the
    residues 6 and -6, each with 3 lifts up to x = 1/2, so the walk visits
    those 6 of the 21 points; with d = 2 every crossing's value is its n_1
    term, so no other point is walked.  The d = 4 problem (D = 60, every
    pair sum below 8*n_2) visits 224 of its 990 crossing points; residues
    walked in another order, lifts too many or a stop rule too late change
    that count."""
    r = mu_exact(SpectrumProblem(spectrum, targets))
    assert r == mu_exact_reference(SpectrumProblem(spectrum, targets))
    assert sum(walks) == points


def test_windowed_walk_equals_fraction_reference(walks):
    """On acceptance pairs with n from 100 to 1,100 every crossing with n
    has 8*n_2*D <= M, so the scan walks windows there, fewer points than
    the plain walk of the crossing progressions.  Binary targets and signed
    general ones, each against the Fraction reference, which shares no code
    with the scan."""
    pairs = [(1, 2), (1, 3), (2, 3), (2, 5), (3, 4), (3, 5), (4, 5)]
    rng = random.Random(25)
    for i in range(40):
        a, b = pairs[i % len(pairs)]
        spectrum = (a, b, rng.randrange(100, 1101))
        if i % 2:
            targets = tuple(rng.choice((Fraction(0), HALF)) for _ in spectrum)
        else:
            targets = tuple(rand_fraction(rng, 12) + rng.randrange(-2, 2) for _ in spectrum)
        p = SpectrumProblem(spectrum, targets)
        assert mu_exact(p) == mu_exact_reference(p), p
        walks.clear()
        *_, progressions = scan_problem(p)
        halve = all(t.denominator <= 2 for t in p.targets)
        plain = sum(len(range(prog.start, M // 2 + 1 if halve else M, prog.step))
                    for M, prog in progressions[:3])
        assert sum(walks) < plain, p


def _second_level_problem(rng, i):
    """A problem whose largest crossing has 8*n_2*D <= M: a binary, signed
    general or tied target on a triple, or a d = 4 spectrum with a large top
    frequency.  The tied ones are (s, m, c*m) with c >= 8, whose pair m, c*m
    has tied minimisers in every 1/m period (see tied_problems)."""
    kind = i % 4
    if kind == 0:
        a, b = rand_coprime_pair(rng, 8)
        return SpectrumProblem((a, b, rng.randrange(8 * b, 1101)),
                               tuple(rng.choice((Fraction(0), HALF)) for _ in range(3)))
    if kind == 1:
        a, b = rand_coprime_pair(rng, 8)
        return SpectrumProblem((a, b, rng.randrange(8 * b, 1101)),
                               tuple(rand_fraction(rng, 12) + rng.randrange(-2, 2)
                                     for _ in range(3)))
    if kind == 2:
        m, c, q = rng.randrange(3, 40), rng.randrange(8, 13), rng.randrange(2, 4)
        t_m = Fraction(rng.randrange(-q, 2 * q), q)
        t_cm = c * t_m + Fraction(rng.randrange(1, q), q)
        return SpectrumProblem((rng.randrange(1, m), m, c * m),
                               (Fraction(rng.randrange(-q, 2 * q), q), t_m, t_cm))
    a, b = rand_coprime_pair(rng, 8)
    c = rng.randrange(b + 1, 30)
    return SpectrumProblem((a, b, c, rng.randrange(8 * b, 801)),
                           tuple(rand_fraction(rng, 6) + rng.randrange(-1, 2) for _ in range(4)))


def _admitted_by_n1(p, progressions, best, best_M):
    """How many points of the walked progressions have an n_1 term within
    the minimum best/best_M: every walk must visit each of them."""
    n1, t1 = p.spectrum[0], p.targets[0]
    halve = all(t.denominator <= 2 for t in p.targets)
    count = 0
    for M, prog in progressions[:math.comb(len(p.spectrum), 2)] or progressions:
        o1 = t1.numerator * M // t1.denominator
        for Y in range(prog.start, M // 2 + 1 if halve else M, prog.step):
            r = (n1 * Y - o1) % M
            count += min(r, M - r) * best_M <= best * M
    return count


def test_second_level_walk_equals_fraction_reference(walks):
    """Inside each window of n_1 the scan walks only the sub-windows of n_2
    when 8*n_2*D <= M.  On problems where that holds, mu_exact equals the
    Fraction reference, which shares no code with the scan.  The walk also
    visits fewer points than the points whose n_1 term is within the
    minimum: the windows of n_1 alone and the residues of n_1 each hold all
    of those, since their thr never falls below it.  So only the n_2 level
    can have skipped some.  A problem of value 0 leaves it nothing to skip,
    so the counts are summed over each kind."""
    rng = random.Random(26)
    walked, admitted = [0] * 4, [0] * 4  # per kind of problem
    for i in range(40):
        p = _second_level_problem(rng, i)
        assert mu_exact(p) == mu_exact_reference(p), p
        walks.clear()
        best, _, best_M, progressions = scan_problem(p)
        assert 8 * p.spectrum[1] <= p.spectrum[-2] + p.spectrum[-1], p  # on the largest M
        walked[i % 4] += sum(walks)
        admitted[i % 4] += _admitted_by_n1(p, progressions, best, best_M)
    assert all(w < n for w, n in zip(walked, admitted)), (walked, admitted)


def _residue_walk_problem(rng, i):
    """A problem whose every walked progression has 8*n_2*D > M, so that the
    scan walks each by the residues of n_1: one frequency (its valleys and
    peaks), a pair, a triple with n_3 < 7*n_2, or a tied input (s, m, c*m)
    with c < 7 (see tied_problems), at half-integer targets (the walk stops
    at x = 1/2) or signed general ones.  Every other problem has its
    spectrum multiplied by f in 2..4, so that gcd(n_1, M/D) > 1 and each
    residue holds several Y; the other triples have n_1 = 1, one Y each."""
    kind, f = i % 4, (1, rng.randrange(2, 5))[i // 4 % 2]
    if kind == 2:
        m, c, q = rng.randrange(3, 30), rng.randrange(2, 7), rng.randrange(2, 4)
        t_m = Fraction(rng.randrange(-q, 2 * q), q)
        t_cm = c * t_m + Fraction(rng.randrange(1, q), q)
        return SpectrumProblem((f * rng.randrange(1, m), f * m, f * c * m),
                               (Fraction(rng.randrange(-q, 2 * q), q), t_m, t_cm))
    n2 = rng.randrange(2, 40)
    if kind == 0:
        spectrum = (rng.randrange(1, 60),)
    elif kind == 1:
        spectrum = (rng.randrange(1, n2), n2)
    else:
        spectrum = (rng.randrange(1, n2) if f > 1 else 1, n2, rng.randrange(n2 + 1, 7 * n2))
    if i // 8 % 2:
        targets = tuple(Fraction(rng.randrange(-2, 4), 2) for _ in spectrum)
    else:
        targets = tuple(rand_fraction(rng, 12) + rng.randrange(-2, 2) for _ in spectrum)
    return SpectrumProblem(tuple(f * nj for nj in spectrum), targets)


def test_residue_walk_equals_fraction_reference(walks):
    """Where 8*n_2*D > M the scan walks the residues r of n_1's term
    outward from 0, each with the Y that one modular inverse gives it.  On
    problems where every walked progression is walked so, mu_exact equals
    the Fraction reference, which shares no code with the scan, and the walk
    visits every point whose n_1 term is within the minimum.  With d <= 2 a
    point's value is its n_1 term (at a crossing both terms are equal), so
    there it visits exactly those points and no other."""
    rng = random.Random(28)
    kinds = set()
    for i in range(80):
        p = _residue_walk_problem(rng, i)
        assert mu_exact(p) == mu_exact_reference(p), p
        walks.clear()
        best, _, best_M, progressions = scan_problem(p)
        D = math.lcm(*(t.denominator for t in p.targets))
        n1, n2 = p.spectrum[0], p.spectrum[min(1, len(p.spectrum) - 1)]
        walked = progressions[:math.comb(len(p.spectrum), 2)] or progressions
        assert all(8 * n2 * D > M for M, _ in walked), p
        admitted = _admitted_by_n1(p, progressions, best, best_M)
        assert sum(walks) == admitted if len(p.spectrum) <= 2 else sum(walks) >= admitted, p
        kinds.add((len(p.spectrum), all(t.denominator <= 2 for t in p.targets),
                   any(math.gcd(n1, M // D) > 1 for M, _ in walked)))
    # d = 2 and 3, half-integer or not, with and without several Y a residue;
    # d = 1 has g = gcd(n_1, 2*n_1) = n_1, several Y a residue unless n_1 = 1
    assert set(itertools.product((2, 3), (False, True), (False, True))) \
        | {(1, False, True), (1, True, True)} <= kinds, kinds


@pytest.mark.parametrize("a, b", [(1, 2), (3, 7)])
def test_rows_near_n_100000_verify(a, b):
    """The closed forms agree with the windowed scan far beyond the sizes
    the Fraction reference can reach, on rows of both cases: R = a (the
    witness) at n = 100,000 for (1, 2) and n = 99,999 for (3, 7)."""
    for n in range(99_999, 100_002):
        tc = triple_constants(a, b, n)
        flag = cli.VERIFIED_WITNESS if tc.gap else cli.VERIFIED_ORACLE
        assert cli._verified(tc) == flag, (a, b, n)


def test_result_invariants():
    rng = random.Random(3)
    for _ in range(40):
        p = _rand_problem(rng)
        r = mu_exact(p)
        assert 0 <= r.x_star < 1
        residuals = [nj * r.x_star - tj for nj, tj in zip(p.spectrum, p.targets)]
        assert max(abs(res - k) for res, k in zip(residuals, r.k_star)) == r.value
        assert r.candidates_examined <= candidate_budget(p.spectrum)


def _count_problems():
    """Problems of 1 to 6 frequencies for the candidate count, each spectrum
    at all-zero, half-integer and signed general targets (negative ones and
    ones >= 1 among them): fixed spectra whose pair sums share factors, then
    random ones below 40, each also tripled."""
    rng = random.Random(27)
    spectra = [(1, 2, 3, 5, 8, 13), (2, 4, 6, 10), (3, 4, 5, 11), (6, 10, 15), (1,), (4, 12)]
    for i in range(30):
        spectrum = tuple(sorted(rng.sample(range(1, 40), 1 + i % 6)))
        spectra += [spectrum, tuple(3 * nj for nj in spectrum)]
    for spectrum in spectra:
        d = len(spectrum)
        yield SpectrumProblem(spectrum, (Fraction(0),) * d)
        yield SpectrumProblem(spectrum, tuple(rng.choice((Fraction(0), HALF)) for _ in range(d)))
        yield SpectrumProblem(spectrum, tuple(rand_fraction(rng, 12) + rng.randrange(-3, 3)
                                              for _ in range(d)))


def test_candidate_count_equals_reference_up_to_d_6():
    """mu_exact counts the distinct candidates coset by coset; the Fraction
    reference builds the set.  The hypothesis tests stop at d = 4."""
    for p in _count_problems():
        assert mu_exact(p).candidates_examined == len(_candidates(p)), p


@pytest.mark.parametrize("targets, count", [
    ((Fraction(1, 7), Fraction(2, 9), Fraction(3, 11)), 444_012),
    ((Fraction(0), HALF, HALF), 444_000)])
def test_candidate_count_at_n_111000(targets, count):
    """The count near the largest n the budget admits for d = 3, equal to
    the size of the union of every progression on the common lcm grid."""
    assert mu_exact(SpectrumProblem((1, 2, 111_000), targets)).candidates_examined == count


def test_candidate_completeness_against_scan():
    rng = random.Random(1234)
    for _ in range(80):
        p = _rand_problem(rng)
        assert mu_exact(p).value == mu_scan(p.spectrum, p.targets)


def test_smallest_x_tie_break():
    # every exact-hit x for a single frequency has value 0; smallest wins
    r = mu_exact(SpectrumProblem((5,), (Fraction(2, 3),)))
    assert r.value == 0 and r.x_star == Fraction(2, 15)


@pytest.mark.parametrize("spectrum, targets, x_star", [
    ((5, 7, 10), (HALF, HALF, HALF), Fraction(1, 15)),
    ((2, 6, 10), (0, Fraction(1, 3), 0), Fraction(1, 12)),
    ((1, 5, 10), (0, Fraction(1, 3), 0), Fraction(4, 45)),
    ((3, 5, 15), (0, 0, HALF), Fraction(1, 40)),
    # At x_star the largest frequency's term is below the minimum.
    ((2, 44, 88, 151), (0, -HALF, -HALF, -1), Fraction(1, 132)),
    # The tie is met on a grid x = Y/M other than the incumbent's, so the
    # x compare must cross-multiply by the right denominators.
    ((2, 5, 10), (HALF, HALF, HALF), Fraction(4, 15)),
    ((1, 2, 5, 8), (0, Fraction(1, 3), 0, 0), Fraction(2, 9)),
])
def test_smallest_x_tie_break_across_progressions(spectrum, targets, x_star):
    """The scan walks its candidate progressions one after another.  Here it
    meets a larger minimiser first, and the tie rule must still keep x_star.
    With half-integer targets the minimisers come in pairs x, 1 - x."""
    p = SpectrumProblem(spectrum, targets)
    r = mu_exact(p)
    assert r.x_star == x_star and r == mu_exact_reference(p)
    # each progression is (M, range of Y) on its own grid x = Y/M
    *_, progressions = scan_problem(p)

    def F(x):
        return max(nearest_int_distance(nj * x - tj) for nj, tj in zip(p.spectrum, p.targets))

    first = next(Fraction(Y, M) for M, progression in progressions for Y in progression
                 if F(Fraction(Y, M)) == r.value)
    assert first > x_star
    if all(t.denominator <= 2 for t in p.targets):
        assert x_star < HALF and F(1 - x_star) == r.value


def test_balance_structure_at_optimum():
    rng = random.Random(77)
    for _ in range(60):
        p = _rand_problem(rng)
        r = mu_exact(p)
        if not 0 < r.value < HALF:
            continue
        signed = [nj * r.x_star - tj - k
                  for nj, tj, k in zip(p.spectrum, p.targets, r.k_star)]
        extremal = [s for s in signed if abs(s) == r.value]
        assert len(extremal) >= 2 or len(p.spectrum) == 1
        if len(extremal) >= 2:
            assert min(extremal) < 0 < max(extremal)


def test_translation_invariance():
    rng = random.Random(5150)
    for _ in range(40):
        p = _rand_problem(rng)
        c = rand_fraction(rng, 12)
        shifted = SpectrumProblem(p.spectrum,
                                  tuple(tj + c * nj for nj, tj in
                                        zip(p.spectrum, p.targets)))
        assert mu_exact(p).value == mu_exact(shifted).value


def test_negation_invariance():
    rng = random.Random(6174)
    for _ in range(40):
        p = _rand_problem(rng)
        negated = SpectrumProblem(p.spectrum, tuple(-tj for tj in p.targets))
        assert mu_exact(p).value == mu_exact(negated).value


# Targets: binary entries, or rationals with denominators <= 60 in [-3, 3],
# so negative targets and targets >= 1 occur.
targets_st = st.one_of(st.sampled_from([Fraction(0), HALF]),
                       st.fractions(min_value=-3, max_value=3, max_denominator=60))


@st.composite
def problems(draw, min_d=1):
    d = draw(st.integers(min_d, 4))
    spectrum = sorted(draw(st.sets(st.integers(1, 199), min_size=d, max_size=d)))
    targets = draw(st.lists(targets_st, min_size=d, max_size=d))
    return SpectrumProblem(tuple(spectrum), tuple(targets))


@settings(max_examples=150, deadline=None)
@given(problems())
def test_mu_exact_equals_fraction_reference(p):
    # value, x_star, k_star and candidates_examined, all of them exactly
    reference = mu_exact_reference(p)
    assert mu_exact(p) == reference
    assert mu_value(p.spectrum, p.targets) == reference.value


@st.composite
def tied_problems(draw):
    """Inputs with several minimisers, for the tie rule.  The frequencies m
    and c*m share the factor m; when t_cm - c*t_m is not an integer, their
    sub-problem has tied minimisers in every 1/m period, and half-integer
    targets mirror each one at 1 - x.  A frequency s < m puts crossing
    progressions that hold some of the larger minimisers before the pair's
    own, and a frequency e > c*m, whose term is often below the minimum,
    makes the tie rule act after the largest term has been checked."""
    m = draw(st.integers(3, 60))
    c = draw(st.integers(2, 3))
    s = draw(st.integers(1, m - 1))
    e = draw(st.integers(c * m + 1, 2 * c * m))
    q = draw(st.integers(2, 3))
    multiples = st.integers(-q, 2 * q).map(lambda k: Fraction(k, q))
    t_m = draw(multiples)
    t_cm = c * t_m + Fraction(draw(st.integers(1, q - 1)), q)
    return SpectrumProblem((s, m, c * m, e), (draw(multiples), t_m, t_cm, draw(multiples)))


@settings(max_examples=200, deadline=None)
@given(tied_problems())
def test_mu_exact_equals_reference_on_tied_inputs(p):
    """About three in four of these inputs have several minimisers, so
    x_star and k_star check the smallest-x tie rule."""
    reference = mu_exact_reference(p)
    assert mu_exact(p) == reference
    assert mu_value(p.spectrum, p.targets) == reference.value


@settings(max_examples=100, deadline=None)
@given(st.one_of(problems(min_d=2), tied_problems()))
def test_minimiser_lies_on_a_balanced_crossing(p):
    """With d >= 2 the scan walks only the balanced crossings, because every
    minimiser of F is one: (n_i + n_j)*x - t_i - t_j is an integer for some
    pair i < j.  The Fraction reference also scans valleys and peaks, so its
    x_star would break this if that lemma were false."""
    x = mu_exact_reference(p).x_star
    assert any(((ni + nj) * x - ti - tj).denominator == 1 for (ni, ti), (nj, tj)
               in itertools.combinations(zip(p.spectrum, p.targets), 2))


def test_single_frequency_minimiser_is_the_smallest_valley():
    """With d = 1 there are no pairs, and the scan walks the valleys and
    peaks: F reaches 0 first at x = frac(t)/n."""
    rng = random.Random(1)
    for _ in range(200):
        n = rng.randrange(1, 200)
        t = rand_fraction(rng) + rng.randrange(-3, 3)
        r = mu_exact(SpectrumProblem((n,), (t,)))
        assert r.value == 0 and r.x_star == (t - math.floor(t)) / n
        assert r.k_star == (-math.floor(t),)


def test_mu_exact_equals_reference_on_binary_targets():
    """mu_exact, mu_value and beta_exact at binary targets, each against the
    Fraction reference, which shares no code with the scan."""
    for a, b in [(1, 2), (2, 5), (3, 4), (4, 5)]:
        for n in (b + 1, 61, 119):
            references = {}
            for t in itertools.product((Fraction(0), HALF), repeat=3):
                p = SpectrumProblem((a, b, n), t)
                reference = mu_exact_reference(p)
                assert mu_exact(p) == reference
                assert mu_value(p.spectrum, t) == reference.value
                references[t] = reference.value
            # the max over all 2^3 targets, ties to the smallest target
            best = max(references.values())
            argmax = min(t for t, v in references.items() if v == best)
            assert beta_exact((a, b, n)) == (best, argmax)


def test_problem_validation():
    with pytest.raises(ValueError):
        SpectrumProblem((), ())
    with pytest.raises(ValueError):
        SpectrumProblem((3, 3), (Fraction(0), Fraction(0)))
    with pytest.raises(ValueError):
        SpectrumProblem((3, 2), (Fraction(0), Fraction(0)))
    with pytest.raises(ValueError):
        SpectrumProblem((1, 2), (Fraction(0),))


@pytest.mark.parametrize("spectrum, targets", [
    ((1, 2.7), (Fraction(1, 10), 0)),   # float frequency
    ((1, 2.0), (0, 0)),                 # integral float frequency
    ((True, 2), (0, 0)),                # bool frequency
    ((1, Fraction(2)), (0, 0)),         # Fraction frequency
    ((1, "2"), (0, 0)),                 # str frequency
    ((1, 2), (0.1, 0)),                 # float target
    ((1, 2), (0, False)),               # bool target
])
def test_problem_rejects_inexact_inputs(spectrum, targets):
    with pytest.raises(ValueError):
        SpectrumProblem(spectrum, targets)


def test_problem_accepts_int_fraction_and_str_targets():
    p = SpectrumProblem((1, 2, 3), (1, Fraction(1, 3), "0.1"))
    assert p.targets == (Fraction(1), Fraction(1, 3), Fraction(1, 10))
    assert SpectrumProblem((1, 2), ("-1/2", "7/5")).targets == (-HALF, Fraction(7, 5))


def test_problem_stores_a_list_spectrum_as_a_hashable_tuple():
    p = SpectrumProblem([2, 3], [0, HALF])
    assert p.spectrum == (2, 3) and p.targets == (Fraction(0), HALF)
    assert hash(p) == hash(SpectrumProblem((2, 3), (0, HALF)))


def test_beta_and_grid_reject_inexact_frequencies():
    for spectrum in [(1, 2.5), (1, 2.0), (True, 2), (1, Fraction(3))]:
        with pytest.raises(ValueError):
            beta_exact(spectrum)
        with pytest.raises(ValueError):
            alpha_grid_lower_bound(spectrum, 2)
    with pytest.raises(ValueError):
        beta_exact((2, 1))


def test_mu_exact_refuses_oversized_spectrum():
    huge = SpectrumProblem((1, 2, 10**9), (0, 0, 0))
    assert candidate_budget(huge.spectrum) > MAX_CANDIDATE_BUDGET
    with pytest.raises(ValueError, match="limit"):
        mu_exact(huge)
    # the value-only path refuses it too
    with pytest.raises(ValueError, match="limit"):
        binary_values(huge.spectrum)
    # a d = 1 spectrum with odd n_1 needs no scan (both binary targets are
    # twins of the all-zero one), so only the budget check refuses it
    with pytest.raises(ValueError, match=r"^spectrum \(2000001,\) allows up to 4000006 "):
        binary_values((2000001,))
    # the largest size the benchmarks use stays well inside the limit
    assert 10 * candidate_budget((4, 5, 1100)) < MAX_CANDIDATE_BUDGET


def test_beta_exact_examples():
    value, argmax = beta_exact((1, 2))
    assert value == Fraction(1, 6) and argmax == (Fraction(0), HALF)
    assert beta_exact((1, 2, 100))[0] == Fraction(17, 101)
    assert beta_exact((2, 3, 300))[0] == Fraction(31, 302)


def binary_targets(d):
    return list(itertools.product((Fraction(0), HALF), repeat=d))


def test_beta_exact_is_the_max_over_binary_targets():
    # beta_exact equals the max over all 2^d binary targets, ties going to
    # the lexicographically smallest target
    rng = random.Random(8)
    for _ in range(10):
        a, b = rand_coprime_pair(rng, 10)
        n = rng.randrange(b + 1, 60)
        spectrum = (a, b, n)
        values = {t: mu_value(spectrum, t) for t in binary_targets(3)}
        best = max(values.values())
        argmax = min(t for t, v in values.items() if v == best)
        assert beta_exact(spectrum) == (best, argmax)


def test_binary_values_are_what_beta_exact_reduces():
    values = binary_values((2, 5, 40))
    # every binary target, the toggled twin of each scanned one included, by
    # index in lexicographic order: the first index of the maximum is the
    # smallest tied target
    assert len(values) == 8
    value, argmax = beta_exact((2, 5, 40))
    assert value == max(values) == values[binary_targets(3).index(argmax)]
    # the value-only scans behind binary_values and mu_value agree with mu_exact
    rng = random.Random(40)
    triples = [(2, 5, 40)] + [rand_triple(rng, hi_pair=12, n_lo=1, n_hi=400)
                              for _ in range(12)]
    for spectrum in triples:
        for t, value in zip(binary_targets(3), binary_values(spectrum), strict=True):
            v = mu_exact(SpectrumProblem(spectrum, t)).value
            assert mu_value(spectrum, t) == value == v, (spectrum, t)


def toggle_representative(spectrum, t):
    """t, or its toggle (1/2 - t_j at every odd n_j) when t_j = 1/2 at the
    first odd n_j."""
    odd = [tj for nj, tj in zip(spectrum, t) if nj % 2]
    if odd and odd[0] == HALF:
        return tuple(HALF - tj if nj % 2 else tj for nj, tj in zip(spectrum, t))
    return t


def _binary_spectra():
    """Random spectra of 1 to 6 frequencies below 40, each also doubled (all
    even), after four small fixed ones."""
    rng = random.Random(1010)
    spectra = [(1,), (2,), (1, 2), (2, 4)]
    for _ in range(40):
        d = rng.randrange(1, 7)
        spectrum = tuple(sorted(rng.sample(range(1, 40), d)))
        spectra.append(spectrum)
        spectra.append(tuple(2 * nj for nj in spectrum))  # all even
    return spectra


def test_binary_values_cover_every_binary_target():
    """The toggle lemma: binary_values holds a value for every binary
    target, the one of the target's toggle representative."""
    for spectrum in _binary_spectra():
        values = binary_values(spectrum)
        targets = binary_targets(len(spectrum))
        assert len(values) == len(targets), spectrum
        for value, t in zip(values, targets):
            assert value == values[targets.index(toggle_representative(spectrum, t))], \
                (spectrum, t)


def test_binary_values_equal_mu_value_by_index():
    """binary_values(s)[i] is mu_value at the i-th binary target of the
    lexicographic order, on spectra of 1 to 6 frequencies, all-even ones
    (no toggling pair: every target but the all-zero one is scanned) and
    d = 1 (an odd n_1 leaves no target to scan).  beta_exact's argmax is the
    smallest target of the maximum, the first index of it."""
    for spectrum in _binary_spectra():
        values = binary_values(spectrum)
        targets = binary_targets(len(spectrum))
        assert values == [mu_value(spectrum, t) for t in targets], spectrum
        best = max(values)
        argmax = min(t for t, v in zip(targets, values) if v == best)
        assert beta_exact(spectrum) == (best, argmax), spectrum


def test_binary_values_scans_one_member_of_each_toggling_pair(monkeypatch):
    """binary_values scans exactly the targets with t_j = 0 at the first odd
    n_j (every target when all n_j are even), once each, in lexicographic
    order, on the grid D = 2 as their bits, but for the all-zero target,
    whose value 0 needs no scan."""
    scanned = []
    scan = oracle._scan

    def recording_scan(spectrum, D, scaled):
        assert D == 2 and set(scaled) <= {0, 1}
        scanned.append(tuple(Fraction(sj, D) for sj in scaled))
        return scan(spectrum, D, scaled)

    monkeypatch.setattr(oracle, "_scan", recording_scan)
    for spectrum in _binary_spectra() + [(1, 3, 182), (3, 5, 301), (2, 3, 4, 9)]:
        scanned.clear()
        binary_values(spectrum)
        assert scanned == [t for t in binary_targets(len(spectrum))
                           if toggle_representative(spectrum, t) == t and any(t)], spectrum


def test_beta_exact_cap():
    with pytest.raises(ValueError, match=r"^\|S\| = 13 exceeds MAX_BINARY_SIZE = 12$"):
        beta_exact(tuple(range(1, 14)))
    assert MAX_BINARY_SIZE == 12
    value, _ = beta_exact((1, 2, 3, 4, 5))
    assert 0 < value <= HALF


def test_alpha_grid_examples():
    assert alpha_grid_lower_bound((1, 2), 6)[0] == Fraction(1, 6)
    assert alpha_grid_lower_bound((1, 2), 2)[0] == Fraction(1, 6)
    with pytest.raises(ValueError):
        alpha_grid_lower_bound((1, 2), 1)


def test_alpha_grid_monotone_and_bounded():
    rng = random.Random(9)
    for _ in range(6):
        a, b = rand_coprime_pair(rng, 8)
        n = rng.randrange(b + 1, 25)
        coarse = alpha_grid_lower_bound((a, b, n), 3)[0]
        fine = alpha_grid_lower_bound((a, b, n), 6)[0]
        assert coarse <= fine <= HALF
        # grid values are certified lower bounds for the binary constant too
        assert coarse <= HALF


def test_alpha_grid_lower_bounds_mu_at_grid_targets():
    value, argmax = alpha_grid_lower_bound((2, 3), 4)
    assert mu_exact(SpectrumProblem((2, 3), argmax)).value == value
    assert argmax[0] == 0
    # a tie goes to the lexicographically smallest grid target: (0, 3/4) ties
    # the first argmax, (0, 1/2, 0) the second
    assert (value, argmax) == (Fraction(1, 10), (0, Fraction(1, 4)))
    assert alpha_grid_lower_bound((2, 5, 9), 4) == (Fraction(5, 28), (0, 0, HALF))


def test_grid_scans_each_target_as_its_integers(monkeypatch):
    scans = []
    scan = oracle._scan

    def recording_scan(spectrum, D, scaled):
        scans.append((D, tuple(scaled)))
        return scan(spectrum, D, scaled)

    def no_conversion(targets):
        raise AssertionError("a grid target was converted from Fractions")

    monkeypatch.setattr(oracle, "_scan", recording_scan)
    monkeypatch.setattr(oracle, "_grid", no_conversion)
    assert alpha_grid_lower_bound((2, 5, 9), 4) == (Fraction(5, 28), (0, 0, HALF))
    assert scans == [(4, (0, i, j)) for i in range(4) for j in range(4)]


def test_grid_refuses_oversized_grid_before_building_it(monkeypatch):
    assert 316 ** 2 <= MAX_GRID_TARGETS < 317 ** 2
    with pytest.raises(ValueError, match="limit"):
        alpha_grid_lower_bound((1, 2, 100), 317)
    with pytest.raises(ValueError, match="limit"):
        alpha_grid_lower_bound((1, 2, 100), 10**9)
    with pytest.raises(ValueError, match="limit"):
        alpha_grid_lower_bound((7,), 10**9)

    def no_evaluation(spectrum, D, scaled):
        raise AssertionError("the grid was evaluated")

    # the work limit: each 1/316 target on (1, 2, 1000) allows 9036 candidates
    monkeypatch.setattr(oracle, "_scan", no_evaluation)
    with pytest.raises(ValueError, match="oracle candidates"):
        alpha_grid_lower_bound((1, 2, 1000), 316)
    assert 128 ** 2 * candidate_budget((1, 2, 1000)) <= MAX_GRID_WORK
    assert 129 ** 2 * candidate_budget((1, 2, 1000)) > MAX_GRID_WORK
    # the 1/316 grid stays admitted at n = 100 (2.4-2.8 s measured, Python 3.11, 2-CPU x86)
    assert 316 ** 2 * candidate_budget((1, 2, 100)) <= MAX_GRID_WORK


def test_oracle_imports_nothing_it_checks():
    """The oracle is the ground truth for the closed forms, the pair solver
    and the greedy construction, so it may reuse none of their code."""
    imported = set()  # (kronlab module, name)
    for node in ast.walk(ast.parse(Path(oracle.__file__).read_text())):
        if isinstance(node, ast.ImportFrom) and node.module is None:
            imported |= {(alias.name, "*") for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            imported |= {(node.module.split(".")[-1], alias.name) for alias in node.names}
        elif isinstance(node, ast.Import):
            imported |= {(alias.name.split(".")[-1], "*") for alias in node.names}
    assert not {module for module, _ in imported} & {"closed_form", "greedy_triple",
                                                     "pair_solver"}
