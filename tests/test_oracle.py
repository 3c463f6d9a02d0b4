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
from kronlab.exact_arith import nearest_int
import kronlab.oracle as oracle
from kronlab.oracle import (MAX_BINARY_SIZE, MAX_CANDIDATE_BUDGET,
                            MAX_GRID_TARGETS, MAX_GRID_WORK, SpectrumProblem,
                            SpectrumTooLargeError,
                            alpha_grid_lower_bound, beta_exact, binary_values,
                            candidate_budget, mu_exact, mu_value)
from oracle_reference import mu_exact_reference, nearest_int_distance

HALF = Fraction(1, 2)


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


def test_result_invariants():
    rng = random.Random(3)
    for _ in range(40):
        p = _rand_problem(rng)
        r = mu_exact(p)
        assert 0 <= r.x_star < 1
        residuals = [nj * r.x_star - tj for nj, tj in zip(p.spectrum, p.targets)]
        assert max(abs(res - k) for res, k in zip(residuals, r.k_star)) == r.value
        assert r.candidates_examined <= candidate_budget(p.spectrum)


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
    *_, progressions = oracle._scan(p.spectrum, p.targets)

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
    # the largest size the benchmarks use stays well inside the limit
    assert 10 * candidate_budget((4, 5, 1100)) < MAX_CANDIDATE_BUDGET


def test_beta_exact_examples():
    value, argmax = beta_exact((1, 2))
    assert value == Fraction(1, 6) and argmax == (Fraction(0), HALF)
    assert beta_exact((1, 2, 100))[0] == Fraction(17, 101)
    assert beta_exact((2, 3, 300))[0] == Fraction(31, 302)


def binary_targets(d):
    return list(itertools.product((Fraction(0), HALF), repeat=d))


def test_beta_exact_toggle_and_jobs_consistency():
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
    # one representative per toggling pair: t_2 = 0 at the first odd frequency
    assert list(values) == [t for t in binary_targets(3) if t[1] == 0]
    value, argmax = beta_exact((2, 5, 40))
    assert value == max(values.values()) == values[argmax]
    # the value-only scans behind binary_values and mu_value agree with mu_exact
    rng = random.Random(40)
    triples = [(2, 5, 40)] + [rand_triple(rng, hi_pair=12, n_lo=1, n_hi=400)
                              for _ in range(12)]
    for spectrum in triples:
        values = binary_values(spectrum)
        for t in binary_targets(3):
            v = mu_exact(SpectrumProblem(spectrum, t)).value
            assert mu_value(spectrum, t) == v, (spectrum, t)
            if t in values:
                assert values[t] == v, (spectrum, t)


def toggle_representative(spectrum, t):
    """t, or its toggle (1/2 - t_j at every odd n_j) when t_j = 1/2 at the
    first odd n_j."""
    odd = [tj for nj, tj in zip(spectrum, t) if nj % 2]
    if odd and odd[0] == HALF:
        return tuple(HALF - tj if nj % 2 else tj for nj, tj in zip(spectrum, t))
    return t


def test_binary_values_cover_every_binary_target():
    """The toggle lemma: every binary target costs what its representative
    in binary_values costs, and the representatives are exactly the targets
    that are their own, in lexicographic order."""
    rng = random.Random(1010)
    spectra = [(1,), (2,), (1, 2), (2, 4)]
    for _ in range(40):
        d = rng.randrange(1, 7)
        spectrum = tuple(sorted(rng.sample(range(1, 40), d)))
        spectra.append(spectrum)
        spectra.append(tuple(2 * nj for nj in spectrum))  # all even
    for spectrum in spectra:
        values = binary_values(spectrum)
        targets = binary_targets(len(spectrum))
        assert list(values) == [t for t in targets
                                if toggle_representative(spectrum, t) == t], spectrum
        for t in targets:
            assert mu_value(spectrum, t) == values[toggle_representative(spectrum, t)], \
                (spectrum, t)


def test_beta_exact_cap():
    with pytest.raises(SpectrumTooLargeError, match="MAX_BINARY_SIZE = 12"):
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


def test_grid_refuses_oversized_grid_before_building_it(monkeypatch):
    assert 316 ** 2 <= MAX_GRID_TARGETS < 317 ** 2
    with pytest.raises(ValueError, match="limit"):
        alpha_grid_lower_bound((1, 2, 100), 317)
    with pytest.raises(ValueError, match="limit"):
        alpha_grid_lower_bound((1, 2, 100), 10**9)
    with pytest.raises(ValueError, match="limit"):
        alpha_grid_lower_bound((7,), 10**9)

    def no_evaluation(spectrum, targets):
        raise AssertionError("the grid was evaluated")

    # the work limit: each 1/316 target on (1, 2, 1000) allows 9036 candidates
    monkeypatch.setattr(oracle, "_scan", no_evaluation)
    with pytest.raises(ValueError, match="oracle candidates"):
        alpha_grid_lower_bound((1, 2, 1000), 316)
    assert 128 ** 2 * candidate_budget((1, 2, 1000)) <= MAX_GRID_WORK
    assert 129 ** 2 * candidate_budget((1, 2, 1000)) > MAX_GRID_WORK
    # the 1/316 grid stays admitted at n = 100 (6.1-6.5 s measured, Python 3.11, 2-CPU x86)
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
