"""Mutation check: do the tests of a module notice small faults in it?

Each entry of MUTANTS names one source file, the test modules that guard
it and its mutants; each mutant replaces one token sequence of that file.
The script copies src/, tests/, README.md and pyproject.toml into a
temporary directory, writes the mutated file there, runs the entry's test
modules on the copy and counts the mutant as killed when the tests fail.
The checkout itself is only read.

    python tools/mutate.py                # every mutant
    python tools/mutate.py closed_form    # the mutants of closed_form.py
    python tools/mutate.py tie-rule       # the named mutants only

It prints one line per mutant, then killed/total per file and the
survivors, and exits 1 when a mutant that is not listed as equivalent
survives.  Not part of the tier-1 suite, which checks only the table
(tests/test_mutation_table.py): each mutant costs one run of its test
modules, up to their first failure (1-8 s each).  The tests run under the
tools/time_limit.py plugin, so a mutant that makes a test loop forever fails
that test after its LIMIT_S.
"""
from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: A mutant whose tests run longer than this is counted as killed, a backstop
#: behind the per-test limit of tools/time_limit.py: a window of the oracle's
#: walk that ends before the point it starts from never lets the walk end.
#: The slowest entry's tests take about 30 s unmutated.
TIMEOUT_S = 120

#: One window of the oracle's walk, and one sub-window within it, from the
#: choice of k to the bounds, for the mutants of their width.
_WINDOW = ("c = o1 - (o1 + thr - n1 * lo) // M * M\n"
           "                first = max(lo, -((thr - c) // n1))\n"
           "                hi = min(end, (c + thr) // n1 + 1)")
_SUB_WINDOW = ("c = o2 - (o2 + thr - n2 * first) // M * M\n"
               "                    sub = max(first, -((thr - c) // n2))\n"
               "                    sub += (start - sub) % D\n"
               "                    sub_hi = min(hi, (c + thr) // n2 + 1)")

#: source file -> (its test modules, [(name, old, new)]): each ``old``
#: occurs exactly once in its file.
MUTANTS = {
    Path("src/kronlab/oracle.py"): (("tests/test_oracle.py",), [
        ("tie-rule", " or Y * best_M < best_Y * M:", ":"),
        ("tie-rule-larger-x", "or Y * best_M < best_Y * M:", "or Y * best_M > best_Y * M:"),
        ("tie-compare-cross-flipped", "or Y * best_M < best_Y * M:",
         "or Y * M < best_Y * best_M:"),
        ("value-compare-cross-flipped", "if worst * best_M < best * M or",
         "if worst * M < best * best_M or"),
        ("threshold-rounded-up", "thr = best * M // best_M", "thr = -(-best * M // best_M)"),
        ("drop-threshold-refresh",
         "best_Y, best_M = worst, Y, M\n                        thr = worst",
         "best_Y, best_M = worst, Y, M"),
        ("half-integer-test-thirds", "t.denominator <= 2 for", "t.denominator <= 3 for"),
        ("half-integer-test-integers", "t.denominator <= 2 for", "t.denominator < 2 for"),
        ("half-range-excludes-midpoint", "half + 1 if halve else M", "half if halve else M"),
        ("halve-every-target", "if halve else M)", "if halve else half + 1)"),
        ("prune-first-term-on-ties", "if worst > thr:\n                    continue",
         "if worst >= thr:\n                    continue"),
        ("prune-other-terms-on-ties", "if worst > thr:\n                            break",
         "if worst >= thr:\n                            break"),
        ("crossing-start-plus-1", "range((si + sj) % D,", "range((si + sj) % D + 1,"),
        ("crossing-start-minus-1", "range((si + sj) % D,", "range((si + sj) % D - 1,"),
        ("valley-start-plus-1", "range(2 * sj % D,", "range(2 * sj % D + 1,"),
        ("valley-start-minus-1", "range(2 * sj % D,", "range(2 * sj % D - 1,"),
        ("drop-first-crossing-progression", "in itertools.combinations(zip(spectrum, scaled), 2)]",
         "in itertools.islice(itertools.combinations(zip(spectrum, scaled), 2), 1, None)]"),
        ("drop-last-valley-progression", "for nj, sj in zip(spectrum, scaled)]",
         "for nj, sj in zip(spectrum[:-1], scaled[:-1])]"),
        ("offset-scaled-by-D", "(nk, sk * scale)", "(nk, sk * D)"),
        ("walk-rule-inverted", "if 8 * n2 * D <= M:", "if 8 * n2 * D > M:"),
        ("window-offset-unscaled", "o1 = scaled[0] * m", "o1 = scaled[0]"),
        ("window-first-k-plus-1", "c = o1 - (o1 + thr - n1 * lo) // M * M",
         "c = o1 - (o1 + thr - n1 * lo) // M * M + M"),
        ("window-start-plus-1", "first = max(lo, -((thr - c) // n1))",
         "first = max(lo, -((thr - c) // n1) + 1)"),
        ("window-start-floor", "first = max(lo, -((thr - c) // n1))",
         "first = max(lo, (c - thr) // n1)"),
        ("window-end-minus-1", "hi = min(end, (c + thr) // n1 + 1)", "hi = min(end, (c + thr) // n1)"),
        ("window-end-ceil", "hi = min(end, (c + thr) // n1 + 1)",
         "hi = min(end, -(-(c + thr) // n1) + 1)"),
        ("window-width-thr-minus-1", _WINDOW, _WINDOW.replace("thr", "(thr - 1)")),
        ("window-width-thr-plus-1", _WINDOW, _WINDOW.replace("thr", "(thr + 1)")),
        ("sub-window-offset-unscaled", "o2 = scaled[i2] * m", "o2 = scaled[i2]"),
        ("sub-window-first-k-plus-1", "c = o2 - (o2 + thr - n2 * first) // M * M",
         "c = o2 - (o2 + thr - n2 * first) // M * M + M"),
        ("sub-window-start-plus-1", "sub = max(first, -((thr - c) // n2))",
         "sub = max(first, -((thr - c) // n2) + 1)"),
        ("sub-window-start-floor", "sub = max(first, -((thr - c) // n2))",
         "sub = max(first, (c - thr) // n2)"),
        ("sub-window-end-minus-1", "sub_hi = min(hi, (c + thr) // n2 + 1)",
         "sub_hi = min(hi, (c + thr) // n2)"),
        ("sub-window-end-ceil", "sub_hi = min(hi, (c + thr) // n2 + 1)",
         "sub_hi = min(hi, -(-(c + thr) // n2) + 1)"),
        ("sub-window-width-thr-minus-1", _SUB_WINDOW, _SUB_WINDOW.replace("thr", "(thr - 1)")),
        ("sub-window-width-thr-plus-1", _SUB_WINDOW, _SUB_WINDOW.replace("thr", "(thr + 1)")),
        ("sub-window-residue-dropped", "\n                    sub += (start - sub) % D", ""),
        ("residue-class-step-D", "step, lift, period = D * g,", "step, lift, period = D,"),
        ("residue-lifts-step-D", "lift, period = D * g, M // g,", "lift, period = D * g, D,"),
        ("residue-inverse-dropped", "* inverse % period", "% period"),
        ("residue-c0-negated", "c0 = n1 * start - o1", "c0 = o1 - n1 * start"),
        ("residue-stop-drops-ties", "if abs(r) > thr or", "if abs(r) >= thr or"),
        ("residue-stop-late", "if abs(r) > thr or", "if abs(r) > thr + 1 or"),
        ("residue-tie-negative-first", "if pos <= -neg:", "if pos < -neg:"),
        ("residue-walk-one-side", "if pos <= -neg:", "if True:"),
        ("walk-crossings-only", "in crossings or extrema:", "in crossings:"),
        ("walk-extrema-only", "in crossings or extrema:", "in extrema:"),
        ("walk-extrema-too", "in crossings or extrema:", "in crossings + extrema:"),
        ("count-walked-only", "best_M, crossings + extrema", "best_M, crossings or extrema"),
        ("count-no-divisibility-check",
         "            if rhs % (D * g):\n                continue\n", ""),
        ("count-step-whole-coset", "step = m // g", "step = m"),
        ("count-no-inverse", "k0 = rhs // (D * g) * pow(mj // g, -1, step) % step",
         "k0 = rhs // (D * g) % step"),
        ("count-against-itself", "in progressions[:i]:", "in progressions[:i + 1]:"),
        ("count-subtracts-uncovered", "m - covered.count(1)", "m - covered.count(0)"),
        ("binary-keep-half-member", "if i <= i ^ toggle:", "if i >= i ^ toggle:"),
        ("binary-last-odd-index", "if i <= i ^ toggle:", "if not i & toggle & -toggle:"),
        ("binary-no-filter", "if i <= i ^ toggle:", "if True:"),
        ("binary-keys-reversed", "return dict(zip(targets, values))",
         "return dict(zip(targets[::-1], values[::-1]))"),
        ("grid-steps-reversed", "for i in range(D)]", "for i in reversed(range(D))]"),
        ("k-star-numerator-drops-q", "nj * best_Y * tj.denominator -", "nj * best_Y -"),
        ("k-star-denominator-drops-q", "best_M * tj.denominator)[0]", "best_M)[0]"),
        ("k-star-takes-distance", "tj.denominator)[0]", "tj.denominator)[1]"),
    ]),
    Path("src/kronlab/closed_form.py"): (("tests/test_closed_form.py",), [
        ("type-1-drops-top-row", "if s in (0, 1, 2 * m - 1):", "if s in (0, 1):"),
        ("type-1-takes-row-2", "if s in (0, 1, 2 * m - 1):", "if s in (0, 1, 2, 2 * m - 1):"),
        ("type-3-ends-before-2a", "if s <= 2 * a:", "if s < 2 * a:"),
        ("type-3-ends-after-2a", "if s <= 2 * a:", "if s <= 2 * a + 1:"),
        ("type-3-numerator", "Fraction(n + b * s,", "Fraction(n + a * s,"),
        ("type-2-numerator", "Fraction(n + a * (2 * m - s),", "Fraction(n + a * (2 * m - s - 1),"),
        ("beta-at-R-when-R-is-a", "R if R > a else R + m", "R if R >= a else R + m"),
        ("beta-shift-short-by-1", "R if R > a else R + m", "R if R > a else R + m - 1"),
        ("half-table-unshifted", "_row(a, b, n, (S + a + b) % (2 * (a + b)))",
         "_row(a, b, n, S)"),
        ("half-table-shift-subtracted", "(S + a + b) % (2 * (a + b))",
         "(S - a - b) % (2 * (a + b))"),
        ("half-table-shift-plus-1", "(S + a + b) % (2 * (a + b))",
         "(S + a + b + 1) % (2 * (a + b))"),
        ("ln-numerator", "ln = Fraction(n + a * b,", "ln = Fraction(n + b,"),
        ("alpha-is-beta-at-gap", "alpha=ln if gap else beta", "alpha=beta"),
        ("witness-tie-picks-half", "v0 >= vh", "v0 > vh"),
        ("regime-drops-first-clause",
         "return Fraction(3 * self.b - self.a, 2 * self.n) <= self.alpha", "return True"),
        ("S-from-g-minus-h", "S = ((g + h) * r2)", "S = ((g - h) * r2)"),
        ("canonical-pair-on-a-parity", "Fraction(0)) if b % 2 == 1", "Fraction(0)) if a % 2 == 1"),
    ]),
    Path("src/kronlab/greedy_triple.py"): (
        ("tests/test_greedy_triple.py", "tests/test_certificate_golden.py"), [
        ("small-lambda-threshold-strict", "lam.numerator <= (p.b - p.a) * lam.denominator",
         "lam.numerator < (p.b - p.a) * lam.denominator"),
        ("ln-threshold-strict", "<= lam.denominator * (ln", "< lam.denominator * (ln"),
        ("window-end-factors-swapped", "(p.b, p.a) if sign > 0 else (p.a, p.b)",
         "(p.a, p.b) if sign > 0 else (p.b, p.a)"),
        ("modify-factors-swapped", "f = (a + n) if slow_side else (b + n)",
         "f = (b + n) if slow_side else (a + n)"),
        ("modify-step-sign-flipped", "step = gap - lam_ if diff > 0 else lam_ - gap",
         "step = lam_ - gap if diff > 0 else gap - lam_"),
        ("modify-gap-above-1-admitted", "if gap > gap_den:", "if gap > 2 * gap_den:"),
        ("modify-gap-1-refused", "if gap > gap_den:", "if gap >= gap_den:"),
        ("modify-keeps-x-only-below-lam", "if gap <= lam_:", "if gap < lam_:"),
        ("pick-low-end-floor", "lo_k = -(-lo_num // lo_den)", "lo_k = lo_num // lo_den"),
        ("pick-high-end-ceil", "hi_k = hi_num // hi_den", "hi_k = -(-hi_num // hi_den)"),
        ("pick-distance-ignored", "r * best[2] < best[1] * den", "k3 < best[0]"),
        ("pick-tie-takes-later-anchor", "r * best[2] < best[1] * den",
         "r * best[2] <= best[1] * den"),
        ("en-anchor-order-reversed", "[(sb, -1), (ba, +1)])", "[(ba, +1), (sb, -1)])"),
        ("en-no-second-best-anchor", "[(sb, -1), (ba, +1)])", "[(ba, +1)])"),
        ("en-cost-check-strict", "if cert.cost > en:", "if cert.cost >= en:"),
        ("greedy-bound-e-numerator", "+ a * b * lam.denominator,", ","),
        ("negation-keeps-k", "k=tuple(-kj for kj in cert.k)", "k=cert.k"),
    ]),
    Path("src/kronlab/pair_solver.py"): (("tests/test_pair_solver.py",), [
        ("s-rounds-down", "s = _nearest_ratio(-k1, a)[0]", "s = -k1 // a"),
        ("s-ties-round-up", "s = _nearest_ratio(-k1, a)[0]", "s = (a - 2 * k1) // (2 * a)"),
        ("second-best-shift-sign-flipped", "best.k1 - best.sign * h, best.k2 - best.sign * g",
         "best.k1 + best.sign * h, best.k2 + best.sign * g"),
        ("sign-negative-at-zero", "sign=-1 if signed < 0 else 1", "sign=-1 if signed <= 0 else 1"),
        ("negate-flips-sign-at-zero", "sign=1 if ba.lam == 0 else -ba.sign", "sign=-ba.sign"),
        ("bezout-order-swapped", "g, h = bezout_coprime(a, b)", "h, g = bezout_coprime(a, b)"),
        ("m-rounds-down", "m = _nearest_ratio(*_pair_residue(p))[0]",
         "m = _pair_residue(p)[0] // _pair_residue(p)[1]"),
    ]),
    Path("src/kronlab/exact_arith.py"): (
        ("tests/test_exact_arith.py", "tests/test_certificate_golden.py"), [
        ("halves-round-up", "if 2 * r > den:", "if 2 * r >= den:"),
        ("bezout-degenerate-pair", "return 1, a - 1", "return 1, a"),
        ("target-float-accepted", "not isinstance(t, (int, Fraction, str))",
         "not isinstance(t, (int, float, Fraction, str))"),
        ("target-bool-accepted", "if isinstance(t, bool) or not isinstance", "if not isinstance"),
        ("equal-frequencies-accepted", "x >= y for x, y", "x > y for x, y"),
        ("coprime-check-admits-gcd-2", "a, b = spectrum[:2]\n    if math.gcd(a, b) != 1:",
         "a, b = spectrum[:2]\n    if math.gcd(a, b) > 2:"),
        ("exponent-limit-plus-1", "int(exponent) > MAX_EXPONENT_DIGITS",
         "int(exponent) > MAX_EXPONENT_DIGITS + 1"),
        ("exponent-limit-minus-1", "int(exponent) > MAX_EXPONENT_DIGITS",
         "int(exponent) >= MAX_EXPONENT_DIGITS"),
    ]),
    Path("src/kronlab/cli.py"): (("tests/test_cli.py", "tests/test_golden.py"), [
        ("json-indent-1-space", 'inner = indent + "  "', 'inner = indent + " "'),
        ("json-item-separator-space", 'sep = "," + inner', 'sep = ", " + inner'),
        ("json-strings-unescaped", "return encode_basestring_ascii(value)",
         """return '"' + value + '"'"""),
        ("json-empty-dict-split", 'return "{}"', 'return "{\\n}"'),
        ("json-bool-python-literal", 'is True:\n        return "true"',
         'is True:\n        return "True"'),
        ("json-rational-default-precision", "rational_to_json(value, precision), dict",
         "rational_to_json(value), dict"),
    ]),
}

#: Mutants that change no result, with the reason.  Those that change only
#: the oracle's work (a wider window, a stale thr, more progressions or
#: points walked, residues walked in another order) are not listed:
#: tests/test_oracle.py pins the points that four verified rows and two mu
#: problems walk, which kills them.
EQUIVALENT = {
    "half-table-shift-subtracted":
        "S - (a+b) and S + (a+b) are the same residue mod 2(a+b)",
    "modify-keeps-x-only-below-lam":
        "at gap = lam the nudge (gap - lam)/f is 0, so x_star = x either way",
}


def run_mutant(path: Path, tests: tuple[str, ...], name: str, old: str, new: str
               ) -> tuple[bool, float]:
    """(killed, seconds): the test modules on a copy with one mutation of path."""
    source = (ROOT / path).read_text()
    if source.count(old) != 1:
        raise SystemExit(f"mutant {name}: {old!r} occurs {source.count(old)} times in {path}, "
                         "not once")
    with tempfile.TemporaryDirectory(prefix="kronlab-mutant-") as tmp:
        copy = Path(tmp)
        for tree in ("src", "tests"):
            shutil.copytree(ROOT / tree, copy / tree, ignore=shutil.ignore_patterns("__pycache__"))
        for file in ("pyproject.toml", "README.md"):
            shutil.copy(ROOT / file, copy)
        (copy / path).write_text(source.replace(old, new))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [str(ROOT / "tools"), os.environ.get("PYTHONPATH")]))}
        start = time.perf_counter()
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
                 "-p", "time_limit", *tests],
                cwd=copy, env=env, capture_output=True, timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return True, time.perf_counter() - start
        return proc.returncode != 0, time.perf_counter() - start


def main(argv: list[str]) -> int:
    known = {name for _, mutants in MUTANTS.values() for name, _, _ in mutants}
    unknown = set(argv) - known - {path.stem for path in MUTANTS}
    if unknown:
        raise SystemExit(f"unknown mutants or files: {sorted(unknown)}")
    survivors = []
    for path, (tests, mutants) in MUTANTS.items():
        chosen = [m for m in mutants if not argv or path.stem in argv or m[0] in argv]
        if not chosen:
            continue
        killed = 0
        for name, old, new in chosen:
            dead, seconds = run_mutant(path, tests, name, old, new)
            print(f"{name:32s} {'killed' if dead else 'SURVIVED'}  ({seconds:.1f} s)", flush=True)
            killed += dead
            if not dead:
                survivors.append(name)
        print(f"{path.name}: {killed} of {len(chosen)} mutants killed by {', '.join(tests)}",
              flush=True)
    for name in survivors:
        print(f"survivor {name}: {EQUIVALENT.get(name, 'NOT EQUIVALENT: a test is missing')}")
    return 1 if set(survivors) - set(EQUIVALENT) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
