"""Mutation check: do the tests of a module notice small faults in it?

Each entry of MUTANTS names one source file, the test module that guards it
and its mutants; each mutant replaces one token sequence of that file.  The
script copies src/, tests/, README.md and pyproject.toml into a temporary
directory, writes the mutated file there, runs the entry's test module on
the copy and counts the mutant as killed when the tests fail.  The checkout
itself is only read.

    python tools/mutate.py                # every mutant
    python tools/mutate.py closed_form    # the mutants of closed_form.py
    python tools/mutate.py tie-rule       # the named mutants only

It prints one line per mutant, then killed/total per file and the
survivors, and exits 1 when a mutant that is not listed as equivalent
survives.  Not part of the tier-1 suite: each mutant costs one run of its
test module, up to its first failure (oracle.py 1-25 s, closed_form.py
1-4 s).
"""
from __future__ import annotations

import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 600

#: source file -> (its test module, [(name, old, new)]): each ``old``
#: occurs exactly once in its file.
MUTANTS = {
    Path("src/kronlab/oracle.py"): ("tests/test_oracle.py", [
        ("tie-rule", " or Y * best_M < best_Y * M:", ":"),
        ("tie-rule-larger-x", "or Y * best_M < best_Y * M:", "or Y * best_M > best_Y * M:"),
        ("tie-compare-cross-flipped", "or Y * best_M < best_Y * M:",
         "or Y * M < best_Y * best_M:"),
        ("value-compare-cross-flipped", "if worst * best_M < best * M or",
         "if worst * M < best * best_M or"),
        ("threshold-rounded-up", "thr = best * M // best_M", "thr = -(-best * M // best_M)"),
        ("drop-threshold-refresh", "best_Y, best_M = worst, Y, M\n                    thr = worst",
         "best_Y, best_M = worst, Y, M"),
        ("half-integer-test-thirds", "t.denominator <= 2 for", "t.denominator <= 3 for"),
        ("half-integer-test-integers", "t.denominator <= 2 for", "t.denominator < 2 for"),
        ("half-range-excludes-midpoint", "half + 1 if halve else M", "half if halve else M"),
        ("halve-every-target", "if halve else M, D)", "if halve else half + 1, D)"),
        ("prune-first-term-on-ties", "if worst > thr:\n                continue",
         "if worst >= thr:\n                continue"),
        ("prune-other-terms-on-ties", "if worst > thr:\n                        break",
         "if worst >= thr:\n                        break"),
        ("crossing-start-plus-1", "range((si + sj) % D,", "range((si + sj) % D + 1,"),
        ("crossing-start-minus-1", "range((si + sj) % D,", "range((si + sj) % D - 1,"),
        ("valley-start-plus-1", "range(2 * sj % D,", "range(2 * sj % D + 1,"),
        ("valley-start-minus-1", "range(2 * sj % D,", "range(2 * sj % D - 1,"),
        ("drop-first-crossing-progression", "in itertools.combinations(zip(spectrum, scaled), 2)]",
         "in itertools.islice(itertools.combinations(zip(spectrum, scaled), 2), 1, None)]"),
        ("drop-last-valley-progression", "for nj, sj in zip(spectrum, scaled)]",
         "for nj, sj in zip(spectrum[:-1], scaled[:-1])]"),
        ("offset-scaled-by-D", "(nk, sk * scale)", "(nk, sk * D)"),
        ("walk-crossings-only", "in crossings or extrema:", "in crossings:"),
        ("walk-extrema-only", "in crossings or extrema:", "in extrema:"),
        ("walk-extrema-too", "in crossings or extrema:", "in crossings + extrema:"),
        ("count-walked-only", "best_M, crossings + extrema", "best_M, crossings or extrema"),
        ("binary-keep-half-member", "bits[odd[0]] == 0:", "bits[odd[0]] == HALF:"),
        ("binary-last-odd-index", "bits[odd[0]]", "bits[odd[-1]]"),
        ("binary-no-filter", "if not odd or bits[odd[0]] == 0:", "if True:"),
    ]),
    Path("src/kronlab/closed_form.py"): ("tests/test_closed_form.py", [
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
        ("regime-drops-first-clause", "Fraction(3 * b - a, 2 * n) <= en\n            and ", ""),
        ("regime-drops-second-clause",
         "\n            and Fraction(1, a + b) - self.ln > Fraction(b - a, 2 * n)", ""),
        ("S-from-g-minus-h", "S = ((g + h) * r2)", "S = ((g - h) * r2)"),
        ("canonical-pair-on-a-parity", "Fraction(0)) if b % 2 == 1", "Fraction(0)) if a % 2 == 1"),
    ]),
}

#: Mutants that change no result, with the reason.
EQUIVALENT = {
    "half-integer-test-integers":
        "halves only integer targets; half-integer ones are then scanned over "
        "[0, 1), which costs twice the work but finds the same minimiser",
    "walk-extrema-too":
        "when d >= 2 every minimiser is a balanced crossing, so walking the "
        "valleys and peaks as well costs twice the work but finds the same "
        "minimiser",
    "drop-threshold-refresh":
        "a stale, larger thr only lets more candidates reach the final "
        "compare; one worse than the new incumbent fails its value test there, "
        "and within one progression Y only grows, so it cannot win a tie on x",
    "half-table-shift-subtracted":
        "S - (a+b) and S + (a+b) are the same residue mod 2(a+b)",
    "regime-drops-second-clause":
        "clause (1) implies clause (2).  E_n is a row (n+K)/(2(a+b)(n+c)) with "
        "K <= 2ab, or L_n, so (1) gives n + 2ab > (3b-a)(a+b), that is "
        "n > 3b^2 - a^2.  (2) reads n^2 > P*n + Q with P < b^2 - a^2 + ab and "
        "Q = (b-a)ab < n*b/2, and P + Q/n < 3b^2 - a^2 < n",
}


def run_mutant(path: Path, tests: str, name: str, old: str, new: str) -> tuple[bool, float]:
    """(killed, seconds): the test module on a copy with one mutation of path."""
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
        start = time.perf_counter()
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", tests],
                cwd=copy, capture_output=True, timeout=TIMEOUT_S)
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
        print(f"{path.name}: {killed} of {len(chosen)} mutants killed by {tests}", flush=True)
    for name in survivors:
        print(f"survivor {name}: {EQUIVALENT.get(name, 'NOT EQUIVALENT: a test is missing')}")
    return 1 if set(survivors) - set(EQUIVALENT) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
