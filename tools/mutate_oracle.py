"""Mutation check of the oracle: does tests/test_oracle.py notice small faults?

Each mutant replaces one token sequence of src/kronlab/oracle.py.  The script
copies src/, tests/ and pyproject.toml into a temporary directory, writes the
mutated oracle.py there, runs tests/test_oracle.py on the copy and counts the
mutant as killed when the tests fail.  The checkout itself is only read.

    python tools/mutate_oracle.py            # every mutant
    python tools/mutate_oracle.py tie-rule   # the named mutants only

It prints one line per mutant and the survivors, and exits 1 when a mutant
that is not listed as equivalent survives.  Not part of the tier-1 suite:
each mutant costs one run of tests/test_oracle.py, up to its first
failure (1-25 s).
"""
from __future__ import annotations

import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ORACLE = Path("src") / "kronlab" / "oracle.py"
TIMEOUT_S = 600

#: (name, old, new): each ``old`` occurs exactly once in oracle.py.
MUTANTS = [
    ("tie-rule", " or Y * best_M < best_Y * M:", ":"),
    ("tie-rule-larger-x", "or Y * best_M < best_Y * M:", "or Y * best_M > best_Y * M:"),
    ("tie-compare-cross-flipped", "or Y * best_M < best_Y * M:", "or Y * M < best_Y * best_M:"),
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
]

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
}


def run_mutant(name: str, old: str, new: str) -> tuple[bool, float]:
    """(killed, seconds): tests/test_oracle.py on a copy with one mutation."""
    source = (ROOT / ORACLE).read_text()
    if source.count(old) != 1:
        raise SystemExit(f"mutant {name}: {old!r} occurs {source.count(old)} times, not once")
    with tempfile.TemporaryDirectory(prefix="kronlab-mutant-") as tmp:
        copy = Path(tmp)
        shutil.copytree(ROOT / "src", copy / "src",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copytree(ROOT / "tests", copy / "tests",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "pyproject.toml", copy)
        (copy / ORACLE).write_text(source.replace(old, new))
        start = time.perf_counter()
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
                 "tests/test_oracle.py"],
                cwd=copy, capture_output=True, timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return True, time.perf_counter() - start
        return proc.returncode != 0, time.perf_counter() - start


def main(argv: list[str]) -> int:
    chosen = [m for m in MUTANTS if not argv or m[0] in argv]
    unknown = set(argv) - {name for name, _, _ in MUTANTS}
    if unknown:
        raise SystemExit(f"unknown mutants: {sorted(unknown)}")
    survivors = []
    for name, old, new in chosen:
        killed, seconds = run_mutant(name, old, new)
        print(f"{name:32s} {'killed' if killed else 'SURVIVED'}  ({seconds:.1f} s)", flush=True)
        if not killed:
            survivors.append(name)
    killed = len(chosen) - len(survivors)
    print(f"{killed} of {len(chosen)} mutants killed")
    for name in survivors:
        print(f"survivor {name}: {EQUIVALENT.get(name, 'NOT EQUIVALENT: a test is missing')}")
    return 1 if set(survivors) - set(EQUIVALENT) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
