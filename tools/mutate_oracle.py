"""Mutation check of the oracle: does tests/test_oracle.py notice small faults?

Each mutant replaces one token sequence of src/kronlab/oracle.py.  The script
copies src/, tests/ and pyproject.toml into a temporary directory, writes the
mutated oracle.py there, runs tests/test_oracle.py on the copy and counts the
mutant as killed when the tests fail.  The checkout itself is only read.

    python tools/mutate_oracle.py            # every mutant
    python tools/mutate_oracle.py tie-rule   # the named mutants only

It prints one line per mutant and the survivors, and exits 1 when a mutant
that is not listed as equivalent survives.  Not part of the tier-1 suite:
each mutant costs one run of tests/test_oracle.py (10-20 s).
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
    ("tie-rule", "if worst < best or X < best_X:", "if worst < best:"),
    ("tie-rule-larger-x", "or X < best_X:", "or X > best_X:"),
    ("half-integer-test-thirds", "t.denominator <= 2 for", "t.denominator <= 3 for"),
    ("half-integer-test-integers", "t.denominator <= 2 for", "t.denominator < 2 for"),
    ("half-range-excludes-midpoint", "stop = half + 1 if", "stop = half if"),
    ("halve-every-target", "for t in targets) else L", "for t in targets) else half + 1"),
    ("prune-first-term-on-ties", "if worst > best:\n                continue",
     "if worst >= best:\n                continue"),
    ("prune-other-terms-on-ties", "if worst > best:\n                        break",
     "if worst >= best:\n                        break"),
    ("crossing-start-plus-1", "// total % step, L, step)", "// total % step + 1, L, step)"),
    ("crossing-start-minus-1", "// total % step, L, step)", "// total % step - 1, L, step)"),
    ("valley-start-plus-1", "tj // nj % step, L, step)", "tj // nj % step + 1, L, step)"),
    ("valley-start-minus-1", "tj // nj % step, L, step)", "tj // nj % step - 1, L, step)"),
    ("drop-first-crossing-progression", "in itertools.combinations(range(len(spectrum)), 2):",
     "in itertools.islice(itertools.combinations(range(len(spectrum)), 2), 1, None):"),
    ("drop-last-valley-progression", "in zip(spectrum, scaled):",
     "in zip(spectrum[:-1], scaled[:-1]):"),
    ("walk-crossings-only", "in crossings or extrema:", "in crossings:"),
    ("walk-extrema-only", "in crossings or extrema:", "in extrema:"),
    ("walk-extrema-too", "in crossings or extrema:", "in crossings + extrema:"),
    ("count-walked-only", "L, crossings + extrema", "L, crossings or extrema"),
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
