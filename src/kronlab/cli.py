"""Command-line front end: single queries, congruence sweeps, verification.

Commands
  mu         exact approximation cost of a target vector (oracle), with an
             optional greedy certificate for coprime triples
  constants  closed-form constants and congruence data for one triple
  sweep      one CSV/JSON row per n over a range, optionally oracle-verified

Exit codes: 0 success, 1 usage/input error, 2 verification mismatch where
the formula claimed validity, 3 internal invariant breach.

A row's verified flag (constants --verify, sweep --verify) is one call of
_verified.  The oracle's values at the eight binary targets, from 3 scans,
check beta and both case tables; the witness must cost alpha, read from the
same values when R != a and from one more scan when R = a.

Reports are deterministic: identical invocations produce byte-identical
output.  A command builds its report model once: the dict of exact values
(Fractions, ints, lists, dicts and the SweepRow and CongruenceData records)
that its JSON report is.  _report renders that model in the one format asked
for: JSON through _json, or the command's text or CSV lines through the
renderer it hands over (_mu_text, _constants_text, _sweep_csv).  This module
is the one home of every report format; the library below it computes exact
values only.

main(argv) is the in-process entry point and returns the exit code.  The
parsers are built on the first call and reused by every later one in the
process.  An argv that starts with a command name goes straight to that
command's own parser, the one the top-level parser would hand it to; what
it leaves over the top-level parser reports as unrecognized, as its
parse_args does.  Every other argv (top-level help, no or an unknown
command, a leading option or "--") goes to the top-level parser.
"""
from __future__ import annotations

import argparse
import errno
import functools
import math
import os
import sys
from dataclasses import dataclass, fields as dataclass_fields, is_dataclass
from decimal import ROUND_HALF_EVEN, Context
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from typing import Callable, Iterator, Sequence

from .closed_form import (TripleConstants, canonical_binary_pair,
                          in_asymptotic_regime, triple_constants)
from .exact_arith import HALF, _checked_coprime
from .greedy_triple import NotInAsymptoticRegime, TripleProblem, greedy_en_certificate
from .oracle import (SpectrumProblem, alpha_grid_lower_bound, binary_values,
                     check_candidate_budget, mu_exact, mu_value)

#: sweep refuses ranges of more rows than this, before it evaluates any.  A
#: report's memory peaks at about 700 B per row as CSV and 1.5 kB per row
#: as --json (tracemalloc, 2*10^4 rows written with --out), so the largest
#: accepted sweep holds about 0.7 GB, or 1.5 GB with --json.
MAX_SWEEP_ROWS = 10**6

#: --precision refuses more significant digits than this, before any
#: computation.  Rendering is linear in the digits (about 6 ms and 1 MB per
#: rational at 10^6); at this limit a report's decimals cost microseconds
#: and about 10 kB each.
MAX_PRECISION = 10**4

#: significant digits of a report's decimals when --precision is not given
DEFAULT_PRECISION = 12

VERIFIED_ORACLE = "oracle-exact"
VERIFIED_WITNESS = "witness-sandwich"
UNVERIFIED = "unverified-small-n"


class VerificationMismatch(Exception):
    """Formula disagreed with the oracle on a triple inside the validated regime."""


class InvariantBreach(Exception):
    """An internal exact invariant failed (certificate below the oracle, ...)."""


@dataclass(frozen=True)
class SweepRow:
    a: int
    b: int
    n: int
    r: int
    R: int
    S: int
    alpha: Fraction
    beta: Fraction
    ln: Fraction
    gap: bool
    verified: str


#: the sweep CSV header: SweepRow's fields in order, the keys of a JSON row
CSV_COLUMNS = tuple(field.name for field in dataclass_fields(SweepRow))


def decimal_approx(q: Fraction, precision: int = DEFAULT_PRECISION) -> str:
    """Decimal rendering at ``precision`` significant digits, half-even.

    Display only; callers must never compare these strings numerically.
    """
    return str(Context(prec=precision, rounding=ROUND_HALF_EVEN).divide(q.numerator, q.denominator))


def rational_to_json(q: Fraction, precision: int = DEFAULT_PRECISION) -> dict:
    """The JSON object of a rational: the form _json writes for a Fraction."""
    return {
        "num": str(q.numerator),
        "den": str(q.denominator),
        "approx": decimal_approx(q, precision),
    }


def rational_to_csv(q: Fraction) -> str:
    """CSV cell form "num/den" (always includes the denominator)."""
    return f"{q.numerator}/{q.denominator}"


def _csv_cell(value) -> str:
    """One CSV cell: a Fraction as num/den, a bool as true/false, else str."""
    if isinstance(value, Fraction):
        return rational_to_csv(value)
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def _verified(tc: TripleConstants) -> str:
    """The row's verified flag: the closed forms checked against the oracle.

    binary_values gives the oracle's value at each binary target from 3
    scans (one per toggling pair but that of the all-zero target), and the
    checks read them by index, in this order: beta is their max; the case
    tables binary(0) and binary(1/2) are the values of the canonical pair
    with t3 = 0 and t3 = 1/2, indices i and i + 1, since t3 is the last
    bit; and the witness costs alpha.  A failed check gives
    unverified-small-n and ends the row.

    R != a: the witness is the canonical pair with the t3 of the larger
    table, t3 = 0 on a tie, and its expected cost is alpha.  Once the
    tables agree with values[i:i + 2], its oracle value is the larger of
    the two, so the witness check is max(values[i:i + 2]) == alpha, with
    no witness built and no index looked up.  The flag is oracle-exact.

    R = a: the witness is never binary, so one more scan evaluates it.
    Its t2 = (1 - (a+b)*L_n)/a lies below 1/(2a) <= 1/2, as
    L_n > 1/(2(a+b)).  And t2 = 0 would need (a+b)*L_n = 1, that is
    ab(a+b-2) = (a+b)n; as gcd(ab, a+b) = 1, a+b would divide a+b-2, so
    2, which no a+b >= 3 does.  The flag is witness-sandwich.
    """
    spectrum = (tc.a, tc.b, tc.n)
    values = binary_values(spectrum)
    # value j is at the binary target whose t1, t2, t3 are bits 2, 1, 0 of j
    t1, t2 = canonical_binary_pair(tc.a, tc.b)
    i = 4 * (t1 == HALF) + 2 * (t2 == HALF)
    tables = values[i:i + 2]
    if max(values) != tc.beta or tables != [tc.binary(0).value, tc.binary(HALF).value]:
        return UNVERIFIED
    if tc.gap:
        witness, alpha = tc.witness()
        return VERIFIED_WITNESS if mu_value(spectrum, witness) == alpha else UNVERIFIED
    return VERIFIED_ORACLE if max(tables) == tc.alpha else UNVERIFIED


def evaluate_sweep_row(a: int, b: int, n: int, verify: bool) -> SweepRow:
    tc = triple_constants(a, b, n)
    cd = tc.congruence
    return SweepRow(a=a, b=b, n=n, r=cd.r, R=cd.R, S=cd.S, alpha=tc.alpha,
                    beta=tc.beta, ln=tc.ln, gap=tc.gap,
                    verified=_verified(tc) if verify else UNVERIFIED)


def _emit(text: str, out_path: str | None) -> None:
    """Write the report; file writes are atomic and UTF-8 with LF endings."""
    if out_path is None:
        sys.stdout.write(text)
        return
    tmp = f"{out_path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, out_path)
    except OSError as exc:
        if os.path.exists(tmp):
            os.unlink(tmp)
        if exc.filename is None:
            raise
        # name the path asked for, not the temp file beside it
        raise OSError(exc.errno, exc.strerror, out_path) from None


def _check_out(out_path: str | None) -> None:
    """Refuse an existing directory, onto which _emit's rename would fail,
    then create and remove the temp file _emit writes beside out_path, so
    that an --out that cannot be written fails, with _emit's message, before
    a command spends its time on the report."""
    if out_path is None:
        return
    if os.path.isdir(out_path):
        raise OSError(errno.EISDIR, os.strerror(errno.EISDIR), out_path)
    tmp = f"{out_path}.tmp.{os.getpid()}"
    try:
        open(tmp, "w").close()
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, out_path) from None
    os.unlink(tmp)


def _fmt(q: Fraction, precision: int) -> str:
    return f"{q.numerator}/{q.denominator} (~{decimal_approx(q, precision)})"


def _json(value, precision: int, indent: str = "\n") -> str:
    """JSON text of an exact report value, byte for byte what the standard
    library's encoder writes with indent=2 and ASCII escaping; ``indent`` is
    the newline and indentation that precede the value's closing bracket.

    Dispatches on the exact type: str (through json's ASCII escaper), int,
    bool and None as themselves; a Fraction as the object rational_to_json
    gives at ``precision``, written in one step, since its strings need no
    escaping; a dataclass as its fields in order; a dict (str keys), list or
    tuple two spaces deeper per level, "{}" or "[]" when empty.  Raises
    TypeError on anything else, a float or a set included."""
    kind = type(value)
    if kind is str:
        return encode_basestring_ascii(value)
    if kind is int:
        return int.__repr__(value)
    if value is True:
        return "true"
    if value is False:
        return "false"
    if value is None:
        return "null"
    inner = indent + "  "
    if kind is Fraction:
        return (f'{{{inner}"num": "{value.numerator}",{inner}"den": "{value.denominator}",'
                f'{inner}"approx": "{decimal_approx(value, precision)}"{indent}}}')
    if is_dataclass(kind):
        value, kind = vars(value), dict
    sep = "," + inner
    if kind is dict:
        if not value:
            return "{}"
        return "{" + inner + sep.join([f"{encode_basestring_ascii(key)}: "
                                       f"{_json(item, precision, inner)}"
                                       for key, item in value.items()]) + indent + "}"
    if kind is list or kind is tuple:
        if not value:
            return "[]"
        return "[" + inner + sep.join([_json(item, precision, inner)
                                       for item in value]) + indent + "]"
    raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")


def _report(args, doc: dict, lines: Callable[[dict, int], Iterator[str]]) -> None:
    """Emit a command's report model ``doc``, the dict of exact values its
    JSON report is: with --json as _json writes it, otherwise as the text
    or CSV lines that ``lines(doc, precision)`` renders from it.

    This is the one place a report is serialized, and only the format asked
    for is rendered: a JSON report formats no text line, and a text or CSV
    report writes no JSON."""
    if args.json:
        text = _json(doc, args.precision) + "\n"
    else:
        text = "".join(f"{line}\n" for line in lines(doc, args.precision))
    _emit(text, args.out)


def _mu_text(doc: dict, precision: int) -> Iterator[str]:
    """The text lines of a mu report."""
    yield f"spectrum: {','.join(map(str, doc['spectrum']))}"
    yield f"targets: {', '.join(map(rational_to_csv, doc['targets']))}"
    yield f"mu = {_fmt(doc['mu'], precision)}"
    yield f"x_star = {_fmt(doc['x_star'], precision)}"
    yield f"k_star = {doc['k_star']}"
    yield f"candidates examined = {doc['candidates_examined']}"
    cert = doc.get("certificate")
    if cert:
        yield (f"certificate: x_star = {_fmt(cert['x_star'], precision)}, "
               f"cost = {_fmt(cert['cost'], precision)}, method = {cert['method']}"
               + (", negated" if cert["negated"] else ""))
        if "note" in cert:
            yield f"note: {cert['note']} (bound certificate shown)"


def _constants_text(doc: dict, precision: int) -> Iterator[str]:
    """The text lines of a constants report."""
    cd, witness = doc["congruence"], doc["witness"]
    yield f"triple: a={doc['a']} b={doc['b']} n={doc['n']}"
    yield (f"congruences: r={cd.r} T={cd.T} R={cd.R} r2={cd.r2} S={cd.S} "
           f"g={cd.g} h={cd.h} parity={cd.parity_case}")
    yield f"alpha = {_fmt(doc['alpha'], precision)}"
    yield f"beta  = {_fmt(doc['beta'], precision)}"
    yield f"L_n   = {_fmt(doc['ln'], precision)}"
    yield f"gap (alpha > beta) = {'true' if doc['gap'] else 'false'}"
    yield f"asymptotic regime = {'yes' if doc['in_asymptotic_regime'] else 'no (small n)'}"
    yield ("witness: t1={} t2={} t3={} (mod 1: {}), expected mu = {}".format(
        *map(rational_to_csv, witness.values())))
    if "verified" in doc:
        yield f"verified: {doc['verified']}"
    if "grid" in doc:
        grid = doc["grid"]
        yield (f"grid lower bound (D={grid['D']}): {_fmt(grid['value'], precision)} "
               f"at t=({', '.join(map(rational_to_csv, grid['argmax']))})")


def _sweep_csv(doc: dict, precision: int) -> Iterator[str]:
    """The CSV lines of a sweep report: the header, then one line per row."""
    yield ",".join(CSV_COLUMNS)
    for row in doc["rows"]:
        yield ",".join(map(_csv_cell, vars(row).values()))


def _parse_spectrum(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise ValueError(f"bad spectrum {text!r}: {exc}") from exc


def cmd_mu(args) -> int:
    spectrum = _parse_spectrum(args.set)
    problem = SpectrumProblem(spectrum, args.t.split(","))
    targets = problem.targets
    if args.greedy:
        if len(spectrum) != 3:
            raise ValueError("--greedy needs a 3-element spectrum with coprime a, b")
        triple = TripleProblem(*spectrum, *targets)
    result = mu_exact(problem)
    doc = {"spectrum": list(spectrum), "targets": list(targets), "mu": result.value,
           "x_star": result.x_star, "k_star": list(result.k_star),
           "candidates_examined": result.candidates_examined}
    if args.greedy:
        try:
            cert, note = greedy_en_certificate(triple), {}
        except NotInAsymptoticRegime as exc:
            cert, note = exc.certificate, {"note": str(exc)}
        if cert.cost < result.value:
            raise InvariantBreach(
                f"certificate cost {cert.cost} below oracle value {result.value}")
        doc["certificate"] = {**vars(cert), **note}
    _report(args, doc, _mu_text)
    return 0


def cmd_constants(args) -> int:
    a, b, n = args.a, args.b, args.n
    tc = triple_constants(a, b, n)
    cd = tc.congruence
    regime = tc.in_regime()
    # the grid refuses an oversized D before the oracle checks run
    grid = None if args.grid is None else alpha_grid_lower_bound((a, b, n), args.grid)
    verified = _verified(tc) if args.verify else None
    (t1, t2, t3), expected = tc.witness()
    doc = {"a": a, "b": b, "n": n, "congruence": cd, "alpha": tc.alpha, "beta": tc.beta,
           "ln": tc.ln, "gap": tc.gap, "in_asymptotic_regime": regime,
           "witness": {"t1": t1, "t2": t2, "t3_raw": t3, "t3_mod1": t3 - math.floor(t3),
                       "expected_mu": expected}}
    if args.verify:
        doc["verified"] = verified
    if grid is not None:
        doc["grid"] = {"D": args.grid, "value": grid[0], "argmax": list(grid[1])}
    _report(args, doc, _constants_text)
    if verified == UNVERIFIED and regime:
        raise VerificationMismatch(
            f"formula disagrees with oracle for ({a}, {b}, {n}) inside the regime")
    return 0


def worker_count(jobs: int, tasks: int) -> int:
    """Worker processes for ``tasks`` independent tasks: ``jobs``, clamped to
    the task count and the CPU count.  Raises ValueError when jobs < 1."""
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    workers = min(jobs, tasks)
    # below 2 the CPU count cannot lower it
    return workers if workers < 2 else min(workers, os.cpu_count() or 1)


def parallel_map(fn: Callable, items: Sequence, jobs: int) -> list:
    """[fn(item) for item in items], over worker_count(jobs, len(items)) processes.

    Results keep the order of ``items``; each worker takes about four chunks,
    which evens out unequal task costs."""
    workers = worker_count(jobs, len(items))
    if workers < 2:
        return [fn(item) for item in items]
    # imported here: only a pool pays for loading multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=workers) as pool:
        chunksize = math.ceil(len(items) / (4 * workers))
        return list(pool.map(fn, items, chunksize=chunksize))


def cmd_sweep(args) -> int:
    a, b = args.a, args.b
    if args.n_from > args.n_to:
        raise ValueError(f"--from {args.n_from} exceeds --to {args.n_to}")
    count = args.n_to - args.n_from + 1
    if count > MAX_SWEEP_ROWS:
        raise ValueError(f"--from {args.n_from} --to {args.n_to} asks for {count} rows, "
                         f"above the limit of {MAX_SWEEP_ROWS}")
    # every later row has a larger n: the first row is valid iff they all are
    _checked_coprime((a, b, args.n_from))
    if args.verify:
        # the oracle's budget grows with n: the last row decides for all
        check_candidate_budget((a, b, args.n_to))
    _check_out(args.out)
    rows = parallel_map(functools.partial(evaluate_sweep_row, a, b, verify=args.verify),
                        range(args.n_from, args.n_to + 1), args.jobs)
    _report(args, {"pair": [a, b], "rows": rows}, _sweep_csv)

    bad = [row for row in rows
           if row.verified == UNVERIFIED and args.verify
           and in_asymptotic_regime(a, b, row.n)]
    if bad:
        raise VerificationMismatch(
            "formula disagrees with oracle inside the regime for n in "
            f"{[row.n for row in bad]}")
    return 0


def _precision(text: str) -> int:
    """argparse type for --precision: an int from 1 to MAX_PRECISION."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    if value > MAX_PRECISION:
        raise argparse.ArgumentTypeError(
            f"{value} digits is above the limit of MAX_PRECISION = {MAX_PRECISION}")
    return value


def _add_common(parser):
    parser.add_argument("--json", action="store_true", help="JSON report")
    parser.add_argument("--out", metavar="PATH", help="write report to PATH (atomic)")
    parser.add_argument("--precision", type=_precision, default=DEFAULT_PRECISION,
                        help="significant digits for decimal approximations")


@functools.cache
def _parsers() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """(top-level parser, command name -> that command's parser), built on
    the first call and shared by every later one: callers must not mutate
    them.  They hold no command function; main looks the command up by name
    when it runs."""
    parser = argparse.ArgumentParser(prog="kronlab",
                                     description="Exact Kronecker constants of three-element "
                                                 "integer sets, with oracle verification.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_mu = sub.add_parser("mu", help="exact approximation cost of a target vector")
    p_mu.add_argument("--set", required=True, metavar="N1,N2,...",
                      help="comma-separated frequencies")
    p_mu.add_argument("--t", required=True, metavar="T1,T2,...",
                      help="comma-separated rational targets (p/q, p, or decimal)")
    p_mu.add_argument("--greedy", action="store_true",
                      help="also print a greedy certificate (3-element coprime sets)")
    _add_common(p_mu)

    p_con = sub.add_parser("constants", help="closed-form constants for one triple")
    p_con.add_argument("a", type=int)
    p_con.add_argument("b", type=int)
    p_con.add_argument("n", type=int)
    p_con.add_argument("--verify", action="store_true",
                       help="check every formula against the oracle")
    p_con.add_argument("--grid", type=int, metavar="D",
                       help="also compute the 1/D-grid lower bound")
    _add_common(p_con)

    p_sweep = sub.add_parser("sweep", help="constants for a range of n (CSV by default)")
    p_sweep.add_argument("a", type=int)
    p_sweep.add_argument("b", type=int)
    p_sweep.add_argument("--from", dest="n_from", type=int, required=True)
    p_sweep.add_argument("--to", dest="n_to", type=int, required=True)
    p_sweep.add_argument("--verify", action="store_true",
                         help="oracle-verify every row")
    p_sweep.add_argument("--jobs", type=int, default=1,
                         help="worker processes (default 1)")
    _add_common(p_sweep)

    return parser, {"mu": p_mu, "constants": p_con, "sweep": p_sweep}


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser, commands = _parsers()
    try:
        if argv and argv[0] in commands:
            # the top-level parser would hand argv[1:] whole to this parser
            # and report what it leaves over itself
            name = argv[0]
            args, extras = commands[name].parse_known_args(argv[1:])
            if extras:
                parser.error(f"unrecognized arguments: {' '.join(extras)}")
        else:
            args = parser.parse_args(argv)
            name = args.command
    except SystemExit as exc:
        # argparse exits 0 after --help and 2 on a usage error
        return 1 if exc.code else 0
    command = {"mu": cmd_mu, "constants": cmd_constants, "sweep": cmd_sweep}[name]
    try:
        return command(args)
    except VerificationMismatch as exc:
        print(f"kronlab: verification mismatch: {exc}", file=sys.stderr)
        return 2
    except InvariantBreach as exc:
        print(f"kronlab: invariant breach: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"kronlab: error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
