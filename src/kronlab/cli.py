"""Command-line front end: single queries, congruence sweeps, verification.

Commands
  mu         exact approximation cost of a target vector (oracle), with an
             optional greedy certificate for coprime triples
  constants  closed-form constants and congruence data for one triple
  sweep      one CSV/JSON row per n over a range, optionally oracle-verified

Exit codes: 0 success, 1 usage/input error, 2 verification mismatch where
the formula claimed validity, 3 internal invariant breach.

Reports are deterministic: identical invocations produce byte-identical
output.  A command builds its report from exact values (Fractions, ints,
lists and the SweepRow, Certificate and CongruenceData records) and _report
alone renders it: JSON rationals and records in one place, text and CSV as
joined lines.  This module is the one home of every report format; the
library below it computes exact values only.

main(argv) is the in-process entry point and returns the exit code.  The
parser is built on the first call and reused by every later one in the
process; build_parser() returns that shared parser, which callers must not
mutate.
"""
from __future__ import annotations

import argparse
import functools
import math
import os
import sys
from dataclasses import dataclass, fields as dataclass_fields, is_dataclass
from decimal import ROUND_HALF_EVEN, Context
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from typing import Callable, Sequence

from .closed_form import (TripleConstants, canonical_binary_pair,
                          in_asymptotic_regime, triple_constants)
from .exact_arith import HALF, _checked_coprime
from .greedy_triple import NotInAsymptoticRegime, TripleProblem, greedy_en_certificate
from .oracle import (SpectrumProblem, alpha_grid_lower_bound, binary_values,
                     check_candidate_budget, mu_exact, mu_value)

#: sweep refuses ranges of more rows than this, before it evaluates any: a
#: row costs about 750 B, so the largest accepted sweep holds about 0.9 GB.
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


def _witness_field(t: tuple, expected: Fraction) -> tuple[dict, str]:
    """Report field of the witness target t and the cost the closed forms give it."""
    t1, t2, t3 = t
    t3_mod1 = t3 - math.floor(t3)
    doc = {"t1": t1, "t2": t2, "t3_raw": t3, "t3_mod1": t3_mod1, "expected_mu": expected}
    return {"witness": doc}, (
        f"witness: t1={rational_to_csv(t1)} t2={rational_to_csv(t2)} "
        f"t3={rational_to_csv(t3)} (mod 1: {rational_to_csv(t3_mod1)}), "
        f"expected mu = {rational_to_csv(expected)}")


def _row_checks(tc: TripleConstants) -> bool:
    """Oracle agreement for one triple: case tables, binary constant, witness.

    Each distinct target goes to the oracle once per call: binary_values
    gives every binary target, the case-table targets and the R != a
    witness among them, from one scan per toggling pair, and the oracle's
    value-only path evaluates the R = a witness.
    """
    spectrum = (tc.a, tc.b, tc.n)
    known = binary_values(spectrum)
    if max(known.values()) != tc.beta:
        return False
    t1, t2 = canonical_binary_pair(tc.a, tc.b)
    if any(known[(t1, t2, t3)] != tc.binary(t3).value for t3 in (Fraction(0), HALF)):
        return False
    t, expected = tc.witness()
    return (known[t] if t in known else mu_value(spectrum, t)) == expected


def _verified(tc: TripleConstants) -> str:
    """The row's verified flag after the oracle checks of _row_checks."""
    if not _row_checks(tc):
        return UNVERIFIED
    return VERIFIED_WITNESS if tc.gap else VERIFIED_ORACLE


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
    except OSError:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _fmt(q: Fraction, precision: int) -> str:
    return f"{q.numerator}/{q.denominator} (~{decimal_approx(q, precision)})"


def _rational(key: str, label: str, q: Fraction, precision: int) -> tuple[dict, str]:
    """Report field of one rational: JSON item ``key``, text line ``label = ...``."""
    return {key: q}, f"{label} = {_fmt(q, precision)}"


def _json(value, precision: int, indent: str = "\n") -> str:
    """JSON text of an exact report value, byte for byte what the standard
    library's encoder writes with indent=2 and ASCII escaping; ``indent`` is
    the newline and indentation that precede the value's closing bracket.

    Dispatches on the exact type: str (through json's ASCII escaper), int,
    bool and None as themselves; a Fraction as rational_to_json at
    ``precision``; a dataclass as its fields in order; a dict (str keys),
    list or tuple two spaces deeper per level, "{}" or "[]" when empty.
    Raises TypeError on anything else, a float or a set included."""
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
    if kind is Fraction:
        value, kind = rational_to_json(value, precision), dict
    elif is_dataclass(kind):
        value, kind = vars(value), dict
    inner = indent + "  "
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


def _report(args, fields: list[tuple[dict, str]]) -> None:
    """Emit a command's report from its ordered fields, each a pair of JSON
    items and text lines: with --json the items merged into one object,
    otherwise the lines.

    This is the one place a report is serialized.  The JSON items hold
    exact values, and _json writes them in one pass: each Fraction as
    rational_to_json at --precision, each dataclass as its fields in order,
    in the standard library's indent=2 layout, refusing anything else JSON
    has no form for."""
    if args.json:
        doc = {}
        for items, _ in fields:
            doc.update(items)
        _emit(_json(doc, args.precision) + "\n", args.out)
    else:
        _emit("".join(f"{line}\n" for _, line in fields), args.out)


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
    precision = args.precision
    fields = [
        ({"spectrum": list(spectrum)}, f"spectrum: {','.join(str(nj) for nj in spectrum)}"),
        ({"targets": list(targets)}, f"targets: {', '.join(rational_to_csv(t) for t in targets)}"),
        _rational("mu", "mu", result.value, precision),
        _rational("x_star", "x_star", result.x_star, precision),
        ({"k_star": list(result.k_star)}, f"k_star = {list(result.k_star)}"),
        ({"candidates_examined": result.candidates_examined},
         f"candidates examined = {result.candidates_examined}"),
    ]
    if args.greedy:
        regime_note = None
        try:
            cert = greedy_en_certificate(triple)
        except NotInAsymptoticRegime as exc:
            cert, regime_note = exc.certificate, str(exc)
        if cert.cost < result.value:
            raise InvariantBreach(
                f"certificate cost {cert.cost} below oracle value {result.value}")
        cert_doc = cert
        text = (f"certificate: x_star = {_fmt(cert.x_star, precision)}, "
                f"cost = {_fmt(cert.cost, precision)}, method = {cert.method}"
                + (", negated" if cert.negated else ""))
        if regime_note:
            cert_doc = {**vars(cert), "note": regime_note}
            text += f"\nnote: {regime_note} (bound certificate shown)"
        fields.append(({"certificate": cert_doc}, text))
    _report(args, fields)
    return 0


def cmd_constants(args) -> int:
    a, b, n = args.a, args.b, args.n
    tc = triple_constants(a, b, n)
    cd = tc.congruence
    regime = tc.in_regime()
    # the grid refuses an oversized D before the oracle checks run
    grid = None if args.grid is None else alpha_grid_lower_bound((a, b, n), args.grid)
    verified = _verified(tc) if args.verify else None
    precision = args.precision
    fields = [
        ({"a": a, "b": b, "n": n}, f"triple: a={a} b={b} n={n}"),
        ({"congruence": cd},
         f"congruences: r={cd.r} T={cd.T} R={cd.R} r2={cd.r2} S={cd.S} "
         f"g={cd.g} h={cd.h} parity={cd.parity_case}"),
        _rational("alpha", "alpha", tc.alpha, precision),
        _rational("beta", "beta ", tc.beta, precision),
        _rational("ln", "L_n  ", tc.ln, precision),
        ({"gap": tc.gap}, f"gap (alpha > beta) = {'true' if tc.gap else 'false'}"),
        ({"in_asymptotic_regime": regime},
         f"asymptotic regime = {'yes' if regime else 'no (small n)'}"),
        _witness_field(*tc.witness()),
    ]
    if args.verify:
        fields.append(({"verified": verified}, f"verified: {verified}"))
    if grid is not None:
        value, argmax = grid
        fields.append(({"grid": {"D": args.grid, "value": value, "argmax": list(argmax)}},
                       f"grid lower bound (D={args.grid}): {_fmt(value, precision)} "
                       f"at t=({', '.join(rational_to_csv(t) for t in argmax)})"))
    _report(args, fields)
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


def parallel_map(fn: Callable, work: Sequence[tuple], jobs: int) -> list:
    """[fn(*args) for args in work], over worker_count(jobs, len(work)) processes.

    Results keep the order of ``work``; each worker takes about four chunks,
    which evens out unequal task costs."""
    workers = worker_count(jobs, len(work))
    if workers < 2:
        return [fn(*args) for args in work]
    # imported here: only a pool pays for loading multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=workers) as pool:
        chunksize = math.ceil(len(work) / (4 * workers))
        return list(pool.map(fn, *zip(*work), chunksize=chunksize))


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
    work = [(a, b, n, args.verify) for n in range(args.n_from, args.n_to + 1)]
    rows = parallel_map(evaluate_sweep_row, work, args.jobs)
    _report(args, [({"pair": [a, b]}, ",".join(CSV_COLUMNS)),
                   ({"rows": rows},
                    "\n".join(",".join(map(_csv_cell, vars(row).values())) for row in rows))])

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
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on the first call and shared by every later
    one: callers must not mutate it.  It holds no command function; main
    looks the command up by name when it runs.  Its parse_args exits with
    argparse's own code 2 on a usage error, which main maps to 1."""
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

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 after --help and 2 on a usage error
        return 1 if exc.code else 0
    command = {"mu": cmd_mu, "constants": cmd_constants, "sweep": cmd_sweep}[args.command]
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
