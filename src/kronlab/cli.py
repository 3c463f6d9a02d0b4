"""Command-line front end: single queries, congruence sweeps, verification.

Commands
  mu         exact approximation cost of a target vector (oracle), with an
             optional greedy certificate for coprime triples
  constants  closed-form constants and congruence data for one triple
  sweep      one CSV/JSON row per n over a range, optionally oracle-verified

Exit codes: 0 success, 1 usage/input error, 2 verification mismatch where
the formula claimed validity, 3 internal invariant breach.

Reports are deterministic: identical invocations produce byte-identical
output except for runtime_ms fields (JSON only; never part of CSV).

main(argv) is the in-process entry point and returns the exit code.  The
parser is built on the first call and reused by every later one in the
process; build_parser() returns that shared parser, which callers must not
mutate.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import time
from dataclasses import asdict, dataclass
from fractions import Fraction
from typing import Callable, Sequence

from .closed_form import (TripleConstants, canonical_binary_pair,
                          in_asymptotic_regime, triple_constants)
from .exact_arith import (DEFAULT_PRECISION, HALF, decimal_approx,
                          rational_to_csv, rational_to_json)
from .greedy_triple import NotInAsymptoticRegime, TripleProblem, greedy_en_certificate
from .oracle import (SpectrumProblem, alpha_grid_lower_bound, binary_values,
                     mu_exact, mu_value)

#: sweep refuses ranges of more rows than this, before it evaluates any: a
#: row costs about 750 B, so the largest accepted sweep holds about 0.9 GB.
MAX_SWEEP_ROWS = 10**6

#: --precision refuses more significant digits than this, before any
#: computation.  Rendering is linear in the digits (about 6 ms and 1 MB per
#: rational at 10^6); at this limit a report's decimals cost microseconds
#: and about 10 kB each.
MAX_PRECISION = 10**4

CSV_COLUMNS = ("a", "b", "n", "r", "R", "S", "alpha", "beta", "ln", "gap", "verified")

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
    runtime_ms: int


def _witness_field(t: tuple, expected: Fraction, precision: int) -> tuple[dict, str]:
    """Report field of the witness target t and the cost the closed forms give it."""
    t1, t2, t3 = t
    t3_mod1 = t3 - math.floor(t3)
    doc = {
        "t1": rational_to_json(t1, precision),
        "t2": rational_to_json(t2, precision),
        "t3_raw": rational_to_json(t3, precision),
        "t3_mod1": rational_to_json(t3_mod1, precision),
        "expected_mu": rational_to_json(expected, precision),
    }
    return {"witness": doc}, (
        f"witness: t1={rational_to_csv(t1)} t2={rational_to_csv(t2)} "
        f"t3={rational_to_csv(t3)} (mod 1: {rational_to_csv(t3_mod1)}), "
        f"expected mu = {rational_to_csv(expected)}")


def _row_checks(tc: TripleConstants) -> bool:
    """Oracle agreement for one triple: case tables, binary constant, witness.

    Each distinct target goes to the oracle once per call: the case-table
    and witness targets are looked up among the binary values first, and
    the oracle's value-only path evaluates the rest.
    """
    spectrum = (tc.a, tc.b, tc.n)
    known = binary_values(spectrum)
    if max(known.values()) != tc.beta:
        return False

    def mu(t):
        if t not in known:
            known[t] = mu_value(spectrum, t)
        return known[t]

    t1, t2 = canonical_binary_pair(tc.a, tc.b)
    for t3 in (Fraction(0), HALF):
        if mu((t1, t2, t3)) != tc.binary(t3).value:
            return False
    t, expected = tc.witness()
    return mu(t) == expected


def _verified(tc: TripleConstants) -> str:
    """The row's verified flag after the oracle checks of _row_checks."""
    if not _row_checks(tc):
        return UNVERIFIED
    return VERIFIED_WITNESS if tc.congruence.R == tc.a else VERIFIED_ORACLE


def evaluate_sweep_row(a: int, b: int, n: int, verify: bool) -> SweepRow:
    t0 = time.perf_counter()
    tc = triple_constants(a, b, n)
    cd = tc.congruence
    return SweepRow(a=a, b=b, n=n, r=cd.r, R=cd.R, S=cd.S, alpha=tc.alpha,
                    beta=tc.beta, ln=tc.ln, gap=tc.beta < tc.alpha,
                    verified=_verified(tc) if verify else UNVERIFIED,
                    runtime_ms=int((time.perf_counter() - t0) * 1000))


def row_to_csv(row: SweepRow) -> str:
    return ",".join([
        str(row.a), str(row.b), str(row.n), str(row.r), str(row.R), str(row.S),
        rational_to_csv(row.alpha), rational_to_csv(row.beta),
        rational_to_csv(row.ln), "true" if row.gap else "false", row.verified,
    ])


def rows_to_csv(rows) -> str:
    return "\n".join([",".join(CSV_COLUMNS)] + [row_to_csv(row) for row in rows]) + "\n"


def row_to_json(row: SweepRow, precision: int) -> dict:
    """The row's fields in order, rationals as JSON objects."""
    doc = asdict(row)
    for key in ("alpha", "beta", "ln"):
        doc[key] = rational_to_json(doc[key], precision)
    return doc


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
    return {key: rational_to_json(q, precision)}, f"{label} = {_fmt(q, precision)}"


def _report(args, fields: list[tuple[dict, str]]) -> None:
    """Emit a command's report from its ordered fields, each a pair of JSON
    items and a text line: with --json the items merged into one object,
    otherwise the lines."""
    if args.json:
        doc = {}
        for items, _ in fields:
            doc.update(items)
        _emit(json.dumps(doc, indent=2) + "\n", args.out)
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
    result = mu_exact(problem)
    precision = args.precision
    fields = [
        ({"spectrum": list(spectrum)}, f"spectrum: {','.join(str(nj) for nj in spectrum)}"),
        ({"targets": [rational_to_json(t, precision) for t in targets]},
         f"targets: {', '.join(rational_to_csv(t) for t in targets)}"),
        _rational("mu", "mu", result.value, precision),
        _rational("x_star", "x_star", result.x_star, precision),
        ({"k_star": list(result.k_star)}, f"k_star = {list(result.k_star)}"),
        ({"candidates_examined": result.candidates_examined},
         f"candidates examined = {result.candidates_examined}"),
    ]
    if args.greedy:
        if len(spectrum) != 3:
            raise ValueError("--greedy needs a 3-element spectrum with coprime a, b")
        regime_note = None
        try:
            cert = greedy_en_certificate(TripleProblem(*spectrum, *targets))
        except NotInAsymptoticRegime as exc:
            cert = exc.certificate
            regime_note = str(exc)
        if cert.cost < result.value:
            raise InvariantBreach(
                f"certificate cost {cert.cost} below oracle value {result.value}")
        cert_doc = {
            "x_star": rational_to_json(cert.x_star, precision),
            "k": list(cert.k),
            "cost": rational_to_json(cert.cost, precision),
            "method": cert.method,
            "negated": cert.negated,
        }
        fields.append(({"certificate": cert_doc},
                       f"certificate: x_star = {_fmt(cert.x_star, precision)}, "
                       f"cost = {_fmt(cert.cost, precision)}, method = {cert.method}"
                       + (", negated" if cert.negated else "")))
        if regime_note:
            cert_doc["note"] = regime_note
            fields.append(({}, f"note: {regime_note} (bound certificate shown)"))
    _report(args, fields)
    return 0


def cmd_constants(args) -> int:
    a, b, n = args.a, args.b, args.n
    tc = triple_constants(a, b, n)
    cd = tc.congruence
    regime = tc.in_regime()
    verified = _verified(tc) if args.verify else None
    gap = tc.beta < tc.alpha
    precision = args.precision
    fields = [
        ({"a": a, "b": b, "n": n}, f"triple: a={a} b={b} n={n}"),
        ({"congruence": asdict(cd)},
         f"congruences: r={cd.r} T={cd.T} R={cd.R} r2={cd.r2} S={cd.S} "
         f"g={cd.g} h={cd.h} parity={cd.parity_case}"),
        _rational("alpha", "alpha", tc.alpha, precision),
        _rational("beta", "beta ", tc.beta, precision),
        _rational("ln", "L_n  ", tc.ln, precision),
        ({"gap": gap}, f"gap (alpha > beta) = {'true' if gap else 'false'}"),
        ({"in_asymptotic_regime": regime},
         f"asymptotic regime = {'yes' if regime else 'no (small n)'}"),
        _witness_field(*tc.witness(), precision),
    ]
    if args.verify:
        fields.append(({"verified": verified}, f"verified: {verified}"))
    if args.grid is not None:
        value, argmax = alpha_grid_lower_bound((a, b, n), args.grid)
        fields.append(({"grid": {"D": args.grid, "value": rational_to_json(value, precision),
                                 "argmax": [rational_to_csv(t) for t in argmax]}},
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
    return min(jobs, tasks, os.cpu_count() or 1)


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
    work = [(a, b, n, args.verify) for n in range(args.n_from, args.n_to + 1)]
    rows = parallel_map(evaluate_sweep_row, work, args.jobs)

    if args.json:
        doc = {"pair": [a, b],
               "rows": [row_to_json(row, args.precision) for row in rows]}
        _emit(json.dumps(doc, indent=2) + "\n", args.out)
    else:
        _emit(rows_to_csv(rows), args.out)

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


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; the exit-code contract wants 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_common(parser):
    parser.add_argument("--json", action="store_true", help="JSON report")
    parser.add_argument("--out", metavar="PATH", help="write report to PATH (atomic)")
    parser.add_argument("--precision", type=_precision, default=DEFAULT_PRECISION,
                        help="significant digits for decimal approximations")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on the first call and shared by every later
    one: callers must not mutate it.  It holds no command function; main
    looks the command up by name when it runs."""
    parser = _Parser(prog="kronlab",
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
        return exc.code if isinstance(exc.code, int) else 1
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
