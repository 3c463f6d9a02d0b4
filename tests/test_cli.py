import argparse
import decimal
import json
import math
import os
import random
import subprocess
import sys
from collections import Counter
from dataclasses import fields, is_dataclass
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import kronlab.cli as cli
import kronlab.oracle as oracle
from conftest import rand_coprime_pair, rand_fraction
from kronlab.cli import (CSV_COLUMNS, UNVERIFIED, VERIFIED_ORACLE, VERIFIED_WITNESS,
                         SweepRow, decimal_approx, evaluate_sweep_row, main,
                         rational_to_csv, rational_to_json, worker_count)
from kronlab.closed_form import (TripleConstants, canonical_binary_pair,
                                 in_asymptotic_regime, triple_constants)
from kronlab.greedy_triple import (Certificate, NotInAsymptoticRegime, TripleProblem,
                                   greedy_en_certificate)
from kronlab.oracle import SpectrumProblem, alpha_grid_lower_bound, beta_exact, mu_exact

ACCEPTANCE_PAIRS = [(1, 2), (1, 3), (2, 3), (2, 5), (3, 4), (3, 5), (4, 5)]


def _subprocess_env():
    """The environment with this checkout's src/ first on PYTHONPATH."""
    src = str(Path(cli.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_mu_command_examples(capsys):
    code, out, _ = run(capsys, "mu", "--set", "1,2,100", "--t", "0,1/2,1/2")
    assert code == 0
    assert "mu = 1/6" in out

    code, out, _ = run(capsys, "mu", "--set", "7", "--t", "3/5")
    assert code == 0
    assert "mu = 0/1" in out

    code, out, _ = run(capsys, "mu", "--set", "2,3", "--t", "1/2,0")
    assert code == 0
    assert "mu = 1/10" in out


def test_mu_greedy_certificate(capsys):
    code, out, _ = run(capsys, "mu", "--set", "1,2,100", "--t", "0,1/2,1/2",
                       "--greedy", "--json")
    assert code == 0
    doc = json.loads(out)
    cert_cost = Fraction(int(doc["certificate"]["cost"]["num"]),
                         int(doc["certificate"]["cost"]["den"]))
    oracle = Fraction(int(doc["mu"]["num"]), int(doc["mu"]["den"]))
    assert oracle == Fraction(1, 6) <= cert_cost


def test_mu_greedy_needs_triple(capsys, monkeypatch):
    # the triple is checked before the oracle runs: n = 100000 costs it 0.2 s
    def no_oracle(problem):
        raise AssertionError("the oracle ran")

    monkeypatch.setattr(cli, "mu_exact", no_oracle)
    code, out, err = run(capsys, "mu", "--set", "1,2", "--t", "0,1/2", "--greedy")
    assert code == 1 and out == "" and "greedy" in err
    code, out, err = run(capsys, "mu", "--set", "2,4,100000", "--t", "0,1/3,1/7", "--greedy")
    assert code == 1 and out == "" and "gcd(2, 4) != 1" in err


def test_constants_verified_gap_case(capsys):
    code, out, _ = run(capsys, "constants", "1", "2", "100", "--verify")
    assert code == 0
    assert "alpha = 51/302" in out
    assert "beta  = 17/101" in out
    assert "gap (alpha > beta) = true" in out
    assert f"verified: {VERIFIED_WITNESS}" in out


def test_constants_verified_equal_case(capsys):
    code, out, _ = run(capsys, "constants", "2", "3", "300", "--verify")
    assert code == 0
    assert "alpha = 31/302" in out and "beta  = 31/302" in out
    assert "gap (alpha > beta) = false" in out
    assert f"verified: {VERIFIED_ORACLE}" in out


def test_constants_plain_and_json(capsys):
    code, out, _ = run(capsys, "constants", "1", "2", "99")
    assert code == 0
    assert "alpha = 17/100" in out and "verified:" not in out

    code, out, _ = run(capsys, "constants", "1", "2", "99", "--json")
    doc = json.loads(out)
    assert doc["alpha"] == {"num": "17", "den": "100", "approx": "0.17"}
    assert doc["gap"] is False
    assert doc["congruence"]["R"] == 0


def test_constants_grid(capsys):
    code, out, _ = run(capsys, "constants", "1", "2", "12", "--grid", "4")
    assert code == 0
    assert "grid lower bound (D=4)" in out


def test_constants_usage_errors(capsys):
    code, _, err = run(capsys, "constants", "2", "4", "100")
    assert code == 1 and "gcd" in err
    code, _, _ = run(capsys, "constants", "2", "4")
    assert code == 1
    code, out, err = run(capsys, "constants", "1", "2", "100", "--grid", "0")
    assert code == 1 and out == "" and "grid resolution must be >= 2, got 0" in err
    code, out, err = run(capsys, "constants", "1", "2", "100", "--csv")
    assert code == 1 and out == "" and "unrecognized arguments: --csv" in err
    for command in ("nosuchcommand", "bench", "witness"):
        code, out, err = run(capsys, command, "--set", "1,2,100")
        assert code == 1 and out == "" and "invalid choice" in err
    # the witness and its oracle check are in `constants [--verify]`
    for argv in (("witness", "1", "2", "100"), ("witness", "1", "2", "100", "--verify")):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == "" and "invalid choice" in err


@pytest.mark.parametrize("argv, last_line", [
    (("constants", "1", "2", "100", "--csv"),
     "kronlab: error: unrecognized arguments: --csv"),
    (("mu", "--set", "1,2", "--t", "0,1/2", "--precision", "abc"),
     "kronlab mu: error: argument --precision: invalid int value: 'abc'"),
])
def test_usage_error_prints_usage_then_one_error_line(capsys, argv, last_line):
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("usage: kronlab") and err.splitlines()[-1] == last_line


def test_exit_code_2_on_in_regime_mismatch(capsys, monkeypatch):
    monkeypatch.setattr(cli, "_row_checks", lambda tc: False)
    code, out, _ = run(capsys, "constants", "1", "2", "100", "--verify")
    assert code == 2
    assert f"verified: {UNVERIFIED}" in out


def test_sweep_exit_code_2_still_prints_its_rows(capsys, monkeypatch):
    monkeypatch.setattr(cli, "_row_checks", lambda tc: False)
    assert in_asymptotic_regime(1, 2, 100)
    code, out, err = run(capsys, "sweep", "1", "2", "--from", "100", "--to", "100",
                         "--verify")
    assert code == 2 and "verification mismatch" in err and "[100]" in err
    assert out.splitlines() == [",".join(CSV_COLUMNS),
                                "1,2,100,1,1,4,51/302,17/101,51/302,true,"
                                f"{UNVERIFIED}"]


def test_case_table_mismatch_exits_2(capsys, monkeypatch):
    binary = TripleConstants.binary

    def off_by_a_thousandth(tc, t3):
        row = binary(tc, t3)
        return row._replace(value=row.value + Fraction(1, 1000))

    monkeypatch.setattr(TripleConstants, "binary", off_by_a_thousandth)
    code, out, _ = run(capsys, "constants", "1", "2", "100", "--verify")
    assert code == 2 and f"verified: {UNVERIFIED}" in out


def _row_checks_one_call_per_check(a, b, n):
    """The row verdict as separate oracle calls: case tables, beta, witness."""
    tc = triple_constants(a, b, n)
    t1, t2 = canonical_binary_pair(a, b)
    for t3 in (Fraction(0), Fraction(1, 2)):
        if mu_exact(SpectrumProblem((a, b, n), (t1, t2, t3))).value != tc.binary(t3).value:
            return False
    if beta_exact((a, b, n))[0] != tc.beta:
        return False
    expected = tc.ln if tc.congruence.R == a else tc.alpha
    return mu_exact(SpectrumProblem((a, b, n), tc.witness()[0])).value == expected


def _row_triples():
    """Every acceptance pair: small n (some rows fail there) and one full
    congruence window near 60b (every R, including R = a)."""
    for a, b in ACCEPTANCE_PAIRS:
        for n in list(range(b + 1, b + 8)) + list(range(60 * b, 60 * b + a + b)):
            yield a, b, n


def test_row_checks_verdicts_and_single_evaluation(monkeypatch):
    reference = {t: _row_checks_one_call_per_check(*t) for t in _row_triples()}
    assert not all(reference.values()) and any(reference.values())
    assert (2, 5, 6) in reference and not reference[(2, 5, 6)]

    # Count at the scan that mu_exact and the value-only binary path share.
    seen = Counter()
    scan = oracle._scan

    def counting_scan(spectrum, targets):
        seen[(spectrum, targets)] += 1
        return scan(spectrum, targets)

    monkeypatch.setattr(oracle, "_scan", counting_scan)
    r_equals_a = 0
    for (a, b, n), verdict in reference.items():
        seen.clear()
        tc = triple_constants(a, b, n)
        assert cli._row_checks(tc) == verdict, (a, b, n)
        assert seen and max(seen.values()) == 1, (a, b, n, seen)
        # one scan per toggling pair of binary targets (2^(d-1) = 4), whose
        # twins cover the case-table targets, plus the R = a witness
        assert sum(seen.values()) <= 4 + (tc.congruence.R == a), (a, b, n, seen)
        r_equals_a += tc.congruence.R == a
    assert r_equals_a >= len(ACCEPTANCE_PAIRS)


def test_asymptotic_regime_never_vouches_for_a_refuted_row():
    """Every in-regime row of every coprime a < b <= 12, from b + 1 to two
    congruence periods past the last n below 200b outside the regime (the
    predicate is not monotone in n: (2, 3) leaves it again at n = 29)."""
    assert in_asymptotic_regime(2, 3, 28) and not in_asymptotic_regime(2, 3, 29)
    rows = []
    for b in range(2, 13):
        for a in range(1, b):
            if math.gcd(a, b) != 1:
                continue
            last_out = next(n for n in range(200 * b - 1, b, -1)
                            if not in_asymptotic_regime(a, b, n))
            rows += [(a, b, n) for n in range(b + 1, last_out + 2 * (a + b) + 1)
                     if in_asymptotic_regime(a, b, n)]
    assert len(rows) == 1726
    assert [row for row in rows if not cli._row_checks(triple_constants(*row))] == []


def test_jobs_below_one_exit_1(capsys):
    code, _, err = run(capsys, "sweep", "1", "2", "--from", "50", "--to", "51",
                       "--jobs", "-3")
    assert code == 1 and "got -3" in err


def test_worker_count_refuses_below_one_and_clamps():
    cpus = os.cpu_count() or 1
    assert worker_count(1, 50) == 1
    assert worker_count(2, 1) == 1
    assert worker_count(10**6, 3) == min(3, cpus)
    assert worker_count(10**6, 10**6) == cpus
    for jobs in (0, -3):
        with pytest.raises(ValueError, match=str(jobs)):
            worker_count(jobs, 10)


def test_worker_count_asks_for_the_cpu_count_only_above_one_worker(capsys, monkeypatch):
    """Below two workers the CPU count cannot lower the count, so neither
    worker_count nor a one-row sweep asks for it."""
    def no_cpu_count():
        raise AssertionError("os.cpu_count was called")

    monkeypatch.setattr(os, "cpu_count", no_cpu_count)
    assert worker_count(1, 5) == 1
    assert worker_count(4, 1) == 1
    with pytest.raises(ValueError, match="at least 1"):
        worker_count(0, 5)
    code, out, _ = run(capsys, "sweep", "1", "2", "--from", "100", "--to", "100", "--verify")
    golden = Path(__file__).parent / "golden" / "sweep-one-row-verify-csv.out"
    assert code == 0 and out == golden.read_text(encoding="utf-8")
    with pytest.raises(AssertionError, match="cpu_count"):
        worker_count(4, 5)


def test_sweep_refuses_oversized_range(capsys, monkeypatch):
    def no_evaluation(a, b, n, verify):
        raise AssertionError("a row was evaluated")

    monkeypatch.setattr(cli, "evaluate_sweep_row", no_evaluation)
    code, out, err = run(capsys, "sweep", "1", "2", "--from", "3", "--to", "1000000000")
    assert code == 1 and out == "" and f"limit of {cli.MAX_SWEEP_ROWS}" in err
    # the limit counts rows, both ends included
    monkeypatch.setattr(cli, "MAX_SWEEP_ROWS", 3)
    code, _, err = run(capsys, "sweep", "1", "2", "--from", "3", "--to", "6")
    assert code == 1 and "asks for 4 rows" in err
    monkeypatch.setattr(cli, "evaluate_sweep_row", evaluate_sweep_row)
    code, out, _ = run(capsys, "sweep", "1", "2", "--from", "3", "--to", "5")
    assert code == 0 and len(out.splitlines()) == 4


def test_sweep_verify_refuses_an_over_budget_range_before_any_row(capsys, monkeypatch):
    # the oracle's budget, 9*(n + b + 2), grows with n: the range's last n decides
    oracle.check_candidate_budget((1, 2, 111107))
    with pytest.raises(ValueError, match="1000008 oracle candidates"):
        oracle.check_candidate_budget((1, 2, 111108))
    scans = []
    scan = oracle._scan
    monkeypatch.setattr(oracle, "_scan", lambda *args: scans.append(args) or scan(*args))
    for n_from in ("111105", "3"):
        code, out, err = run(capsys, "sweep", "1", "2", "--from", n_from, "--to", "111108",
                             "--verify")
        assert code == 1 and out == "" and scans == []
        assert "spectrum (1, 2, 111108) allows up to 1000008 oracle candidates" in err


@pytest.mark.parametrize("argv, message", [
    (("1", "2", "--from", "1", "--to", "20000", "--verify"), "strictly increasing"),
    (("2", "4", "--from", "5", "--to", "20000"), "gcd(2, 4) != 1"),
], ids=["n-below-b", "non-coprime-pair"])
def test_sweep_refuses_an_invalid_first_row_before_any_row(capsys, monkeypatch, argv, message):
    # a pool runs every chunk before a row's error surfaces: refuse before it
    def no_rows(fn, work, jobs):
        raise AssertionError("rows were evaluated")

    monkeypatch.setattr(cli, "parallel_map", no_rows)
    code, out, err = run(capsys, "sweep", *argv, "--jobs", "2")
    assert code == 1 and out == "" and message in err


def test_mu_refuses_a_huge_decimal_exponent_before_the_oracle(capsys, monkeypatch):
    def no_oracle(problem):
        raise AssertionError("the oracle ran")

    monkeypatch.setattr(cli, "mu_exact", no_oracle)
    code, out, err = run(capsys, "mu", "--set", "1,2,100", "--t", "1e-300000,0,0")
    assert code == 1 and out == ""
    assert "'1e-300000' has a decimal exponent above the limit of MAX_EXPONENT_DIGITS" in err


def test_counts_below_one_exit_1(capsys):
    code, _, err = run(capsys, "constants", "1", "2", "100", "--precision", "0")
    assert code == 1 and "--precision" in err
    code, _, err = run(capsys, "mu", "--set", "1,2", "--t", "0,1/2", "--precision", "-1")
    assert code == 1 and "--precision" in err


@pytest.mark.parametrize("argv", [
    ("mu", "--set", "1,2", "--t", "0,1/2"),
    ("constants", "1", "2", "100"),
    ("sweep", "1", "2", "--from", "100", "--to", "100"),
    ("constants", "1", "2", "100", "--verify"),
])
def test_precision_above_the_limit_exits_1_before_any_work(capsys, monkeypatch, argv):
    def no_command(args):
        raise AssertionError("the command ran")

    for name in ("cmd_mu", "cmd_constants", "cmd_sweep"):
        monkeypatch.setattr(cli, name, no_command)
    code, out, err = run(capsys, *argv, "--precision", str(cli.MAX_PRECISION + 1))
    assert code == 1 and out == ""
    assert f"limit of MAX_PRECISION = {cli.MAX_PRECISION}" in err and "--precision" in err
    code, _, _ = run(capsys, *argv, "--precision", "1000000000")
    assert code == 1
    # the limit itself is accepted and reaches the command
    with pytest.raises(AssertionError, match="the command ran"):
        main([*argv, "--precision", str(cli.MAX_PRECISION)])


def test_grid_refuses_oversized_grid(capsys, monkeypatch):
    code, _, err = run(capsys, "constants", "1", "2", "100", "--grid", "100000")
    assert code == 1 and "limit" in err

    def no_evaluation(spectrum, targets):
        raise AssertionError("the grid was evaluated")

    # 316^2 targets pass the target limit; their oracle work does not
    monkeypatch.setattr(oracle, "_scan", no_evaluation)
    code, out, err = run(capsys, "constants", "1", "2", "1000", "--grid", "316")
    assert code == 1 and out == "" and "oracle candidates" in err

    def no_checks(tc):
        raise AssertionError("the oracle checks ran")

    # with --verify the grid is refused before the oracle checks run
    monkeypatch.setattr(cli, "_row_checks", no_checks)
    code, out, err = run(capsys, "constants", "1", "2", "1000", "--grid", "316", "--verify")
    assert code == 1 and out == "" and "oracle candidates" in err


def test_mu_refuses_oversized_spectrum(capsys):
    code, _, err = run(capsys, "mu", "--set", "1,2,1000000000", "--t", "0,0,0")
    assert code == 1 and "limit" in err


def test_exit_code_3_on_budget_breach(capsys, monkeypatch):
    below_the_oracle = Certificate(x_star=Fraction(0), k=(0, 0, 0), cost=Fraction(0),
                                   method="greedy-window")
    monkeypatch.setattr(cli, "greedy_en_certificate", lambda problem: below_the_oracle)
    code, out, err = run(capsys, "mu", "--set", "1,2,100", "--t", "0,1/2,1/2", "--greedy")
    assert code == 3 and "invariant breach" in err and out == ""


def test_sweep_csv_file(tmp_path, capsys):
    out_path = tmp_path / "rows.csv"
    code, _, _ = run(capsys, "sweep", "1", "2", "--from", "96", "--to", "104",
                     "--verify", "--out", str(out_path))
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 10  # header + 9 rows
    rows = [line.split(",") for line in lines[1:]]
    assert [int(r[2]) for r in rows] == list(range(96, 105))
    assert [int(r[4]) for r in rows] == [0, 1, 2] * 3  # R cycles with period a+b
    assert all(r[10] in (VERIFIED_ORACLE, VERIFIED_WITNESS) for r in rows)
    # round-trip: rational cells parse back exactly
    for r in rows:
        alpha = Fraction(r[6])
        beta = Fraction(r[7])
        assert (r[9] == "true") == (beta < alpha)


def test_sweep_determinism_and_jobs(tmp_path, capsys, monkeypatch):
    p1, p2, p3 = tmp_path / "a.csv", tmp_path / "b.csv", tmp_path / "c.csv"
    assert run(capsys, "sweep", "2", "3", "--from", "300", "--to", "309",
               "--out", str(p1))[0] == 0
    assert run(capsys, "sweep", "2", "3", "--from", "300", "--to", "309",
               "--jobs", "2", "--out", str(p2))[0] == 0
    assert p1.read_bytes() == p2.read_bytes()
    # only --jobs sets the worker count; KRONLAB_JOBS is ignored
    monkeypatch.setenv("KRONLAB_JOBS", "abc")
    assert run(capsys, "sweep", "2", "3", "--from", "300", "--to", "309",
               "--out", str(p3))[0] == 0
    assert p1.read_bytes() == p3.read_bytes()


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="a pool needs 2 or more CPUs")
def test_sweep_stdout_is_byte_identical_across_job_counts(capsys):
    argv = ["sweep", "2", "5", "--from", "300", "--to", "311", "--verify"]
    code, sequential, _ = run(capsys, *argv, "--jobs", "1")
    assert code == 0
    code, pooled, _ = run(capsys, *argv, "--jobs", "2")
    assert code == 0 and pooled == sequential


def test_import_leaves_multiprocessing_out():
    # only sweep --jobs >= 2 needs a process pool; plain start-up skips it
    code = "import sys, kronlab.cli; print('multiprocessing' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", code], env=_subprocess_env(),
                            capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "False"


def test_sweep_json_rows(capsys):
    code, out, _ = run(capsys, "sweep", "1", "2", "--from", "99", "--to", "101",
                       "--json")
    assert code == 0
    doc = json.loads(out)
    assert [row["n"] for row in doc["rows"]] == [99, 100, 101]
    # one schema: the CSV header and each JSON row's keys are SweepRow's fields
    schema = [field.name for field in fields(SweepRow)]
    code, csv_out, _ = run(capsys, "sweep", "1", "2", "--from", "99", "--to", "101")
    header, *csv_rows = csv_out.splitlines()
    assert code == 0 and header.split(",") == list(CSV_COLUMNS) == schema
    for row, csv_row in zip(doc["rows"], csv_rows, strict=True):
        assert list(row) == schema
        assert row["verified"] == UNVERIFIED  # no --verify requested
        # each CSV cell renders the JSON value of its column
        for value, cell in zip(row.values(), csv_row.split(","), strict=True):
            if isinstance(value, dict):
                assert Fraction(cell) == Fraction(int(value["num"]), int(value["den"]))
            else:
                assert cell == (json.dumps(value) if isinstance(value, bool) else str(value))
        # JSON rationals round-trip bit-identically
        recomputed = evaluate_sweep_row(1, 2, row["n"], verify=False)
        for field in ("alpha", "beta", "ln"):
            assert Fraction(int(row[field]["num"]), int(row[field]["den"])) == \
                getattr(recomputed, field)


def _json_rationals(doc, path=()):
    """{path: (Fraction, approx)} for every {"num", "den", "approx"} object in doc."""
    if isinstance(doc, dict) and set(doc) == {"num", "den", "approx"}:
        return {path: (Fraction(int(doc["num"]), int(doc["den"])), doc["approx"])}
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = enumerate(doc)
    else:
        return {}
    found = {}
    for key, value in items:
        found.update(_json_rationals(value, path + (key,)))
    return found


def _random_reports(rng):
    """(argv, {path: library value}) for random JSON reports of each command."""
    for _ in range(12):
        a, b = rand_coprime_pair(rng, 9)
        spectrum = (a, b, rng.randrange(b + 1, 300))
        targets = tuple(rand_fraction(rng) for _ in spectrum)
        result = mu_exact(SpectrumProblem(spectrum, targets))
        try:
            cert = greedy_en_certificate(TripleProblem(*spectrum, *targets))
        except NotInAsymptoticRegime as exc:
            cert = exc.certificate
        expected = {("targets", j): t for j, t in enumerate(targets)}
        expected.update({("mu",): result.value, ("x_star",): result.x_star,
                         ("certificate", "x_star"): cert.x_star,
                         ("certificate", "cost"): cert.cost})
        yield (["mu", "--set", ",".join(map(str, spectrum)),
                "--t", ",".join(map(str, targets)), "--greedy"], expected)

        a, b = rand_coprime_pair(rng, 9)
        n = rng.randrange(b + 1, 300)
        tc = triple_constants(a, b, n)
        (t1, t2, t3), cost = tc.witness()
        expected = {("alpha",): tc.alpha, ("beta",): tc.beta, ("ln",): tc.ln,
                    ("witness", "t1"): t1, ("witness", "t2"): t2,
                    ("witness", "t3_raw"): t3, ("witness", "t3_mod1"): t3 % 1,
                    ("witness", "expected_mu"): cost}
        yield ["constants", str(a), str(b), str(n), "--verify"], expected

        D = rng.randrange(2, 7)
        value, argmax = alpha_grid_lower_bound((a, b, n), D)
        grid = {("grid", "value"): value}
        grid.update({("grid", "argmax", j): t for j, t in enumerate(argmax)})
        yield ["constants", str(a), str(b), str(n), "--grid", str(D)], {**expected, **grid}

        a, b = rand_coprime_pair(rng, 9)
        n_from = rng.randrange(b + 1, 300)
        rows = [triple_constants(a, b, n) for n in range(n_from, n_from + rng.randrange(1, 4))]
        expected = {("rows", i, field): getattr(tc, field)
                    for i, tc in enumerate(rows) for field in ("alpha", "beta", "ln")}
        yield ["sweep", str(a), str(b), "--from", str(n_from), "--to", str(rows[-1].n)], expected


def test_json_rationals_parse_back_to_the_library_values(capsys):
    rng = random.Random(19)
    for argv, expected in _random_reports(rng):
        precision = rng.randrange(1, 31)
        code, out, _ = run(capsys, *argv, "--json", "--precision", str(precision))
        assert code == 0, argv
        found = _json_rationals(json.loads(out))
        assert {path: q for path, (q, _) in found.items()} == expected, argv
        assert all(approx == decimal_approx(q, precision) for q, approx in found.values())


@given(st.fractions(min_value=-20, max_value=20, max_denominator=997))
def test_serialization_round_trips(q):
    d = rational_to_json(q)
    assert Fraction(int(d["num"]), int(d["den"])) == q
    assert Fraction(rational_to_csv(q)) == q


def _reference_render(precision):
    """The encoder hook the JSON writer replaced: json.dumps(doc, indent=2,
    default=_reference_render(precision)) wrote every report before it."""
    def render(value):
        if isinstance(value, Fraction):
            return rational_to_json(value, precision)
        if is_dataclass(value):
            return vars(value)
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
    return render


#: strings that need escaping: quotes, backslashes, control characters,
#: non-ASCII inside and beyond the basic plane
_ESCAPED = ['', 'a"b', "back\\slash", "tab\tnew\nline\r", "\x00\x1f\x7f", "caf\u00e9",
            "\u2264 E_n", "\U0001f600", "\u2028", "/"]


def _random_document(rng, depth):
    """A random report-like value: containers to depth 4, empty ones among
    them, and every scalar kind a report holds."""
    kind = rng.randrange(12 if depth < 4 else 7)
    if kind == 0:
        return rng.choice(_ESCAPED) + "".join(chr(rng.randrange(0, 0x3000))
                                              for _ in range(rng.randrange(4)))
    if kind == 1:
        return rng.choice([-1, 1]) * rng.randrange(2 ** rng.choice([3, 40, 70, 200]))
    if kind == 2:
        return rng.choice([True, False, None])
    if kind in (3, 4):
        return Fraction(rng.randrange(-10**30, 10**30), rng.randrange(1, 10**rng.randrange(1, 25)))
    if kind == 5:
        return SweepRow(a=1, b=2, n=rng.randrange(3, 10**6), r=0, R=1, S=2,
                        alpha=Fraction(1, 3), beta=Fraction(-2, 7), ln=Fraction(5, 11),
                        gap=rng.random() < 0.5, verified=UNVERIFIED)
    if kind == 6:
        return Certificate(x_star=Fraction(-1, 24), k=(0, 0, -1), cost=Fraction(5, 24),
                           method="small-lambda", negated=rng.random() < 0.5)
    size = rng.choice([0, 1, 2, 3, 5])
    items = [_random_document(rng, depth + 1) for _ in range(size)]
    if kind in (7, 8):
        keys = [rng.choice(_ESCAPED) + str(i) for i in range(size)]
        return dict(zip(keys, items))
    return items if kind in (9, 10) else tuple(items)


def test_json_writer_writes_the_bytes_of_the_encoder_it_replaced():
    """cli._json writes what json.dumps(indent=2) with the old hook wrote, on
    random nested documents, at the default precision and at 1 and 60."""
    rng = random.Random(29)
    for _ in range(400):
        doc = {"doc": _random_document(rng, 0), "more": _random_document(rng, 1)}
        precision = rng.choice([1, 12, 60])
        assert cli._json(doc, precision) == json.dumps(
            doc, indent=2, default=_reference_render(precision)), doc
    for empty in ({}, [], (), {"a": {}, "b": [[]]}):
        assert cli._json(empty, 12) == json.dumps(empty, indent=2)
    for bad in ({1, 2}, [frozenset()], {"x": {"y": {1}}}, 1.5, [0.25]):
        with pytest.raises(TypeError):
            cli._json(bad, 12)
    # The old encoder refuses a set too.  It wrote a float, which no report
    # holds (tests/test_no_floats.py); the writer refuses it.
    with pytest.raises(TypeError):
        json.dumps({1, 2}, indent=2, default=_reference_render(12))


def test_decimal_rendering_half_even_and_precision():
    assert decimal_approx(Fraction(1, 4), 12) == "0.25"
    assert decimal_approx(Fraction(1, 8), 2) == "0.12"   # 0.125 rounds half-even
    assert decimal_approx(Fraction(3, 8), 2) == "0.38"   # 0.375 rounds half-even
    assert decimal_approx(Fraction(1, 3), 5) == "0.33333"
    assert rational_to_json(Fraction(17, 101))["approx"].startswith("0.168316831683"[:12])


def _reference_decimal_approx(q, precision):
    """decimal_approx as it was written before it built its own Context: a
    Decimal division in a localcontext of the caller's context."""
    with decimal.localcontext() as ctx:
        ctx.prec = precision
        ctx.rounding = decimal.ROUND_HALF_EVEN
        return str(decimal.Decimal(q.numerator) / decimal.Decimal(q.denominator))


def test_decimal_approx_matches_the_localcontext_rendering():
    """Seeded rationals of every sign, zero, integers and numerators above
    2^64, byte for byte against the localcontext rendering."""
    rng = random.Random(30)
    fixed = [Fraction(0), Fraction(7), Fraction(-7), Fraction(-1, 3), Fraction(2**64 + 1),
             Fraction(-(2**70) - 3, 2**64 + 13), Fraction(1, 4), Fraction(-5, 2), Fraction(-3, 8)]
    rationals = fixed + [
        Fraction(rng.choice((-1, 1)) * rng.randrange(0, 2**rng.choice((4, 20, 66, 130))),
                 rng.choice((1, rng.randrange(1, 10**6), rng.randrange(1, 2**80))))
        for _ in range(300)]
    for precision in (1, 12, 60):
        for q in rationals:
            assert decimal_approx(q, precision) == _reference_decimal_approx(q, precision), \
                (q, precision)
    for q in fixed + rationals[-5:]:
        assert decimal_approx(q, cli.MAX_PRECISION) \
            == _reference_decimal_approx(q, cli.MAX_PRECISION), q


def test_csv_form_always_carries_denominator():
    assert rational_to_csv(Fraction(0)) == "0/1"
    assert rational_to_csv(Fraction(-3, 7)) == "-3/7"


def test_precision_flag(capsys):
    code, out, _ = run(capsys, "mu", "--set", "1,2", "--t", "0,1/2",
                       "--precision", "4", "--json")
    assert code == 0
    assert json.loads(out)["mu"]["approx"] == "0.1667"


def test_precision_must_be_an_integer(capsys):
    code, out, err = run(capsys, "mu", "--set", "1,2", "--t", "0,1/2", "--precision", "abc")
    assert code == 1 and out == ""
    assert "--precision" in err and "invalid int value: 'abc'" in err


def test_sweep_bad_range_and_io_failure(tmp_path, capsys):
    code, _, err = run(capsys, "sweep", "1", "2", "--from", "10", "--to", "5")
    assert code == 1 and "exceeds" in err
    missing = tmp_path / "nodir" / "rows.csv"
    code, _, _ = run(capsys, "sweep", "1", "2", "--from", "96", "--to", "97",
                     "--out", str(missing))
    assert code == 1
    assert not missing.exists()
    assert not any(p.name.startswith("rows.csv.tmp") for p in tmp_path.iterdir())


def test_evaluate_sweep_row_fields():
    row = evaluate_sweep_row(1, 2, 100, verify=False)
    assert (row.r, row.R, row.S) == (1, 1, 4)
    assert row.gap and row.verified == UNVERIFIED
    assert row.alpha == Fraction(51, 302) and row.beta == Fraction(17, 101)

    row = evaluate_sweep_row(1, 2, 100, verify=True)
    assert row.verified == VERIFIED_WITNESS

    row = evaluate_sweep_row(2, 3, 300, verify=True)
    assert row.verified == VERIFIED_ORACLE and not row.gap


def test_atomic_out_writes(tmp_path, capsys):
    out_path = tmp_path / "mu.txt"
    code, _, _ = run(capsys, "mu", "--set", "2,3", "--t", "1/2,0",
                     "--out", str(out_path))
    assert code == 0
    assert "mu = 1/10" in out_path.read_text()
    assert not any(p.name.startswith("mu.txt.tmp") for p in tmp_path.iterdir())


def test_failed_rename_removes_the_temp_file(tmp_path, capsys, monkeypatch):
    def no_rename(src, dst):
        raise OSError("rename refused")

    monkeypatch.setattr(os, "replace", no_rename)
    out_path = tmp_path / "mu.txt"
    code, out, err = run(capsys, "mu", "--set", "2,3", "--t", "1/2,0",
                         "--out", str(out_path))
    assert code == 1 and out == "" and "rename refused" in err
    assert list(tmp_path.iterdir()) == []


def test_malformed_targets(capsys):
    code, _, err = run(capsys, "mu", "--set", "2,3", "--t", "x,y")
    assert code == 1 and "error" in err
    code, _, _ = run(capsys, "mu", "--set", "2,x", "--t", "0,0")
    assert code == 1


def test_zero_denominator_target_exits_1_with_one_error_line():
    proc = subprocess.run([sys.executable, "-m", "kronlab.cli", "mu", "--set", "1,2",
                           "--t", "1/0,0"], capture_output=True, text=True,
                          env=_subprocess_env(), timeout=60)
    assert proc.returncode == 1 and proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert proc.stderr.splitlines() == ["kronlab: error: target '1/0' has a zero denominator"]


@pytest.mark.parametrize("argv, code", [
    (("constants", "1", "2", "100"), 0),
    (("constants", "2", "4", "100"), 1),
    (("--help",), 0),
    (("nosuchcommand",), 1),
])
def test_module_entry_exit_codes(argv, code):
    # entry() turns main's return value into the process exit code
    proc = subprocess.run([sys.executable, "-m", "kronlab.cli", *argv], capture_output=True,
                          env=_subprocess_env(), timeout=60)
    assert proc.returncode == code


# main builds its parser once per process and reuses it; these calls cover
# every command, a usage error and help output
REUSE_ARGVS = [
    ("mu", "--set", "2,5,300", "--t", "1/7,2/3,5/11"),
    ("constants", "1", "2", "100", "--json"),
    ("sweep", "1", "2", "--from", "99", "--to", "101"),
    ("constants", "1", "2"),
    ("--help",),
    ("mu", "--help"),
]


def test_parser_is_built_once_per_process(capsys, monkeypatch):
    main(["constants", "1", "2", "100"])
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    codes = [main(list(argv)) for argv in REUSE_ARGVS * 2]
    capsys.readouterr()
    assert codes == [0, 0, 0, 1, 0, 0] * 2
    assert built == []
    assert cli.build_parser() is cli.build_parser()


def test_commands_are_looked_up_at_call_time(capsys, monkeypatch):
    main(["constants", "1", "2", "100"])
    capsys.readouterr()
    called = []
    for name in ("cmd_mu", "cmd_constants", "cmd_sweep"):
        monkeypatch.setattr(cli, name, lambda args, name=name: called.append(name) or 7)
    assert [main(list(argv)) for argv in REUSE_ARGVS[:3]] == [7, 7, 7]
    assert called == ["cmd_mu", "cmd_constants", "cmd_sweep"]
    assert capsys.readouterr().out == ""


def test_parser_reuse_leaks_no_state(capsys, monkeypatch):
    # help layout follows the terminal width, so both sides pin it
    monkeypatch.setenv("COLUMNS", "80")
    mu = ("mu", "--set", "3,4,5,11", "--t", "1/3,1/4,0.2,-2/7")
    help_all, help_mu, help_sweep = ("--help",), ("mu", "--help"), ("sweep", "--help")
    usage_error = ("constants", "1", "2")
    mu_json = (*mu, "--json")
    sweep_jobs = ("sweep", "1", "2", "--from", "96", "--to", "104", "--jobs", "2")
    # each argv twice, in two orders; --json is always followed by the same
    # mu without it
    order = [help_all, usage_error, mu_json, mu, help_mu, sweep_jobs, help_sweep,
             help_sweep, mu_json, mu, help_all, sweep_jobs, usage_error, help_mu]
    env = _subprocess_env()
    fresh = {}
    for argv in set(order):
        result = subprocess.run([sys.executable, "-m", "kronlab.cli", *argv], env=env,
                                capture_output=True, text=True)
        fresh[argv] = (result.returncode, result.stdout, result.stderr)
    assert fresh[help_all][0] == 0 and fresh[usage_error][0] == 1
    for argv in order:
        assert run(capsys, *argv) == fresh[argv], argv
