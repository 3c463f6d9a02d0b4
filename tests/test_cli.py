import argparse
import json
import math
import os
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

import kronlab.cli as cli
import kronlab.oracle as oracle
from kronlab.cli import (CSV_COLUMNS, UNVERIFIED, VERIFIED_ORACLE,
                         VERIFIED_WITNESS, evaluate_sweep_row, main, worker_count)
from kronlab.closed_form import (TripleConstants, canonical_binary_pair,
                                 in_asymptotic_regime, triple_constants)
from kronlab.greedy_triple import Certificate
from kronlab.oracle import SpectrumProblem, beta_exact, mu_exact

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


def test_mu_greedy_needs_triple(capsys):
    code, _, err = run(capsys, "mu", "--set", "1,2", "--t", "0,1/2", "--greedy")
    assert code == 1 and "greedy" in err


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
    for row in doc["rows"]:
        assert set(row) == {"a", "b", "n", "r", "R", "S", "alpha", "beta", "ln",
                            "gap", "verified", "runtime_ms"}
        assert row["verified"] == UNVERIFIED  # no --verify requested
        # JSON rationals round-trip bit-identically (runtime_ms excluded)
        recomputed = evaluate_sweep_row(1, 2, row["n"], verify=False)
        for field in ("alpha", "beta", "ln"):
            assert Fraction(int(row[field]["num"]), int(row[field]["den"])) == \
                getattr(recomputed, field)


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
