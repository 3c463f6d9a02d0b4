"""The benchmark's three workloads: seeded inputs, one operation, its checks.

Each workload turns the seed into a fixed pool of inputs; the timed loop
cycles through that pool.  The program only ever sees the generated inputs.
Every operation is timed around the single call into kronlab, and its output
is checked outside the timed region by arithmetic the harness does itself.

Why each workload exists, and which layer it stresses:

* ``verify-sweep`` -- one oracle-verified sweep row through the CLI.  This is
  the paper's end-to-end product, and the oracle (``mu_exact`` and
  ``beta_exact``) is over 99% of it.  A row makes 7 ``mu_exact`` calls on 4
  to 7 distinct targets.  Changes to the oracle show here.
* ``certify`` -- one ``greedy_en_certificate`` call on a triple near 60b,
  the shape of acceptance criteria c3/c4.  It runs ``pair_solver``,
  ``greedy_triple``, ``closed_form`` and ``exact_arith`` and never the
  oracle, so an oracle change predicts no change here, and a greedy or
  sign-handling change shows only here.
* ``mu-spectra`` -- one ``kronlab mu --json`` query on a random spectrum of
  2 to 4 frequencies below 200 with general rational targets.  It uses the
  oracle differently from the sweep (non-binary targets; d = 4 is where an
  integer grid's modulus grows fastest), and the CLI's own cost (argparse,
  JSON) becomes visible once the oracle is fast.
"""
from __future__ import annotations

import csv
import io
import json
import math
import random
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

#: Acceptance-suite pairs (tests/test_acceptance.py).
ACCEPTANCE_PAIRS = ((1, 2), (1, 3), (2, 3), (2, 5), (3, 4), (3, 5), (4, 5))
#: Sizes of n for verified rows; a row costs roughly linear time in n.
SIZE_BUCKETS = (100, 300, 1000)
VERIFIED_FLAGS = ("oracle-exact", "witness-sandwich")
MAX_TARGET_DEN = 60


def timed(fn, *args):
    """Call fn(*args) and return (result or raised exception, seconds)."""
    t0 = time.perf_counter()
    try:
        result = fn(*args)
    except Exception as exc:  # a failing operation is counted, not fatal
        result = exc
    return result, time.perf_counter() - t0


def angular_cost(spectrum, targets, x: Fraction) -> Fraction:
    """max_j <n_j*x - t_j>, recomputed here so no check trusts the program."""
    worst = Fraction(0)
    for nj, tj in zip(spectrum, targets):
        u = nj * x - tj
        r = u - math.floor(u)
        worst = max(worst, min(r, 1 - r))
    return worst


def random_target(rng: random.Random) -> Fraction:
    q = rng.randrange(1, MAX_TARGET_DEN + 1)
    return Fraction(rng.randrange(q), q)


class CliOutput:
    """Exit code (or the exception main raised) and the captured streams."""

    def __init__(self, code, stdout: str, stderr: str):
        self.code, self.stdout, self.stderr = code, stdout, stderr

    def failure(self) -> str | None:
        if isinstance(self.code, Exception):
            return f"cli raised {type(self.code).__name__}: {self.code}"
        if self.code != 0:
            return f"exit code {self.code}: {self.stderr.strip()}"
        return None


class Workload:
    """Seeded input pool, one timed operation, and its checks.

    ``digest_ops`` is how many leading pool inputs the output digest covers.
    """

    name: str
    digest_ops: int

    def __init__(self, kronlab):
        self.kronlab = kronlab

    def report_bytes(self, output) -> int:
        return 0

    def label(self, inp) -> str | None:
        """Input class whose median time the run also prints, if any."""
        return None


class CliWorkload(Workload):
    """An operation that is one ``kronlab.cli.main(argv)`` call, output in memory."""

    def run(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            # Looked up on every call, so the traced run sees its wrapper.
            code, seconds = timed(self.kronlab.cli.main, argv)
        return CliOutput(code, out.getvalue(), err.getvalue()), seconds

    def digest_text(self, argv, output: CliOutput) -> str:
        return output.stdout

    def report_bytes(self, output: CliOutput) -> int:
        return len(output.stdout.encode())


class VerifySweep(CliWorkload):
    """``kronlab sweep a b --from n --to n --verify``: one oracle-verified row.

    Pool: ``rounds`` rounds, each covering every (acceptance pair, size
    bucket) combination once, in an order whose every prefix of three covers
    all three buckets and whose first seven inputs (the digest) cover every
    pair.  n is the bucket base plus a random offset below a+b,
    so every residue of n mod (a+b) is reachable and R = a rows occur at
    their natural rate.
    """

    name = "verify-sweep"
    digest_ops = len(ACCEPTANCE_PAIRS)
    rounds = 6

    def inputs(self, seed: int) -> list:
        in_regime = self.kronlab.closed_form.in_asymptotic_regime
        rng = random.Random(seed)
        pool = []
        for i in range(self.rounds * len(ACCEPTANCE_PAIRS) * len(SIZE_BUCKETS)):
            a, b = ACCEPTANCE_PAIRS[i % len(ACCEPTANCE_PAIRS)]
            base = SIZE_BUCKETS[i % len(SIZE_BUCKETS)]
            n = base + rng.randrange(a + b)
            while not in_regime(a, b, n):
                n = base + rng.randrange(a + b)
            pool.append(["sweep", str(a), str(b), "--from", str(n), "--to", str(n),
                         "--verify"])
        return pool

    def label(self, argv) -> str:
        n = int(argv[4])
        return f"n{min(SIZE_BUCKETS, key=lambda base: abs(n - base))}"

    def check(self, argv, output: CliOutput) -> str | None:
        failure = output.failure()
        if failure:
            return failure
        rows = list(csv.DictReader(io.StringIO(output.stdout)))
        if len(rows) != 1 or rows[0].get("n") != argv[4]:
            return f"expected one row for n={argv[4]}, got {output.stdout!r}"
        if rows[0]["verified"] not in VERIFIED_FLAGS:
            return f"row for n={argv[4]} flagged {rows[0]['verified']!r}"
        return None


class MuSpectra(CliWorkload):
    """``kronlab mu --set ... --t ... --json``: one exact oracle query.

    Pool: d in {2, 3, 4} in turn, distinct frequencies below 200, targets
    with denominators at most 60.  Costs vary widely between inputs, so the
    pool is large enough that a 30 s run repeats none of them: with 300
    inputs cycled, the median moved by 8% between seeds, with 1200 by 2%.
    """

    name = "mu-spectra"
    digest_ops = 30
    pool_size = 1200

    def inputs(self, seed: int) -> list:
        rng = random.Random(seed)
        pool = []
        for i in range(self.pool_size):
            spectrum = sorted(rng.sample(range(1, 200), 2 + i % 3))
            targets = [random_target(rng) for _ in spectrum]
            pool.append(["mu", "--set", ",".join(map(str, spectrum)),
                         "--t", ",".join(map(str, targets)), "--json"])
        return pool

    def label(self, argv) -> str:
        return f"d{argv[2].count(',') + 1}"

    def check(self, argv, output: CliOutput) -> str | None:
        failure = output.failure()
        if failure:
            return failure
        spectrum = [int(v) for v in argv[2].split(",")]
        targets = [Fraction(v) for v in argv[4].split(",")]
        doc = json.loads(output.stdout)
        mu = Fraction(int(doc["mu"]["num"]), int(doc["mu"]["den"]))
        x_star = Fraction(int(doc["x_star"]["num"]), int(doc["x_star"]["den"]))
        if angular_cost(spectrum, targets, x_star) != mu:
            return f"reported mu {mu} is not F(x*) at x*={x_star} for {argv}"
        budget = self.kronlab.oracle.candidate_budget(spectrum)
        if doc["candidates_examined"] > budget:
            return f"{doc['candidates_examined']} candidates exceed the budget {budget}"
        return None


class Certify(Workload):
    """``greedy_en_certificate(TripleProblem(a, b, n, t1, t2, t3))``.

    Pool: coprime a < b <= 10, n in [60b, 60b + 8(a+b)), targets with
    denominators at most 60.  Every such triple is in the asymptotic regime.
    """

    name = "certify"
    digest_ops = 256
    pool_size = 2048
    oracle_sample = 8

    def __init__(self, kronlab):
        super().__init__(kronlab)
        self.pairs = [(a, b) for b in range(2, 11) for a in range(1, b)
                      if math.gcd(a, b) == 1]
        self._alpha = {}

    def inputs(self, seed: int) -> list:
        problem = self.kronlab.greedy_triple.TripleProblem
        rng = random.Random(seed)
        pool = []
        for _ in range(self.pool_size):
            a, b = rng.choice(self.pairs)
            n = 60 * b + rng.randrange(8 * (a + b))
            pool.append(problem(a, b, n, *(random_target(rng) for _ in range(3))))
        return pool

    def run(self, p):
        return timed(self.kronlab.greedy_triple.greedy_en_certificate, p)

    def check(self, p, cert) -> str | None:
        if isinstance(cert, Exception):
            return f"{type(cert).__name__}: {cert}"
        cost = angular_cost(p.spectrum(), p.targets(), cert.x_star)
        if cert.cost != cost:
            return f"certificate cost {cert.cost} != recomputed {cost} for {p}"
        key = (p.a, p.b, p.n)
        if key not in self._alpha:
            self._alpha[key] = self.kronlab.closed_form.alpha_formula(*key)
        if cert.cost > self._alpha[key]:
            return f"certificate cost {cert.cost} > alpha {self._alpha[key]} for {p}"
        return None

    def check_against_oracle(self, pool, outputs, seed: int) -> list[str]:
        """Untimed: a seeded sample of certificates must not beat mu_exact."""
        oracle = self.kronlab.oracle
        rng = random.Random(seed)
        failures = []
        for i in rng.sample(sorted(outputs), min(self.oracle_sample, len(outputs))):
            p, cert = pool[i], outputs[i]
            if isinstance(cert, Exception):
                continue  # already counted by check()
            mu = oracle.mu_exact(oracle.SpectrumProblem(p.spectrum(), p.targets())).value
            if cert.cost < mu:
                failures.append(f"certificate cost {cert.cost} below oracle {mu} for {p}")
        return failures

    def digest_text(self, p, cert) -> str:
        if isinstance(cert, Exception):
            return f"{p}: {type(cert).__name__}"
        return f"{p.a},{p.b},{p.n},{p.t1},{p.t2},{p.t3}:{cert.x_star},{cert.k},{cert.cost}"


WORKLOADS = {w.name: w for w in (VerifySweep, Certify, MuSpectra)}
