"""greedy_en_certificate and greedy_bound, row for row against committed output.

tests/golden/certificates.csv holds one row per seeded triple {a, b, n} with
targets (t1, t2, t3): the inputs, then greedy_en_certificate's x_star, k,
cost, method and negated (for a NotInAsymptoticRegime, the certificate it
carries, and its message in ``en_raise``), then greedy_bound's certificate.
The rows reach every case of the dispatch on both signs; the raise for
an E_n window without an alignment point is reached by no known input.

tests/golden/certificates-signed.csv holds a second, separately seeded block
in the same columns whose targets lie in (-3, 3), integers among them, so
negative numerators and targets >= 1 reach the rounding directly and not only
through the internal negation.

Regenerate (only on purpose, when a certificate is meant to change):

    PYTHONPATH=src python tests/test_certificate_golden.py
"""
import csv
import random
from fractions import Fraction
from pathlib import Path

from conftest import rand_coprime_pair, rand_fraction
from kronlab.closed_form import triple_constants
from kronlab.greedy_triple import (NotInAsymptoticRegime, TripleProblem,
                                   _aligned_step, greedy_bound,
                                   greedy_en_certificate)
from kronlab.pair_solver import (PairProblem, best_pair_approx, negate_approx,
                                  second_best_approx)

GOLDEN = Path(__file__).parent / "golden" / "certificates.csv"
SIGNED_GOLDEN = GOLDEN.with_name("certificates-signed.csv")
INPUTS = ("a", "b", "n", "t1", "t2", "t3")
CERT = ("x_star", "k", "cost", "method", "negated")
COLUMNS = INPUTS + tuple(f"en_{f}" for f in CERT) + ("en_raise",) \
    + tuple(f"gb_{f}" for f in CERT)

# Pinned from the CLI goldens: negated constructions that land on a
# half-integer alignment tie, and a small-lambda snap above E_n.
PINNED = [(1, 3, 204, "0", "2/3", "1/2"), (8, 11, 798, "0", "1/3", "1/2"),
          (9, 11, 160, "2/5", "1/3", "3/4"), (2, 5, 12, "0", "0", "1/2")]


def golden_inputs() -> list[tuple]:
    """Seeded triples: coprime a < b < 12, targets of denominator <= 60, a
    third of them below the regime (n < 3b + 5), the rest with n < 80b."""
    rng = random.Random(1101)
    rows = list(PINNED)
    for i in range(420):
        a, b = rand_coprime_pair(rng, 10)
        n = rng.randrange(b + 1, 3 * b + 5 if i % 3 == 0 else 80 * b)
        rows.append((a, b, n, *(str(rand_fraction(rng, 60)) for _ in range(3))))
    return rows


def signed_inputs() -> list[tuple]:
    """Seeded triples as in golden_inputs, with targets p/q in (-3, 3),
    q <= 60; one target in six is an integer."""
    rng = random.Random(1401)
    rows = []
    for i in range(300):
        a, b = rand_coprime_pair(rng, 10)
        n = rng.randrange(b + 1, 3 * b + 5 if i % 3 == 0 else 80 * b)
        qs = (1 if rng.randrange(6) == 0 else rng.randrange(2, 61) for _ in range(3))
        rows.append((a, b, n, *(str(Fraction(rng.randrange(1 - 3 * q, 3 * q), q))
                                for q in qs)))
    return rows


def _cert_fields(cert) -> list[str]:
    return [str(cert.x_star), " ".join(map(str, cert.k)), str(cert.cost),
            cert.method, str(int(cert.negated))]


def certificate_row(a, b, n, t1, t2, t3) -> list[str]:
    p = TripleProblem(int(a), int(b), int(n), t1, t2, t3)
    try:
        en, raised = greedy_en_certificate(p), ""
    except NotInAsymptoticRegime as exc:
        en, raised = exc.certificate, str(exc)
    return [str(a), str(b), str(n), t1, t2, t3, *_cert_fields(en), raised,
            *_cert_fields(greedy_bound(p))]


def branch(row: dict) -> str:
    """Which case of greedy_en_certificate's dispatch the row took."""
    a, b, n = int(row["a"]), int(row["b"]), int(row["n"])
    p = TripleProblem(a, b, n, row["t1"], row["t2"], row["t3"])
    ba = best_pair_approx(p.pair())
    if ba.sign < 0:
        p, ba = p.negated(), negate_approx(ba)
    if 2 * n * ba.lam <= b - a:
        return "small-lambda"
    tc = triple_constants(a, b, n)
    if ba.lam <= Fraction(1, a + b) - tc.ln:
        return "L_n window"
    en = tc.alpha
    sb = second_best_approx(p.pair(), ba)
    picks = []
    # the anchors in greedy_en_certificate's order: a tie of distance goes
    # to the first, which min keeps
    for name, anchor in (("second-best", sb), ("best", ba)):
        cert = _aligned_step(p, en, [anchor])
        if cert is not None:
            # the nudged third residual is at most E_n < 1/2, so k[2] is the pick
            picks.append((abs(n * anchor.x - (p.t3 + cert.k[2])), name))
    return "E_n " + min(picks, key=lambda pick: pick[0])[1] + " window"


def read_golden(path: Path = GOLDEN) -> list[dict]:
    with path.open(newline="") as f:
        return list(csv.DictReader(f))


def _assert_rows_match(path: Path):
    golden = read_golden(path)
    assert len(golden) >= 300
    for i, row in enumerate(golden, start=2):  # line 1 is the header
        got = dict(zip(COLUMNS, certificate_row(*(row[c] for c in INPUTS))))
        assert got == row, (f"{path.name} line {i} differs:\n"
                            f"  golden: {row}\n  now:    {got}")


def test_certificates_match_golden():
    _assert_rows_match(GOLDEN)


def test_small_lambda_cost_within_lam_plus_b_over_2n():
    """The snap moves x by at most 1/(2n): every small-lambda certificate of
    both goldens costs at most lam + b/(2n) <= (2b-a)/(2n)."""
    rows = 0
    for row in read_golden(GOLDEN) + read_golden(SIGNED_GOLDEN):
        a, b, n = int(row["a"]), int(row["b"]), int(row["n"])
        lam = best_pair_approx(PairProblem(a, b, row["t1"], row["t2"])).lam
        for side in ("en", "gb"):
            if row[f"{side}_method"] == "small-lambda":
                rows += 1
                assert Fraction(row[f"{side}_cost"]) <= lam + Fraction(b, 2 * n), row
                assert lam + Fraction(b, 2 * n) <= Fraction(2 * b - a, 2 * n)
    assert rows > 0


def test_signed_certificates_match_golden():
    _assert_rows_match(SIGNED_GOLDEN)
    targets = [Fraction(row[t]) for row in read_golden(SIGNED_GOLDEN)
               for t in ("t1", "t2", "t3")]
    assert all(-3 < t < 3 for t in targets)
    assert any(t < -1 for t in targets) and any(t >= 1 for t in targets)
    assert any(t.denominator == 1 and t != 0 for t in targets)


def _assert_reaches_every_branch(golden: list[dict]):
    reached = {(branch(row), row["en_negated"], bool(row["en_raise"])) for row in golden}
    for name in ("small-lambda", "L_n window", "E_n best window",
                 "E_n second-best window"):
        for negated in ("0", "1"):
            assert (name, negated, False) in reached
    # below the regime the small-lambda snap costs more than E_n
    assert ("small-lambda", "0", True) in reached
    assert ("small-lambda", "1", True) in reached
    # greedy_bound picks its window by the sign of the best balanced point,
    # which is negative exactly when the E_n construction negates
    assert {(row["gb_method"], row["en_negated"]) for row in golden} == \
        {(m, s) for m in ("small-lambda", "greedy-window") for s in ("0", "1")}


def test_golden_reaches_every_branch_on_both_signs():
    for path in (GOLDEN, SIGNED_GOLDEN):
        _assert_reaches_every_branch(read_golden(path))


if __name__ == "__main__":
    for path, inputs in ((GOLDEN, golden_inputs()), (SIGNED_GOLDEN, signed_inputs())):
        with path.open("w", newline="") as f:
            out = csv.writer(f, lineterminator="\n")
            out.writerow(COLUMNS)
            out.writerows(certificate_row(*inp) for inp in inputs)
