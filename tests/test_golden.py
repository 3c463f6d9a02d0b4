"""Every command in every format, byte for byte against committed reports.

The files in tests/golden/ hold the stdout of ``kronlab <argv>`` for each
case below, each captured from the code before the CLI refactor it guards
(one row and witness model; one report per command).  The sweep JSON and
grid JSON files were re-captured when sweep rows lost their wall-clock
``runtime_ms`` field and the grid argmax became JSON rationals.
"""
from pathlib import Path

import pytest

from kronlab.cli import main

GOLDEN = Path(__file__).parent / "golden"

CASES = {
    "mu-text": "mu --set 2,5,300 --t 1/7,2/3,5/11",
    "mu-json": "mu --set 2,5,300 --t 1/7,2/3,5/11 --json",
    "mu-greedy-text": "mu --set 2,5,300 --t 1/7,2/3,5/11 --greedy",
    "mu-greedy-json": "mu --set 2,5,300 --t 1/7,2/3,5/11 --greedy --json",
    "mu-greedy-small-lambda-text": "mu --set 2,5,7 --t 1/3,1/5,2/7 --greedy",
    "mu-greedy-half-json": "mu --set 1,2,100 --t 0,1/2,1/2 --greedy --json",
    "mu-d4-decimal-json": "mu --set 3,4,5,11 --t 1/3,1/4,0.2,-2/7 --json",
    # The best balanced point has a negative sign and the alignment step
    # lands on a half-integer tie: the negated construction is pinned here.
    "mu-greedy-negated-1-json": "mu --set 1,3,204 --t 0,2/3,1/2 --greedy --json",
    "mu-greedy-negated-2-json": "mu --set 8,11,798 --t 0,1/3,1/2 --greedy --json",
    "mu-greedy-negated-3-json": "mu --set 9,11,160 --t 2/5,1/3,3/4 --greedy --json",
    # Below the regime the small-lambda snap costs 5/24 > E_n = 1/7: the
    # certificate is shown with the note that it does not certify E_n.
    "mu-greedy-above-en-text": "mu --set 2,5,12 --t 0,0,1/2 --greedy",
    "mu-greedy-above-en-json": "mu --set 2,5,12 --t 0,0,1/2 --greedy --json",
    # --precision reaches the certificate's rationals
    "mu-greedy-precision-json": "mu --set 2,5,300 --t 1/7,2/3,5/11 --greedy --json "
                                "--precision 30",
    "constants-text": "constants 1 2 100",
    "constants-json": "constants 1 2 100 --json",
    "constants-verify-text": "constants 1 2 100 --verify",
    "constants-verify-json": "constants 1 2 100 --verify --json",
    "constants-equal-verify-text": "constants 2 3 300 --verify",
    "constants-equal-verify-json": "constants 2 3 300 --verify --json --precision 20",
    "constants-small-n-verify-text": "constants 1 5 6 --verify",
    "constants-grid-text": "constants 1 2 100 --grid 6",
    "constants-grid-json": "constants 1 2 100 --grid 6 --json",
    "sweep-csv": "sweep 1 2 --from 96 --to 104",
    "sweep-json": "sweep 1 2 --from 96 --to 104 --json",
    "sweep-verify-csv": "sweep 1 2 --from 96 --to 104 --verify",
    "sweep-verify-json": "sweep 1 2 --from 96 --to 104 --verify --json",
    # --precision reaches every row's rationals
    "sweep-json-precision": "sweep 2 3 --from 300 --to 303 --verify --json --precision 5",
    "sweep-small-n-verify-csv": "sweep 1 5 --from 6 --to 12 --verify",
    # one triple's CSV row is a one-row sweep
    "sweep-one-row-csv": "sweep 1 2 --from 100 --to 100",
    "sweep-one-row-verify-csv": "sweep 1 2 --from 100 --to 100 --verify",
    "sweep-one-row-small-n-verify-csv": "sweep 1 5 --from 6 --to 6 --verify",
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_golden(name, capsys):
    assert main(CASES[name].split()) == 0
    out = capsys.readouterr().out
    golden = (GOLDEN / f"{name}.out").read_bytes().decode("utf-8")
    assert out == golden


def test_every_golden_file_has_a_case():
    """A retired command leaves no golden behind, and no case lacks its file."""
    assert sorted(path.stem for path in GOLDEN.glob("*.out")) == sorted(CASES)
