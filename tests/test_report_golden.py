"""Golden digests of the byte-stable `report` part of `mcg-verify --output structured`.

Each digest is the sha256 of `report.comparable_json` of the emitted
envelope.  A change to the arithmetic kernels must leave these unchanged;
a deliberate change to the report needs a schema bump and new digests.
"""

import hashlib

import pytest

from mcgtorsion import cli
from mcgtorsion import report as report_mod

GOLDEN = {
    ("--genus", "3"):
        "950ee4d663c6c4279e282b26236f82576ee6c2f8dd6c0dab6ed49ca9c8dc557e",
    ("--genus", "4"):
        "062f7e48aef305f56e3fa1d07e17c53605201c3a3db8fecad5e5fe56adce0ded",
    ("--genus", "3", "--checks", "modp", "--prime", "2"):
        "8da7496fb3fc7de1c10ea88a32d5a377f44c2089a746863eddbf1048c5b308aa",
}


@pytest.mark.parametrize("args", sorted(GOLDEN), ids=" ".join)
def test_report_matches_golden_digest(args, capsys):
    assert cli.main([*args, "--output", "structured"]) == 0
    env = report_mod.parse_json(capsys.readouterr().out)
    digest = hashlib.sha256(report_mod.comparable_json(env).encode()).hexdigest()
    assert digest == GOLDEN[args]
