"""Golden digests of the byte-stable `report` part of `mcg-verify --output structured`,
and of the text report.

Each structured digest is the sha256 of `comparable_json` (tests/conftest.py)
of the emitted envelope; each text digest is the sha256 of `--output text`
without its `# time` lines.  A change to the arithmetic kernels must leave
these unchanged; a deliberate change to the report needs a schema bump and
new digests.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import comparable_json
from mcgtorsion import cli

SRC = str(Path(__file__).resolve().parent.parent / "src")

GOLDEN = {
    ("--genus", "3"):
        "950ee4d663c6c4279e282b26236f82576ee6c2f8dd6c0dab6ed49ca9c8dc557e",
    ("--genus", "4"):
        "062f7e48aef305f56e3fa1d07e17c53605201c3a3db8fecad5e5fe56adce0ded",
    ("--genus", "3", "--checks", "modp", "--prime", "2"):
        "8da7496fb3fc7de1c10ea88a32d5a377f44c2089a746863eddbf1048c5b308aa",
    ("--genus", "8"):
        "1f4754f8541a441242785d638c06b6f24a131b1ba87ca9738c6df61cd757a2d5",
    # |Sp(8,2)| is above the exact-order bound: the transitivity certificate
    ("--genus", "4", "--checks", "modp", "--prime", "2"):
        "def2959d34ebc7eb3cf2522bf28f5141e90af7c8108dcdf6d4b83c62d306d976",
    ("--genus", "3", "--prime", "2", "--witness"):
        "bfd0be6657d67b07873acb9b4983fb926dd3fa2520c541f6a09c40dc42367195",
    # odd genus: f2 maps handle (g+3)/2 to itself, which pins its sign
    ("--genus", "5"):
        "c59515b289266d75a867484042d454d5b207b3eee1fec29049381f1583f014e4",
    ("--genus", "16"):
        "c37ce46db08c26349f09ee8b654dfbe9d87bcddeb42e50d560d2555db352acc2",
    ("--genus", "3", "--checks", "modp", "--prime", "3"):
        "8f8c08541020237d9a00f175a19359513cf8ca6a7184d8479a5988d791b69280",
    # with the runs above, every report the benchmark ladders read
    ("--genus", "2"):
        "accf0000c66458cb92c8ed9ffe8f0a87d4f21d9fece79989c901e386c97b5dd0",
    ("--genus", "6"):
        "7cc3650574567e48bd25651de1b86069e83757e919e033a8a1a3534430eca5ee",
    ("--genus", "12"):
        "a7f9747a47d2ba00507e053bc2c7a07c8e5a015ab6cca46990dc6dae897db7b7",
    ("--genus", "6", "--checks", "modp", "--prime", "2"):
        "104a5a3471d20279ac8edf08cbe1b04f2cb398f1dac22bd6573c1823a39f6e6a",
    ("--genus", "8", "--checks", "modp", "--prime", "2"):
        "87171c3b9a1476dd3057e1446ad61ddfdf5cf3dc67b76217624f78f726ced297",
}

# the same runs with --output text, without the "# time" lines
TEXT_GOLDEN = {
    ("--genus", "3"):
        "d3e05581287510218cc39e777cb0e78d254cd1ca89f4f6dbf0e3f29607dd052f",
    ("--genus", "4"):
        "2f2256c4b1bf949bdc60275514e489a8fbba4a661d58f5c23a377e2b2aea6470",
    ("--genus", "3", "--checks", "modp", "--prime", "2"):
        "1c782d0b2576b8793314493ddbc2654319e9c363f76f36bee12abaea51f93938",
    ("--genus", "8"):
        "080568af9e9752bf05409722e11fadb6d6540eab9b17ad3e598cf9caac8b9c53",
    ("--genus", "4", "--checks", "modp", "--prime", "2"):
        "67deaad37d260cf6ddf320e4c193dd22ae832e8dfedc0ddb145f40ef8fbc4fa9",
    ("--genus", "3", "--prime", "2", "--witness"):
        "4ebdf8a5f9d87bbedf9319f4b6ec5275fc92bdfb3b4119d2ed0b4ea029a0226e",
    ("--genus", "5"):
        "ed1ed255ed52161c58264b52729f9271ccc0392e788cb5e50933c44de15541e5",
    ("--genus", "16"):
        "982211a9b18afb3a386b8ccde7cc74882f401ec236e02e76b96c7f0a4cbada9f",
    ("--genus", "3", "--checks", "modp", "--prime", "3"):
        "f89f7e02412c2579ba476a8f3df9e8a0b17ac3d16a0c9338f7d2b0a872cdc93f",
    ("--genus", "2"):
        "9dc1addd091b1d3129c1e8a34e1d4cd533cf58ebc3d10bc96c606bf7df07891b",
    ("--genus", "6"):
        "b2daeb245b0c7b19866e7da1cd0a25e7e284a5a59e72b754dbfb80cf7c3c95b7",
    ("--genus", "12"):
        "4d32309e4a188ee56c9d7f6650a915192731ca06693bcd9bcf42888ef3f0f3ea",
    ("--genus", "6", "--checks", "modp", "--prime", "2"):
        "67a56d26e86f8bdc6cd4c7167ae00fbae1b5169c4103201db4bec0f01454080c",
    ("--genus", "8", "--checks", "modp", "--prime", "2"):
        "0e4a907a4e269b027cb2cd880158862fca4f8c6b40beb0481b86847b93848f74",
}


def _digest(text):
    return hashlib.sha256(comparable_json(json.loads(text)).encode()).hexdigest()


@pytest.mark.parametrize("args", sorted(GOLDEN), ids=" ".join)
def test_report_matches_golden_digest(args, capsys):
    assert cli.main([*args, "--output", "structured"]) == 0
    assert _digest(capsys.readouterr().out) == GOLDEN[args]


@pytest.mark.parametrize("args", sorted(GOLDEN), ids=" ".join)
def test_text_report_matches_golden_digest(args, capsys):
    assert cli.main(list(args)) == 0
    kept = [line for line in capsys.readouterr().out.splitlines(keepends=True)
            if not line.startswith("# time ")]
    assert hashlib.sha256("".join(kept).encode()).hexdigest() == TEXT_GOLDEN[args]


@pytest.mark.parametrize(
    "args", [("--genus", "3"), ("--genus", "8", "--checks", "modp", "--prime", "2")],
    ids=" ".join)
def test_process_entry_matches_golden_digest(args):
    # the benchmark runs `python -m mcgtorsion`, one process per report
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run([sys.executable, "-m", "mcgtorsion", *args, "--output", "structured"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert _digest(proc.stdout) == GOLDEN[args]
