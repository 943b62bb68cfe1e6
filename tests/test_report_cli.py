import json
import os
import re
import subprocess
import sys
import time

import pytest

from conftest import comparable_json
from mcgtorsion import cli, theorem
from mcgtorsion import report as report_mod
from mcgtorsion.symplectic import identity
from mcgtorsion.theorem import full_theorem_report
from mcgtorsion.torsion import TorsionCertificate

PKG_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _run_cli(*args, **env_overrides):
    env = dict(os.environ, **env_overrides)
    env["PYTHONPATH"] = os.path.join(PKG_ROOT, "src") + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", "mcgtorsion", *args],
        capture_output=True, text=True, env=env, cwd=PKG_ROOT,
    )


def test_report_round_trip():
    report, timings = full_theorem_report(3, checks={"relations", "torsion"})
    env = report_mod.envelope(report, timings)
    text = report_mod.emit_json(env)
    assert json.loads(text) == env


def test_report_byte_stable_across_runs():
    runs = []
    for _ in range(2):
        report, timings = full_theorem_report(3)
        runs.append(comparable_json(report_mod.envelope(report, timings)))
    assert runs[0] == runs[1]


def test_report_matrices_are_integer_lists():
    report, _ = full_theorem_report(3, checks={"torsion"})
    cert = report["checks"]["torsion"]["certificates"][0]
    assert all(isinstance(x, int) for row in cert["matrix"] for x in row)


def test_text_report_mentions_convention_and_result():
    report, timings = full_theorem_report(4, checks={"relations"})
    text = report_mod.emit_text(report_mod.envelope(report, timings))
    assert "convention:" in text
    assert "c_class_signs" in text
    assert text.rstrip().splitlines()[-1].startswith("# time") or "RESULT: PASS" in text
    assert "RESULT: PASS" in text


def test_cli_genus4_theorem_passes():
    proc = _run_cli("--genus", "4", "--checks", "theorem")
    assert proc.returncode == 0, proc.stderr
    assert "RESULT: PASS" in proc.stdout


def test_cli_genus1_rejected():
    proc = _run_cli("--genus", "1", "--checks", "theorem")
    assert proc.returncode == 2
    assert "error" in proc.stderr


def test_cli_genus2_theorem_rejected():
    proc = _run_cli("--genus", "2", "--checks", "theorem")
    assert proc.returncode == 2
    assert "genus >= 3" in proc.stderr


def test_cli_genus2_relations_allowed():
    # relations are defined from genus 2 on; the default check set at
    # genus 2 is exactly that
    proc = _run_cli("--genus", "2")
    assert proc.returncode == 0, proc.stderr
    assert "RESULT: PASS" in proc.stdout


def test_cli_unknown_check_rejected():
    proc = _run_cli("--genus", "3", "--checks", "nonsense")
    assert proc.returncode == 2


def test_cli_modp_without_prime_rejected():
    proc = _run_cli("--genus", "3", "--checks", "modp")
    assert proc.returncode == 2


def test_cli_bad_prime_rejected():
    proc = _run_cli("--genus", "3", "--checks", "modp", "--prime", "9")
    assert proc.returncode == 2


def test_cli_structured_output_parses_and_is_stable():
    a = _run_cli("--genus", "3", "--checks", "theorem", "--output", "structured")
    b = _run_cli("--genus", "3", "--checks", "theorem", "--output", "structured")
    assert a.returncode == b.returncode == 0
    ra, rb = json.loads(a.stdout), json.loads(b.stdout)
    assert ra["report"] == rb["report"]
    assert ra["report"]["passed"] is True
    assert "timings" in ra


def test_cli_out_file(tmp_path):
    path = tmp_path / "report.json"
    proc = _run_cli("--genus", "3", "--checks", "relations", "--output", "structured",
                    "--out", str(path))
    assert proc.returncode == 0
    on_disk = json.loads(path.read_text())
    assert on_disk == json.loads(proc.stdout)


def test_cli_out_writes_through_symlink_and_keeps_mode(tmp_path):
    real = tmp_path / "real.json"
    real.write_text("old")
    real.chmod(0o640)
    link = tmp_path / "link.json"
    link.symlink_to(real)
    proc = _run_cli("--genus", "3", "--checks", "relations", "--output", "structured",
                    "--out", str(link))
    assert proc.returncode == 0
    assert link.is_symlink()
    assert json.loads(real.read_text()) == json.loads(proc.stdout)
    assert real.stat().st_mode & 0o777 == 0o640
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link.json", "real.json"]


def test_cli_out_to_non_regular_file():
    # /dev/stdout is the captured pipe here: the report lands there twice
    proc = _run_cli("--genus", "3", "--checks", "relations", "--out", "/dev/stdout")
    assert proc.returncode == 0
    half = len(proc.stdout) // 2
    assert proc.stdout[:half] == proc.stdout[half:]
    assert proc.stdout.startswith(proc.stdout[half:])


@pytest.mark.parametrize("target", ["missing/report.txt", "existing_dir"])
def test_cli_out_unwritable_is_usage_error(tmp_path, target):
    (tmp_path / "existing_dir").mkdir()
    proc = _run_cli("--genus", "3", "--checks", "relations", "--out", str(tmp_path / target))
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: cannot write --out")
    assert len(proc.stderr.splitlines()) == 1
    assert proc.stdout == ""
    # no temporary file is left behind
    assert [p.name for p in tmp_path.iterdir()] == ["existing_dir"]


def test_cli_out_empty_path_is_usage_error():
    # a script passing an unset "$OUT" gives --out '', which used to write nothing and exit 0
    proc = _run_cli("--genus", "3", "--checks", "relations", "--out", "")
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: cannot write --out")
    assert len(proc.stderr.splitlines()) == 1
    assert proc.stdout == ""


@pytest.mark.parametrize("flags", [
    ("--out", "ev.json"),
    ("--checks", "relations"),
    ("--prime", "2"),
    ("--witness",),
    ("--output", "structured"),
])
def test_cli_eval_with_report_flag_is_usage_error(flags):
    # --eval prints one matrix, and used to drop these report flags and exit 0
    proc = _run_cli("--genus", "3", "--eval", "Ta1", *flags)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: --eval prints a matrix, not a report")
    assert len(proc.stderr.splitlines()) == 1
    assert proc.stdout == ""
    assert not os.path.exists(os.path.join(PKG_ROOT, "ev.json"))


@pytest.mark.parametrize("args", [
    ("--genus", "3", "--checks", "relations", "--prime", "2"),
    ("--genus", "2", "--prime", "2"),  # the default checks at genus 2 hold no modp
])
def test_cli_prime_without_modp_is_usage_error(args):
    # these runs used to drop the prime and exit 0 with no mod-p section
    proc = _run_cli(*args)
    assert proc.returncode == 2
    assert proc.stderr == "error: prime 2 given without the modp check\n"
    assert proc.stdout == ""


@pytest.mark.parametrize("args", [
    ("--genus", "11", "--checks", "modp", "--prime", "2"),  # 2^22-1 vectors
    ("--genus", "7", "--prime", "3"),   # 3^14-1 vectors; default checks include modp
    ("--genus", "3", "--prime", "5"),   # transitivity needs p in (2, 3)
])
def test_cli_rejects_uncertifiable_prime_before_any_check(args):
    # these runs used to go inconclusive (exit 1) or fail late with an internal error
    t0 = time.perf_counter()
    proc = _run_cli(*args)
    elapsed = time.perf_counter() - t0
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert len(proc.stderr.splitlines()) == 1
    assert proc.stderr.startswith("error: no mod-")
    assert elapsed < 1.5, f"rejection took {elapsed:.2f}s"


@pytest.mark.parametrize("p", (0, 1, 4, -2))
def test_prime_outside_small_primes_is_rejected_in_one_place(p):
    # full_theorem_report and the CLI give the same message, from one check
    message = f"prime must be one of (2, 3, 5, 7, 11, 13), got {p}"
    with pytest.raises(ValueError) as exc:
        full_theorem_report(3, prime=p)
    assert str(exc.value) == message
    proc = _run_cli("--genus", "3", "--prime", str(p))
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == f"error: {message}\n"


@pytest.mark.parametrize("args", [
    ("--genus", "4", "--prime", "2"),  # transitivity: |Sp(8,2)| is above the bound
    ("--genus", "3", "--prime", "3"),  # transitivity: |Sp(6,3)| is above the bound
    ("--genus", "3", "--checks", "relations", "--prime", "2"),  # no mod-p check
])
def test_cli_rejects_witness_without_exact_order_certificate(args):
    # these runs used to exit 0 with no membership words; without the modp
    # check the prime itself is the first error
    proc = _run_cli(*args, "--witness")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert len(proc.stderr.splitlines()) == 1
    expected = ("error: prime 2 given without the modp check" if "relations" in args
                else "error: membership witnesses need the exact-order")
    assert proc.stderr.startswith(expected)


def _without_timings(text):
    return [line for line in text.splitlines() if not line.startswith("# time ")]


def test_cli_ignores_enum_cap_env():
    # the mode bounds are fixed: the old MCGTORSION_ENUM_CAP variable has no effect
    args = ("--genus", "3", "--checks", "modp", "--prime", "2")
    plain = _run_cli(*args)
    with_env = _run_cli(*args, MCGTORSION_ENUM_CAP="abc")
    assert plain.returncode == with_env.returncode == 0
    assert with_env.stderr == ""
    assert _without_timings(with_env.stdout) == _without_timings(plain.stdout)


def test_cli_eval_word():
    proc = _run_cli("--genus", "3", "--eval", "Ta1 Tb1 Ta1")
    assert proc.returncode == 0
    assert "word: Ta1 Tb1 Ta1" in proc.stdout


def test_cli_eval_rejects_unknown_token():
    proc = _run_cli("--genus", "3", "--eval", "Bogus^2")
    assert proc.returncode == 2
    assert "token 1" in proc.stderr


@pytest.mark.parametrize("args", [
    ("--genus", "abc"),
    ("--genus", "3", "--bogus"),
    ("--genus", "3", "--output", "xml"),
    ("--genus", "4", "--checks", "theorem", "--orbit-cap", "5"),  # the flag is gone
    ("--genus", "3", "--checks", "modp", "--prime", "2", "--enum-cap", "5"),  # the flag is gone
    # rejected by full_theorem_report or lickorish_system, not by the CLI
    ("--genus", "1"),
    ("--genus", "1", "--eval", "Ta1"),
    ("--genus", "3", "--checks", "modp"),
])
def test_cli_parser_errors_are_one_line(args):
    proc = _run_cli(*args)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert len(proc.stderr.splitlines()) == 1
    assert proc.stderr.startswith("error: ")


def _readme_command_line_options():
    with open(os.path.join(PKG_ROOT, "README.md")) as fh:
        text = fh.read()
    section = text.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    return set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", section))


def test_readme_documents_exactly_the_cli_options():
    parser_options = {opt for action in cli.build_parser()._actions
                      for opt in action.option_strings if opt.startswith("--")}
    assert _readme_command_line_options() == parser_options - {"--help"}


def test_cli_help_still_prints_usage():
    proc = _run_cli("--help")
    assert proc.returncode == 0
    assert proc.stdout.startswith("usage: mcg-verify")


def test_cli_help_states_the_accepted_genus():
    # genus 2 is accepted for the relations check, so the help must not say >= 3
    help_text = " ".join(_run_cli("--help").stdout.split())
    assert "surface genus, >= 2 (torsion, theorem and modp need >= 3)" in help_text


def test_cli_witness_flag():
    # orbit words are written with or without --witness
    proc = _run_cli("--genus", "3", "--checks", "theorem", "--output", "structured")
    assert proc.returncode == 0
    data = json.loads(proc.stdout)
    witnesses = data["report"]["checks"]["theorem"]["orbit"]["details"]["witnesses"]
    assert witnesses["a1"] == []
    assert any(witnesses.values())


def test_exit_status_reflects_verdicts(monkeypatch, capsys):
    # with f3 replaced by the identity the orbit words miss the b and c
    # curves: the run must exit 1 and name them
    certs = [c if c.name != "f3" else TorsionCertificate(
                 c.name, identity(4), c.claimed_order, c.curve_action, c.notes)
             for c in theorem.theorem_generators(4)]
    monkeypatch.setattr(theorem, "theorem_generators", lambda g: certs)
    assert cli.main(["--genus", "4", "--checks", "theorem"]) == 1
    text = capsys.readouterr().out
    assert "orbit(g=4): fail" in text
    assert "4 of 11 curves reached" in text
    assert "missing: b1, b2, b3, b4, c1, c2, c3" in text
    assert "RESULT: FAIL" in text


def test_f2f1_order_failure_fails_the_torsion_verdict(monkeypatch, capsys):
    # with f2 replaced by f1 every claimed order holds, but f2 f1 = I has order 1
    certs = theorem.theorem_generators(4)
    f2 = TorsionCertificate("f2", certs[0].matrix, 2, certs[1].curve_action, certs[1].notes)
    monkeypatch.setattr(theorem, "theorem_generators", lambda g: (certs[0], f2) + certs[2:])
    assert cli.main(["--genus", "4", "--checks", "torsion", "--output", "structured"]) == 1
    section = json.loads(capsys.readouterr().out)["report"]["checks"]["torsion"]
    assert section["passed"] is False
    assert section["f2f1_order"] == 1
    assert "order_failures" not in section
    assert cli.main(["--genus", "4", "--checks", "torsion"]) == 1
    text = capsys.readouterr().out
    assert "[torsion] FAIL: 4 generators, order(f2*f1) = 1" in text
    assert "order not as claimed" not in text


def test_failed_identity_prints_words_and_matrices():
    # synthesize a failing relation section the way a checker would emit it
    section = {
        "passed": False,
        "count": 1,
        "failures": [
            {
                "check": "braid(a1,b1)",
                "status": "fail",
                "details": {
                    "lhs_word": "Ta1 Tb1 Ta1",
                    "rhs_word": "Tb1 Ta1 Tb1",
                    "lhs_matrix": [[1, 0], [0, 1]],
                    "rhs_matrix": [[1, 1], [0, 1]],
                },
            }
        ],
    }
    report = {
        "schema": "mcgtorsion-report/2",
        "genus": 2,
        "convention": {},
        "note": "",
        "checks": {"relations": section},
        "passed": False,
    }
    text = report_mod.emit_text(report_mod.envelope(report, {}))
    assert "FAIL braid(a1,b1)" in text
    assert "Ta1 Tb1 Ta1" in text
    assert "[[1, 0], [0, 1]]" in text
    assert "RESULT: FAIL" in text
