import json
import os
import subprocess
import sys
import time

import pytest

from mcgtorsion import report as report_mod
from mcgtorsion.theorem import full_theorem_report

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
    assert report_mod.parse_json(text) == env


def test_report_byte_stable_across_runs():
    runs = []
    for _ in range(2):
        report, timings = full_theorem_report(3)
        runs.append(report_mod.comparable_json(report_mod.envelope(report, timings)))
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


def test_cli_enum_cap_zero_rejected():
    # a zero cap used to fall back silently to the weaker transitivity mode
    proc = _run_cli("--genus", "3", "--checks", "modp", "--prime", "2", "--enum-cap", "0")
    assert proc.returncode == 2
    assert proc.stderr == "error: --enum-cap must be a positive integer, got 0\n"


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


def test_cli_negative_orbit_cap_rejected():
    proc = _run_cli("--genus", "4", "--checks", "theorem", "--orbit-cap", "-5")
    assert proc.returncode == 2
    assert proc.stderr == "error: --orbit-cap must be a positive integer, got -5\n"


def test_cli_non_integer_env_cap_rejected():
    proc = _run_cli("--genus", "3", "--checks", "modp", "--prime", "2",
                    MCGTORSION_ENUM_CAP="abc")
    assert proc.returncode == 2
    assert proc.stderr == "error: MCGTORSION_ENUM_CAP must be a positive integer, got 'abc'\n"


def test_cli_eval_word():
    proc = _run_cli("--genus", "3", "--eval", "Ta1 Tb1 Ta1")
    assert proc.returncode == 0
    assert "word: Ta1 Tb1 Ta1" in proc.stdout


def test_cli_eval_rejects_unknown_token():
    proc = _run_cli("--genus", "3", "--eval", "Bogus^2")
    assert proc.returncode == 2
    assert "token 1" in proc.stderr


def test_cli_orbit_cap_flag():
    proc = _run_cli("--genus", "4", "--checks", "theorem", "--orbit-cap", "5")
    assert proc.returncode == 1  # inconclusive orbit fails the run
    assert "RESULT: FAIL" in proc.stdout


def test_cli_witness_flag():
    proc = _run_cli("--genus", "3", "--checks", "theorem", "--witness",
                    "--output", "structured")
    assert proc.returncode == 0
    data = json.loads(proc.stdout)
    witnesses = data["report"]["checks"]["theorem"]["orbit"]["details"]["witnesses"]
    assert witnesses["a1"] == []
    assert any(witnesses.values())


def test_exit_status_reflects_verdicts():
    # a failing check must exit 1 and print the failing identity
    report, timings = full_theorem_report(4, checks={"theorem"}, orbit_cap=5)
    assert not report["passed"]
    text = report_mod.emit_text(report_mod.envelope(report, timings))
    assert "RESULT: FAIL" in text


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
        "schema": "mcgtorsion-report/1",
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
