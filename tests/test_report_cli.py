import gc
import json
import os
import re
import subprocess
import sys
import time

import pytest

from conftest import comparable_json, ident, mm, swap_generator
from mcgtorsion import cli, theorem
from mcgtorsion import report as report_mod
from mcgtorsion.symplectic import identity
from mcgtorsion.theorem import full_theorem_report
from mcgtorsion.torsion import _signed_perm, build_f1, sigma_matrix

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


@pytest.mark.parametrize("checks, message", [
    (set(), "no checks selected"),
    ([], "no checks selected"),
    ({"bogus"}, f"unknown check 'bogus'; choose from {theorem.CHECK_NAMES}"),
    (["relations", "bogus", "nonsense"],
     f"unknown check 'bogus'; choose from {theorem.CHECK_NAMES}"),
])
def test_full_theorem_report_owns_the_check_set(checks, message, monkeypatch):
    def no_check(*args, **kwargs):
        raise AssertionError("a check ran before the check set was judged")

    monkeypatch.setattr(theorem, "relation_suite", no_check)
    with pytest.raises(ValueError) as exc:
        full_theorem_report(4, checks=checks)
    assert str(exc.value) == message
    # the check set is judged before the genus
    with pytest.raises(ValueError, match="check"):
        full_theorem_report(1, checks=checks)


@pytest.mark.parametrize("text, message", [
    ("bogus", f"error: unknown check 'bogus'; choose from {theorem.CHECK_NAMES}"),
    ("theorem, bogus,nonsense", f"error: unknown check 'bogus'; choose from {theorem.CHECK_NAMES}"),
    (",", "error: no checks selected"),
    (" , ", "error: no checks selected"),
])
def test_cli_check_set_errors_are_one_line(text, message):
    proc = _run_cli("--genus", "4", "--checks", text)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.splitlines() == [message]


def test_cli_main_freezes_the_start_up_heap(capsys):
    # kept for speed: without gc.freeze() the benchmark's verify_s rose by
    # 11-17 % on both workloads (README, Command line)
    gc.unfreeze()
    try:
        assert cli.main(["--genus", "3", "--checks", "relations"]) == 0
        assert gc.get_freeze_count() > 0
    finally:
        gc.unfreeze()
    assert "RESULT: PASS" in capsys.readouterr().out


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
    g, p = args[1], args[-1]
    t0 = time.perf_counter()
    proc = _run_cli(*args)
    elapsed = time.perf_counter() - t0
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert len(proc.stderr.splitlines()) == 1
    assert proc.stderr.startswith(f"error: no mod-{p} certificate at genus {g}: ")
    assert elapsed < 1.5, f"rejection took {elapsed:.2f}s"


@pytest.mark.parametrize("p", (0, 1, 4, -2, 5, 7, 11, 13))
def test_prime_outside_small_primes_is_rejected_in_one_place(p):
    # full_theorem_report and the CLI give the same message, from one rule
    # (certificate_mode), for primes and non-primes alike
    message = (f"no mod-{p} certificate at genus 3: exact order needs p = 2 with "
               "|Sp(6,2)| <= 2000000, and transitivity needs p in (2, 3) "
               "with p^6-1 <= 2000000")
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


@pytest.mark.parametrize("g, text", [(3, "F1 F2 F3"), (4, "F1 F2 F3"), (3, "Sigma")])
def test_cli_eval_reads_generators_by_name(g, text):
    # F1, F2 and F3 are the generators the report names f1, f2 and f3
    gens = {c.name: c.matrix.to_lists() for c in theorem.theorem_generators(g)}
    gens["sigma"] = sigma_matrix().to_lists()
    product = ident(2 * g)
    for letter in text.split():
        product = mm(product, gens[letter.lower()])
    proc = _run_cli("--genus", str(g), "--eval", text)
    assert proc.returncode == 0
    want = [f"word: {text}"] + [" ".join(f"{x:4d}" for x in row) for row in product]
    assert proc.stdout.splitlines() == want


@pytest.mark.parametrize("g", (3, 4))
@pytest.mark.parametrize("lhs, rhs", [
    ("Ta2 Ta1^-1", "F2 F4"),  # Luo
    ("F4^2", "<empty>"),
    ("Tc1", "(Ta2 Ta1^-1) (F3 Ta2 Ta1^-1 F3^-1) (F3^2 Ta2 Ta1^-1 F3^-2)"),  # lantern assembly
    ("Tc1", "(F2 F4 F3)^3"),
    ("Tb1 Tc1 Tb1", "Tc1 Tb1 Tc1"),  # a braid and a commutation, as relations print them
    ("Ta1 Ta2", "Ta2 Ta1"),
    ("(Ta1 Tb1 Tc1)^4", "Ta2^2"),  # the 3-chain, whose boundary pair is +/-a2
])
def test_cli_eval_replays_printed_identities(capsys, g, lhs, rhs):
    # --eval reads each word the theorem section and the pairwise relations
    # print, and both sides of each identity print one matrix
    matrices = []
    for text in (lhs, rhs):
        assert cli.main(["--genus", str(g), "--eval", text]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == f"word: {text}"
        matrices.append(out[1:])
    assert matrices[0] == matrices[1]


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
    # rejected by words.parse_word: an unmatched ')', an unclosed '(', a zero group power
    ("--genus", "3", "--eval", "Ta1 Tb1)"),
    ("--genus", "3", "--eval", "(Ta1 Tb1"),
    ("--genus", "3", "--eval", "(Ta1 Tb1)^0"),
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
    swap_generator(monkeypatch, 4, "f3", matrix=identity(4))
    assert cli.main(["--genus", "4", "--checks", "theorem"]) == 1
    text = capsys.readouterr().out
    assert "orbit(g=4): fail" in text
    assert "4 of 11 curves reached" in text
    assert "missing: b1, b2, b3, b4, c1, c2, c3" in text
    assert "RESULT: FAIL" in text


def test_f2f1_order_failure_fails_the_torsion_verdict(monkeypatch, capsys):
    # with f2 replaced by f1 every claimed order holds, but f2 f1 = I has order 1;
    # the failed verdicts are row f2-is-f1 of tests/test_controls.py
    swap_generator(monkeypatch, 4, "f2", matrix=build_f1(4).matrix)
    assert cli.main(["--genus", "4", "--checks", "torsion"]) == 1
    text = capsys.readouterr().out
    assert "[torsion] FAIL: 4 generators, order(f2*f1) = 1" in text
    assert "order not as claimed" not in text


@pytest.mark.parametrize("g", (4, 5, 7))
def test_shift_by_three_fails_the_orbit_and_luo_verdicts(monkeypatch, capsys, g):
    # f2 sending handle i to 3-i is an involution, and f2 f1 is then the shift
    # by 3, which still has order g: the torsion verdict passes, while the
    # orbit words (powers of f2 f1) and the Luo identity catch the wrong shift
    # (row f2-shifts-by-3 of tests/test_controls.py)
    swap_generator(monkeypatch, g, "f2", matrix=_signed_perm(g, lambda i: 3 - i, -1))
    assert cli.main(["--genus", str(g), "--output", "structured"]) == 1
    section = json.loads(capsys.readouterr().out)["report"]["checks"]["theorem"]
    assert "a2" in section["orbit"]["details"]["missing"]
    # the text report prints the failing Luo identity's sides, and the right
    # side, which has no word, as its matrix alone
    assert cli.main(["--genus", str(g)]) == 1
    text = capsys.readouterr().out
    lines = text.splitlines()
    assert any(line.startswith("    lhs: Ta2 Ta1^-1 = [[") for line in lines)
    assert any(line.startswith("    rhs: [[") for line in lines)
    assert "None" not in text


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
