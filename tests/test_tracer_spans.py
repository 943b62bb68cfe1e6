"""The benchmark tracer wraps package functions by name; every name it lists must
exist, and a CLI run must reach every span it wraps."""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TRACER = ROOT / "perfbench" / "tracer.py"


def tracer_spans():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.SPANS


def test_every_traced_span_resolves_in_the_package():
    spans = tracer_spans()
    assert spans
    missing = []
    for module_name, fn_name, _, _ in spans:
        module = importlib.import_module(f"mcgtorsion.{module_name}")
        if not callable(getattr(module, fn_name, None)):
            missing.append(f"{module_name}.{fn_name}")
    assert not missing
    keys = {key for _, _, key, _ in spans}
    assert {"symplectic.mul", "symplectic.validate"} <= keys


def _traced_run(tmp_path, name, *args):
    out = tmp_path / f"{name}.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run([sys.executable, str(TRACER), str(out), *args],
                          capture_output=True, text=True, env=env, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    return json.loads(out.read_text())


def test_every_traced_span_is_reached_by_a_cli_run(tmp_path):
    # a wrapper the package bypasses (a name bound at import time, or a call
    # not made through the module global) would read 0 calls and fail nothing
    runs = [
        _traced_run(tmp_path, "default", "--genus", "3", "--prime", "2",
                    "--output", "structured"),
        _traced_run(tmp_path, "transitivity", "--genus", "4", "--checks", "modp",
                    "--prime", "2", "--output", "structured"),
    ]
    assert [run["missing"] for run in runs] == [[], []]
    # the closure is the tests' enumeration oracle, which no CLI path runs
    keys = {key for _, _, key, _ in tracer_spans()} - {"kernels.closure"}
    unreached = sorted(key for key in keys if not any(run[f"{key}_calls"] for run in runs))
    assert unreached == []
