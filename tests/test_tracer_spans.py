"""The benchmark tracer wraps package functions by name; every name it lists must exist."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def test_every_traced_span_resolves_in_the_package():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.SPANS
    missing = []
    for module_name, fn_name, _, _ in tracer.SPANS:
        module = importlib.import_module(f"mcgtorsion.{module_name}")
        if not callable(getattr(module, fn_name, None)):
            missing.append(f"{module_name}.{fn_name}")
    assert not missing
    keys = {key for _, _, key, _ in tracer.SPANS}
    assert {"symplectic.mul", "symplectic.validate"} <= keys
