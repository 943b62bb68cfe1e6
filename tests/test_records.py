"""The record classes: immutability, HomologyClass value semantics, and an
import of the CLI that stays clear of dataclasses, inspect and tempfile."""

import os
import subprocess
import sys

import pytest

from mcgtorsion import kernels
from mcgtorsion.curves import (
    chain_configuration,
    lantern_configuration,
    lickorish_system,
)
from mcgtorsion.symplectic import HomologyClass, alpha, reduce_mod_p
from mcgtorsion.theorem import OrbitSet, property1_orbit_check
from mcgtorsion.torsion import TorsionCertificate, build_f1
from mcgtorsion.words import Verdict

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def _records():
    g = 3
    twists = [reduce_mod_p(u.twist, 2) for u in lickorish_system(2).curves[:2]]
    return {
        "HomologyClass": alpha(1, g),
        "NamedCurve": lickorish_system(g).curves[0],
        "LickorishSystem": lickorish_system(g),
        "LanternConfig": lantern_configuration(g),
        "ChainConfig": chain_configuration(3, g),
        "TorsionCertificate": build_f1(g),
        "Verdict": Verdict("x", "pass"),
        "OrbitSet": property1_orbit_check(g)[1],
        "ClosureResult": kernels.modp_closure(twists, 2),
    }


@pytest.mark.parametrize("name", sorted(_records()))
def test_records_are_immutable(name):
    record = _records()[name]
    assert type(record).__name__ == name
    field = next(f for f in ("genus", "name", "check", "p") if hasattr(record, f))
    before = getattr(record, field)
    with pytest.raises(AttributeError):
        setattr(record, field, before)
    with pytest.raises(AttributeError):
        record.extra = 1
    with pytest.raises(AttributeError):
        delattr(record, field)
    assert getattr(record, field) is before
    assert not hasattr(record, "extra")


def test_homology_class_value_semantics():
    x = HomologyClass((1, 0, -2, 0), 2)
    y = HomologyClass([1, 0, -2, 0], 2)
    assert x == y and hash(x) == hash(y) and x is not y
    assert len({x, y, -x}) == 2
    assert x != HomologyClass((1, 0, -2, 1), 2)
    assert x != (1, 0, -2, 0)
    assert eval(repr(x)) == x
    assert all(type(v) is int for v in HomologyClass([True, 0], 1).coords)


def test_details_and_notes_default_to_fresh_dicts():
    a, b = Verdict("a", "pass"), Verdict("b", "pass")
    assert a.details == {} and a.details is not b.details
    m = build_f1(3).matrix
    c, d = TorsionCertificate("c", m, 2, {}), TorsionCertificate("d", m, 2, {})
    assert c.notes == {} and c.notes is not d.notes
    assert OrbitSet(3, frozenset(), 0, False).size == 0


def test_cli_import_skips_dataclasses_and_inspect():
    # tempfile (with random, shutil, bz2 and lzma) is loaded only by --out.
    # -S skips site-packages' .pth start-up hooks, which may import it themselves.
    code = ("import sys, mcgtorsion.cli; "
            "print(sorted({'dataclasses', 'inspect', 'tempfile'} & set(sys.modules)))")
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                          env=env, check=True)
    assert proc.stdout.strip() == "[]"
