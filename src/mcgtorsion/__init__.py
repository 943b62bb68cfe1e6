"""Exact symplectic verification of torsion generating sets for Mod(S_g).

The package realizes Dehn twists along the standard 3g-1 curves and a
small set of torsion mapping classes as integer symplectic matrices,
machine-checks the twist relations (commutation, braid, chain, lantern)
and the generation argument built from them, and emits deterministic
reports.  All verification happens in the homology representation.
The CLI is `mcg-verify` (`python -m mcgtorsion`); the other modules are
imported by name.
"""

# perfbench/run.py's set-up processes and warm-up read these four names.
from .curves import lantern_configuration, lickorish_system
from .kernels import BACKEND
from .torsion import theorem_generators
