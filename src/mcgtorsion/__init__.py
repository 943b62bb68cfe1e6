"""Exact symplectic verification of torsion generating sets for Mod(S_g).

The package realizes Dehn twists along the standard 3g-1 curves and a
small set of torsion mapping classes as integer symplectic matrices,
machine-checks the twist relations (commutation, braid, chain, lantern)
and the generation argument built from them, and emits deterministic
reports.  All verification happens in the homology representation.
"""

from .chain import StabilizerChain
from .curves import (
    IntersectionTable,
    NamedCurve,
    chain_configuration,
    lantern_configuration,
    lickorish_curves,
    lickorish_system,
    lickorish_table,
)
from .kernels import BACKEND, modp_closure
from .symplectic import (
    HomologyClass,
    SympMatrix,
    alpha,
    beta,
    element_order,
    identity,
    reduce_mod_p,
    symplectic_form,
    transvection,
    zero_class,
)
from .theorem import (
    OrbitSet,
    certificate_mode,
    full_theorem_report,
    lantern_assembly_check,
    lickorish_words,
    luo_decomposition_check,
    modp_subgroup_order,
    modp_transitivity,
    orbit_closure,
    property1_orbit_check,
    sp_modp_order,
)
from .torsion import (
    TorsionCertificate,
    build_f1,
    build_f2,
    build_f3,
    build_genus3_extras,
    conjugated_involution,
    theorem_generators,
)
from .words import (
    Verdict,
    check_braid,
    check_chain,
    check_commuting,
    check_conjugacy,
    check_lantern,
    evaluate,
    format_word,
    parse_word,
    relation_suite,
    twist_assignment,
)

__version__ = "0.1.0"
