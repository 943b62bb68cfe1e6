"""Run one mcg-verify invocation with timing and counting wrappers on layer functions.

Usage: python perfbench/tracer.py TRACE_OUT CLI_ARG...

Drives `mcgtorsion.cli.main(CLI_ARGS)` exactly as `python -m mcgtorsion`
does, writes the CLI's output unchanged to stdout and exits with its status.
Before the call it replaces every reference to the functions in SPANS, in
every loaded mcgtorsion module, by a wrapper that records a span.  Spans
nest, and each span's self time is its duration minus the time covered by
spans it caused, so the self times of all keys add up to at most the
traced wall time.  The per-key totals and counters go to TRACE_OUT as JSON.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter


def _relations(stats, args, result, dt):
    stats["words.relations_count"] += len(result)


def _orbit(stats, args, result, dt):
    verdict, orbit = result
    stats["theorem.orbit_classes"] += orbit.size
    stats["theorem.orbit_depth"] += orbit.depth
    stats["theorem.orbit_inconclusive"] += verdict.status == "inconclusive"


def _transitivity(stats, args, result, dt):
    stats["theorem.transitivity_vectors"] += result.details["orbit_size"]


def _closure(stats, args, result, dt):
    stats["kernels.closure_states"] += result.size
    stats["closures"].append(
        {"gens": args[0], "p": result.p, "states": result.size, "seconds": dt})


def _emit(stats, args, result, dt):
    stats["report.bytes"] += len(result.encode())


# (module, function, span key, counter hook).  Times and call counts are
# kept per span key as "<key>_s" and "<key>_calls".
SPANS = (
    ("cli", "main", "cli.main", None),
    ("curves", "lickorish_system", "curves.solve", None),
    ("curves", "lantern_configuration", "curves.solve", None),
    ("curves", "chain_configuration", "curves.solve", None),
    ("torsion", "theorem_generators", "torsion.build", None),
    ("torsion", "build_f3", "torsion.build", None),
    ("torsion", "build_genus3_extras", "torsion.build", None),
    ("words", "relation_suite", "words.relations", _relations),
    ("symplectic", "mul_rows", "symplectic.mul", None),
    ("symplectic", "is_symplectic_rows", "symplectic.validate", None),
    ("theorem", "luo_decomposition_check", "theorem.replay", None),
    ("theorem", "lantern_assembly_check", "theorem.replay", None),
    ("theorem", "property1_orbit_check", "theorem.orbit", _orbit),
    ("theorem", "modp_certificate", "theorem.modp", None),
    ("theorem", "modp_transitivity", "theorem.transitivity", _transitivity),
    ("kernels", "modp_closure", "kernels.closure", _closure),
    ("report", "emit_json", "report.emit", _emit),
)


class Tracer:
    def __init__(self):
        self.stats = {"closures": [], "missing": []}
        for _, _, key, _ in SPANS:
            self.stats[f"{key}_s"] = 0.0
            self.stats[f"{key}_calls"] = 0
        for name in ("words.relations_count", "theorem.orbit_classes",
                     "theorem.orbit_depth", "theorem.orbit_inconclusive",
                     "theorem.transitivity_vectors", "kernels.closure_states",
                     "report.bytes"):
            self.stats[name] = 0
        # child time of the open spans; the bottom entry stands for the caller
        self._child = [0.0]

    def wrap(self, fn, key, hook):
        stats, child = self.stats, self._child
        key_s, key_calls = f"{key}_s", f"{key}_calls"

        def wrapper(*args, **kwargs):
            child.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stats[key_s] += dt - child.pop()
                stats[key_calls] += 1
                child[-1] += dt
            if hook is not None:
                hook(stats, args, result, dt)
            return result

        return wrapper

    def install(self):
        """Replace each traced function wherever an mcgtorsion module refers to it."""
        modules = [m for name, m in sys.modules.items()
                   if name == "mcgtorsion" or name.startswith("mcgtorsion.")]
        for module_name, fn_name, key, hook in SPANS:
            original = getattr(sys.modules.get(f"mcgtorsion.{module_name}"), fn_name, None)
            if original is None:
                self.stats["missing"].append(f"{module_name}.{fn_name}")
                continue
            wrapper = self.wrap(original, key, hook)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)


def _label_closures(closures):
    """Name the Sp(6,2) closures by comparing their inputs with the g=3 generator sets."""
    if not closures:
        return
    from mcgtorsion.curves import lickorish_system
    from mcgtorsion.symplectic import reduce_mod_p
    from mcgtorsion.torsion import theorem_generators

    known = {
        "sp6_torsion": [c.matrix for c in theorem_generators(3)],
        "sp6_twists": [u.twist for u in lickorish_system(3).curves],
    }
    labels = {name: frozenset(reduce_mod_p(m, 2) for m in mats)
              for name, mats in known.items()}
    for c in closures:
        gens = frozenset(tuple(tuple(x % 2 for x in row) for row in g) for g in c.pop("gens"))
        c["label"] = next((name for name, s in labels.items() if c["p"] == 2 and s == gens),
                          None)


def main():
    trace_out, argv = sys.argv[1], sys.argv[2:]
    t0 = perf_counter()
    import mcgtorsion.cli

    import_s = perf_counter() - t0
    tracer = Tracer()
    tracer.install()
    code = mcgtorsion.cli.main(argv)
    sys.stdout.flush()
    # copy before labelling, whose own calls go through the wrappers
    stats = dict(tracer.stats, **{"cli.import_s": import_s})
    _label_closures(stats["closures"])
    with open(trace_out, "w") as fh:
        json.dump(stats, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
