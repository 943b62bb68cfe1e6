"""Verification benchmark for mcg-verify.

Usage:
  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --workload all        # both workloads, one after the other

Runs the CLI of the `src` tree beside this directory, never an installed
copy, as `python -m mcgtorsion --genus g ... --output structured`: one fresh
process per genus, one process at a time (closed loop, one client), with the
genera in an order shuffled from --seed.  One pass over a workload's genera
is a sweep.  A run sweeps at least once, and again while less than
--seconds have passed since the first sweep began.  The last line of stdout
is one JSON object {"correct", "attempted", "failed", "metrics"}.

An op is one (genus, check) verdict.  An op fails unless its check passed:
a failed or inconclusive verdict, a crash and a timeout all count, and an
exit status of 1 with a parseable report is a failed op, not a crash.
Every report is checked against values computed here (see checks.py), and
`correct` is false when any check or its negative control does not hold.

--trace 0 reports the end-to-end metrics:
  verify_s            wall seconds of a CLI process, spawn to exit, summed over
                      the genera (per genus, the median over the run's sweeps)
  verify_cpu_s        user+sys CPU seconds from os.wait4, summed the same way
  setup_s             per genus, the median over SETUP_REPEATS fresh processes
                      that import mcgtorsion and build the curve system, lantern
                      and torsion generators, spawn to exit; summed over genera
  peak_rss_mib        largest max-RSS of any CLI process in the run
  checks_passed_frac  ops passed over ops attempted (its complement,
                      checks_failed_frac, is printed beside it; a fraction that
                      is 0 on some workload cannot carry a relative bound)
--trace 1 runs every genus once untraced and then once traced
(perfbench/tracer.py), and reports per-layer self times and counters summed
over the genera, plus the tracing overhead (traced minus untraced wall time).
Traced reports must be byte-identical to untraced ones.

Before any timed process, one untimed warm-up process compiles the package's
bytecode and records the environment (backend, Python, cores, commit), which
is printed on the line starting with "env".
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import random
import select
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import checks

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TRACER = Path(__file__).resolve().parent / "tracer.py"
# Settings that would change or hide what a workload does, or undo the warm-up;
# children never see them.
SCRUBBED_ENV = ("MCGTORSION_ORBIT_CAP", "MCGTORSION_ENUM_CAP", "MCGTORSION_PURE",
                "PYTHONDONTWRITEBYTECODE")
SETUP_REPEATS = 3
# A run must end within 180 s; processes still running at this point are killed.
RUN_DEADLINE_S = 165.0


@dataclass(frozen=True)
class Workload:
    genera: tuple
    args: tuple
    checks: tuple


# Why each workload exists is recorded in BENCHMARK.json.  On a 2-core machine
# one sweep takes 22-31 s (ladder-default) and 36-63 s (modp2-ladder).
WORKLOADS = {
    "ladder-default": Workload((3, 4, 6, 8, 12, 16), (), ("relations", "torsion", "theorem")),
    "modp2-ladder": Workload((3, 4, 6, 8), ("--checks", "modp", "--prime", "2"), ("modp",)),
}

END_TO_END_UNITS = {
    "verify_s": "s",
    "verify_cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
    "checks_passed_frac": "fraction",
}

# Self times ("_s") of the tracer's span keys, and its counters, summed over genera.
SUMMED_LAYER_UNITS = {
    "cli.import_s": "s",
    "cli.main_s": "s",
    "curves.solve_s": "s",
    "torsion.build_s": "s",
    "words.relations_s": "s",
    "words.relations_count": "count",
    "symplectic.mul_calls": "count",
    "symplectic.mul_s": "s",
    "symplectic.validate_calls": "count",
    "symplectic.validate_s": "s",
    "theorem.replay_s": "s",
    "theorem.orbit_s": "s",
    "theorem.orbit_classes": "count",
    "theorem.orbit_depth": "count",
    "theorem.orbit_inconclusive": "count",
    "theorem.modp_s": "s",
    "theorem.transitivity_s": "s",
    "theorem.transitivity_vectors": "count",
    "kernels.closure_calls": "count",
    "kernels.closure_states": "count",
    "kernels.closure_s": "s",
    "report.emit_s": "s",
    "report.bytes": "bytes",
}
DERIVED_LAYER_UNITS = {
    "kernels.states_per_s": "1/s",
    "kernels.sp6_torsion_states_per_s": "1/s",
    "kernels.sp6_twists_states_per_s": "1/s",
    "trace.overhead_s": "s",
}

SETUP_CODE = (
    "import sys, mcgtorsion as m; g = int(sys.argv[1]); "
    "m.lickorish_system(g); m.lantern_configuration(g); m.theorem_generators(g)"
)
WARMUP_CODE = """
import compileall, json, platform, sys
compileall.compile_dir(sys.argv[1], quiet=1)
import mcgtorsion, mcgtorsion.cli, mcgtorsion.kernels
print(json.dumps({"file": mcgtorsion.__file__, "backend": mcgtorsion.BACKEND,
                  "speedups_imported": mcgtorsion.kernels._speedups is not None,
                  "python": platform.python_version()}))
"""


class BenchmarkError(Exception):
    """The benchmark cannot run here; it exits without printing a result."""


@dataclass
class Proc:
    code: int | None  # exit status; None when killed at the deadline
    wall: float
    cpu: float
    rss_mib: float
    out: bytes
    err: bytes


def child_env():
    env = {k: v for k, v in os.environ.items() if k not in SCRUBBED_ENV}
    env["PYTHONPATH"] = str(SRC)
    return env


def spawn(argv, deadline, tmpdir):
    """Run argv to exit; wall time is spawn to exit, CPU and max-RSS come from wait4."""
    with tempfile.TemporaryFile(dir=tmpdir) as out, tempfile.TemporaryFile(dir=tmpdir) as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=child_env(), cwd=ROOT)
        pidfd = os.pidfd_open(proc.pid)
        try:
            timeout = max(0.0, deadline - time.perf_counter())
            timed_out = not select.select([pidfd], [], [], timeout)[0]
            if timed_out:
                signal.pidfd_send_signal(pidfd, signal.SIGKILL)
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            with contextlib.suppress(ProcessLookupError, ChildProcessError):
                signal.pidfd_send_signal(pidfd, signal.SIGKILL)
                os.wait4(proc.pid, 0)
            raise
        finally:
            os.close(pidfd)
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return Proc(None if timed_out else proc.returncode, wall,
                    usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024,
                    out.read(), err.read())


def tail(data, lines=5):
    return "\n".join(data.decode(errors="replace").splitlines()[-lines:])


def git_commit():
    try:
        top, head = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT, check=True,
            capture_output=True, text=True, timeout=30).stdout.split()
    except (OSError, ValueError, subprocess.SubprocessError):
        return None
    return head if Path(top).resolve() == ROOT else None


def src_digest():
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def warm_up(tmpdir, deadline):
    """Untimed: compile bytecode, check that the src tree is what runs, record the environment."""
    if not (SRC / "mcgtorsion" / "__init__.py").is_file():
        raise BenchmarkError(f"no package at {SRC / 'mcgtorsion'}")
    proc = spawn([sys.executable, "-c", WARMUP_CODE, str(SRC / "mcgtorsion")], deadline, tmpdir)
    if proc.code != 0:
        raise BenchmarkError(f"warm-up failed ({proc.code}):\n{tail(proc.err)}")
    record = json.loads(proc.out.decode().splitlines()[-1])
    if Path(record.pop("file")).resolve().parent != SRC / "mcgtorsion":
        raise BenchmarkError("mcgtorsion was not imported from the src tree")
    record.update(nproc=len(os.sched_getaffinity(0)), git_commit=git_commit(),
                  src_sha256=src_digest())
    return record


class Ledger:
    """Op accounting and output checks across every CLI process of a run."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.digests = {}
        self.tampered = 0

    def record(self, g, proc, what="CLI"):
        wl = self.workload
        self.attempted += len(wl.checks)
        report = None
        if proc.code in (0, 1):
            with contextlib.suppress(ValueError, KeyError, TypeError):
                report = json.loads(proc.out)["report"]
        if not isinstance(report, dict):
            self.failed += len(wl.checks)
            print(f"g={g}: {what} crashed or timed out (exit {proc.code}):\n{tail(proc.err)}",
                  file=sys.stderr)
            return
        sections = report.get("checks", {})
        self.failed += sum(sections.get(c, {}).get("passed") is not True for c in wl.checks)
        problems = checks.report_problems(g, wl.checks, proc.code, report)
        self.problems += [f"g={g} {what}: {p}" for p in problems]
        digest = checks.report_digest(report)
        if g not in self.digests:
            self.digests[g] = digest
            if not problems:
                tried, missed = checks.negative_control(g, wl.checks, proc.code, report)
                self.tampered += tried
                self.problems += [f"g={g}: tampered {m} was not rejected" for m in missed]
        elif self.digests[g] != digest:
            self.problems.append(f"g={g} {what}: report differs from an earlier process")


def sweep(workload, order, ledger, tmpdir, deadline, traced=False):
    """One process per genus in order; returns {g: (Proc, trace stats or None)}."""
    results = {}
    for g in order:
        cli_args = ["--genus", str(g), *workload.args, "--output", "structured"]
        if traced:
            trace_path = Path(tmpdir) / f"trace-{g}.json"
            proc = spawn([sys.executable, str(TRACER), str(trace_path), *cli_args],
                         deadline, tmpdir)
            stats = json.loads(trace_path.read_text()) if trace_path.exists() else None
        else:
            proc = spawn([sys.executable, "-m", "mcgtorsion", *cli_args], deadline, tmpdir)
            stats = None
        ledger.record(g, proc, "traced CLI" if traced else "CLI")
        results[g] = (proc, stats)
    return results


def measure_end_to_end(workload, shuffled, ledger, seconds, tmpdir, deadline):
    setups = {g: [] for g in workload.genera}

    def set_up():
        for g in shuffled():
            proc = spawn([sys.executable, "-c", SETUP_CODE, str(g)], deadline, tmpdir)
            if proc.code != 0:
                ledger.problems.append(f"g={g}: set-up exited {proc.code}: {tail(proc.err)}")
            setups[g].append(proc.wall)

    # one set-up before the sweeps and the rest after, so that the median
    # per genus draws on more than one stretch of the machine's load
    set_up()
    procs = {g: [] for g in workload.genera}
    sweeps = 0
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        for g, (proc, _) in sweep(workload, shuffled(), ledger, tmpdir, deadline).items():
            procs[g].append(proc)
        sweeps += 1
        now = time.perf_counter()
        if now - start >= seconds or now + (now - t0) > deadline:
            break
    for _ in range(SETUP_REPEATS - 1):
        set_up()
    print(f"sweeps: {sweeps}, set-ups: {SETUP_REPEATS}")
    return {
        "verify_s": sum(statistics.median(p.wall for p in ps) for ps in procs.values()),
        "verify_cpu_s": sum(statistics.median(p.cpu for p in ps) for ps in procs.values()),
        "setup_s": sum(statistics.median(ts) for ts in setups.values()),
        "peak_rss_mib": max(p.rss_mib for ps in procs.values() for p in ps),
        "checks_passed_frac": (ledger.attempted - ledger.failed) / ledger.attempted,
    }


def measure_per_layer(workload, shuffled, ledger, tmpdir, deadline):
    # untraced and traced processes of a genus run back to back, so that both
    # meet the same load on the machine and their difference is the overhead
    plain, traced = {}, {}
    for g in shuffled():
        plain.update(sweep(workload, [g], ledger, tmpdir, deadline))
        traced.update(sweep(workload, [g], ledger, tmpdir, deadline, traced=True))
    stats = [s for _, s in traced.values() if s is not None]
    missing = sorted({name for s in stats for name in s["missing"]})
    if missing:
        print(f"trace: not found, so not traced: {', '.join(missing)}")
    metrics = {name: sum(s[name] for s in stats) for name in SUMMED_LAYER_UNITS}
    closures = [c for s in stats for c in s["closures"]]

    def rate(label=None):
        chosen = [c for c in closures if label is None or c["label"] == label]
        seconds = sum(c["seconds"] for c in chosen)
        return sum(c["states"] for c in chosen) / seconds if seconds > 0 else 0.0

    metrics["kernels.states_per_s"] = rate()
    metrics["kernels.sp6_torsion_states_per_s"] = rate("sp6_torsion")
    metrics["kernels.sp6_twists_states_per_s"] = rate("sp6_twists")
    metrics["trace.overhead_s"] = (sum(p.wall for p, _ in traced.values())
                                   - sum(p.wall for p, _ in plain.values()))
    return metrics


def run_workload(name, seed, seconds, trace):
    """Measure one workload; returns (metrics with units, ledger)."""
    workload = WORKLOADS[name]
    deadline = time.perf_counter() + RUN_DEADLINE_S
    rng = random.Random(seed)

    def shuffled():
        order = list(workload.genera)
        rng.shuffle(order)
        return order

    ledger = Ledger(workload)
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmpdir:
        env = warm_up(tmpdir, deadline)
        print("env " + json.dumps(env, sort_keys=True))
        if trace:
            values = measure_per_layer(workload, shuffled, ledger, tmpdir, deadline)
            units = {**SUMMED_LAYER_UNITS, **DERIVED_LAYER_UNITS}
        else:
            values = measure_end_to_end(workload, shuffled, ledger, seconds, tmpdir, deadline)
            units = END_TO_END_UNITS
    metrics = {k: {"value": values[k], "unit": units[k]} for k in units}

    print(f"workload {name}  seed {seed}  trace {trace}")
    for key, m in metrics.items():
        print(f"  {key:<36} {m['value']:>16.6f} {m['unit']}")
    print(f"  ops attempted {ledger.attempted}, failed {ledger.failed}, "
          f"checks_failed_frac {ledger.failed / ledger.attempted:.4f}")
    print(f"  reports checked byte-stable across {len(ledger.digests)} genera; "
          f"negative control: {ledger.tampered} tampered copies")
    for problem in ledger.problems:
        print(f"  CHECK FAILED: {problem}")
    return metrics, ledger


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        runs = {name: run_workload(name, args.seed, args.seconds, args.trace) for name in names}
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.workload == "all":
        metrics = {f"{name}/{key}": m for name, (ms, _) in runs.items() for key, m in ms.items()}
    else:
        metrics = runs[args.workload][0]
    ledgers = [ledger for _, ledger in runs.values()]
    print(json.dumps({
        "correct": not any(ledger.problems for ledger in ledgers),
        "attempted": sum(ledger.attempted for ledger in ledgers),
        "failed": sum(ledger.failed for ledger in ledgers),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
