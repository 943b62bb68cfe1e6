"""Command-line entry point.

Exit status: 0 when every selected check passes, 1 on a check failure,
2 on a usage or precondition error.
"""

from __future__ import annotations

import argparse
import gc
import os
import stat
import sys

from . import report as report_mod
from .theorem import CHECKS, alphabet, full_theorem_report
from .words import evaluate, format_word, parse_word


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """An argument parser whose errors are one `error:` line and exit 2."""

    def error(self, message):
        self.exit(2, f"error: {message}\n")


def _genus_help():
    """The least genus, then the checks of CHECKS that need more, by their min_genus."""
    needs = "; ".join(
        " and ".join(", ".join(n for n, c in CHECKS.items() if c.min_genus == k).rsplit(", ", 1))
        + f" need >= {k}" for k in sorted({c.min_genus for c in CHECKS.values()} - {2}))
    return f"surface genus, >= 2 ({needs})" if needs else "surface genus, >= 2"


def build_parser():
    parser = _Parser(
        prog="mcg-verify",
        description=(
            "Verify torsion generating sets of the genus-g mapping class group "
            "at the level of the integral symplectic representation."
        ),
    )
    parser.add_argument("--genus", type=int, required=True, help=_genus_help())
    parser.add_argument(
        "--checks",
        default=None,
        help=f"comma-separated subset of {','.join(CHECKS)} (default: all applicable)",
    )
    parser.add_argument("--prime", type=int, default=None,
                        help="small prime for the modp certificate")
    parser.add_argument("--witness", action="store_true",
                        help="record mod-p membership words (orbit words are always recorded)")
    parser.add_argument("--output", choices=("text", "structured"), default="text")
    parser.add_argument("--out", default=None, help="also write the report to this path")
    parser.add_argument("--eval", dest="eval_word", default=None, metavar="WORD",
                        help="evaluate a generator word (e.g. 'Ta1 F2 Ta1^-1') and print it")
    return parser


def _parse_checks(text):
    """The names in a --checks string, in order; full_theorem_report judges them."""
    if text is None:
        return None  # all applicable, resolved by full_theorem_report
    return [token.strip() for token in text.split(",") if token.strip()]


def _eval_word(g, text):
    letters = alphabet(g)
    word = parse_word(text, known=set(letters))
    matrix = evaluate(word, letters)
    lines = [f"word: {format_word(word)}"]
    lines += [" ".join(f"{x:4d}" for x in row) for row in matrix.rows]
    return "\n".join(lines) + "\n"


def _write_out(path, text):
    """Write text to path; a regular file is replaced atomically.

    A new or regular file (after following symlinks) is written to a temp
    file in its directory, synced and renamed over it, keeping the mode the
    file has or would get.  Anything else (a device, a FIFO) is written
    directly.  tempfile is imported here: it loads random, shutil, bz2
    and lzma, which only --out needs.
    """
    if not path:
        raise UsageError("cannot write --out '': empty path")
    import tempfile

    try:
        if os.path.exists(path) and not os.path.isfile(path):
            with open(path, "w") as fh:
                fh.write(text)
            return
        if os.path.exists(path):
            mode = stat.S_IMODE(os.stat(path).st_mode)
        else:
            umask = os.umask(0)
            os.umask(umask)
            mode = 0o666 & ~umask
        target = os.path.realpath(path)
        directory, name = os.path.split(target)
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=f".{name}.")
        try:
            with os.fdopen(fd, "w") as fh:
                os.fchmod(fh.fileno(), mode)
                fh.write(text)
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, target)
        except BaseException:
            os.unlink(tmp)
            raise
    except OSError as exc:
        raise UsageError(f"cannot write --out {path}: {exc.strerror or exc}")


def run(args):
    if args.eval_word is not None:
        report_flags = {"--checks": args.checks is not None, "--prime": args.prime is not None,
                        "--witness": args.witness, "--output structured": args.output == "structured",
                        "--out": args.out is not None}
        given = [flag for flag, on in report_flags.items() if on]
        if given:
            raise UsageError(f"--eval prints a matrix, not a report; drop {', '.join(given)}")
        try:
            sys.stdout.write(_eval_word(args.genus, args.eval_word))
        except ValueError as exc:
            raise UsageError(str(exc))
        return 0

    checks = _parse_checks(args.checks)
    try:
        report, timings = full_theorem_report(
            args.genus,
            prime=args.prime,
            with_witnesses=args.witness,
            checks=checks,
        )
    except ValueError as exc:
        raise UsageError(str(exc))

    env = report_mod.envelope(report, timings)
    text = (report_mod.emit_json(env) if args.output == "structured"
            else report_mod.emit_text(env))
    if args.out is not None:
        _write_out(args.out, text)
    sys.stdout.write(text)
    return 0 if report["passed"] else 1


def main(argv=None):
    # A run is one-shot, so the collector need not walk the import-time heap
    # again, neither during the run nor at shutdown.
    gc.freeze()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return run(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
