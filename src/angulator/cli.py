"""Command-line front end.

Subcommands: mutate, flip, quiver, enumerate, verify, validate.  Models are
exchanged as JSON (see README for the schemas); DOT is output-only.  Exit
statuses: 0 success, 1 verification failure, 2 malformed JSON or bad usage,
3 invalid model, 4 index out of range, 5 enumeration guard exceeded.
The ANGULATOR_GUARD environment variable overrides the enumeration guard.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import sys

from . import annulus as ann
from . import disk
from .disk import DEFAULT_GUARD, DiskConfig, GuardExceeded, InvalidAngulation
from .quiver import ColoredQuiver, VertexRangeError
from .verify import run_suite

EXIT_BAD_JSON = 2
EXIT_INVALID = 3
EXIT_RANGE = 4
EXIT_GUARD = 5


class CliError(Exception):
    def __init__(self, code, message):
        super().__init__(message)
        self.code = code


def _read_input(spec: str) -> dict:
    """Load a JSON object from '-' (stdin), an inline object, or a file path."""
    try:
        if spec == "-":
            data = json.load(sys.stdin)
        elif spec.lstrip().startswith("{"):
            data = json.loads(spec)
        else:
            with open(spec) as handle:
                data = json.load(handle)
    # ValueError covers malformed JSON, undecodable bytes and over-long
    # numbers; RecursionError, nesting too deep for the decoder
    except (ValueError, OSError, RecursionError) as exc:
        raise CliError(EXIT_BAD_JSON, f"cannot read input: {exc}")
    if not isinstance(data, dict):
        raise CliError(EXIT_BAD_JSON,
                       f"expected a JSON object, got {type(data).__name__}")
    return data


def _dump(data: dict) -> str:
    return json.dumps(data, sort_keys=True, indent=2)


def _load_quiver(data: dict) -> ColoredQuiver:
    try:
        quiver = ColoredQuiver.from_json_dict(data)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise CliError(EXIT_BAD_JSON, f"malformed quiver JSON: {exc}")
    problems = quiver.validate()
    if problems:
        raise CliError(
            EXIT_INVALID,
            "invalid quiver: " + "; ".join(map(str, problems)),
        )
    return quiver


def _load_angulation(data: dict):
    kind = data.get("type")
    try:
        if kind == "disk":
            angulation = disk.DiskAngulation.from_json_dict(data)
        elif kind == "annulus":
            angulation = ann.AnnulusAngulation.from_json_dict(data)
        else:
            raise CliError(EXIT_BAD_JSON, f"unknown model type {kind!r}")
    except CliError:
        raise
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise CliError(EXIT_BAD_JSON, f"malformed angulation JSON: {exc}")
    try:
        problems = angulation.violations()
    except IndexError as exc:  # a boundary vertex beyond the polygon
        raise CliError(EXIT_RANGE, str(exc))
    if problems:
        raise CliError(EXIT_INVALID, "invalid angulation: " + "; ".join(problems))
    return angulation


def cmd_mutate(args) -> int:
    quiver = _load_quiver(_read_input(args.input))
    try:
        if args.inverse:
            result = quiver.mutate_inverse(args.vertex)
        elif args.procedural:
            result = quiver.mutate_procedural(args.vertex)
        else:
            result = quiver.mutate(args.vertex)
    except VertexRangeError as exc:
        raise CliError(EXIT_RANGE, str(exc))
    if args.format == "dot":
        print(result.to_dot())
    else:
        print(_dump(result.to_json_dict()))
    return 0


def cmd_flip(args) -> int:
    angulation = _load_angulation(_read_input(args.input))
    arcs = angulation.arcs
    if not arcs:
        raise CliError(EXIT_RANGE, f"arc index {args.arc}: the angulation has no arcs")
    if not (0 <= args.arc < len(arcs)):
        raise CliError(EXIT_RANGE, f"arc index {args.arc} outside 0..{len(arcs) - 1}")
    try:
        flipped = angulation.flip(arcs[args.arc])
    except ann.UnsupportedFlip as exc:
        raise CliError(EXIT_INVALID, str(exc))
    print(_dump(flipped.to_json_dict()))
    return 0


def cmd_quiver(args) -> int:
    angulation = _load_angulation(_read_input(args.input))
    quiver = angulation.quiver_of()
    if args.format == "dot":
        print(quiver.to_dot())
    else:
        print(_dump(quiver.to_json_dict()))
    return 0


def cmd_validate(args) -> int:
    data = _read_input(args.input)
    if "arrows" in data:
        _load_quiver(data)
    else:
        _load_angulation(data)
    print("valid")
    return 0


def cmd_enumerate(args) -> int:
    try:
        cfg = DiskConfig(args.m, args.sides)
    except ValueError as exc:
        raise CliError(EXIT_BAD_JSON, str(exc))
    with _open_output(args.dot, "DOT") as dot:
        count, _ = disk.enumerate_angulations(cfg, guard=args.guard)
        print(count)
        if dot is not None:
            graph = disk.flip_graph(cfg, guard=args.guard)
            dot.write(graph.to_dot() + "\n")
    return 0


def _open_output(path: str | None, what: str):
    """``path`` opened for writing, or a context of None without a path.
    A command opens it before its work, so that an unwritable path exits 2
    before anything is computed or printed."""
    if not path:
        return contextlib.nullcontext()
    try:
        return open(path, "w")
    except OSError as exc:
        raise CliError(EXIT_BAD_JSON, f"cannot write {what}: {exc}")


def cmd_verify(args) -> int:
    with _open_output(args.timings, "timings") as timings:
        try:
            reports = run_suite(
                args.suite, seed=args.seed, steps=args.steps, guard=args.guard
            )
        except ValueError as exc:
            raise CliError(EXIT_BAD_JSON, str(exc))
        if timings is not None:
            entries = [
                {"suite": r.suite, "cases": r.cases, "elapsed": r.elapsed}
                for r in reports
            ]
            json.dump(entries, timings, sort_keys=True, indent=2)
    payload = [r.to_json_dict(include_elapsed=False) for r in reports]
    print(_dump({"suite": args.suite, "reports": payload}))
    return 0 if all(r.passed for r in reports) else 1


def _count(text: str) -> int:
    """A non-negative integer option value."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(
            f"expected a non-negative integer, got {text!r}"
        )
    return value


@functools.lru_cache(maxsize=1)
def build_parser(guard: str) -> argparse.ArgumentParser:
    """The parser for one ANGULATOR_GUARD string, kept while the value
    stays the same, so repeated in-process ``main`` calls (the CLI tests,
    a script driving the CLI) build it once.  ``parse_args`` keeps no
    state in it, and ``main`` dispatches the subcommands by name, so it
    holds no command functions either."""
    # a string default goes through _count only when the option is absent,
    # so a malformed ANGULATOR_GUARD is a usage error of the command using it
    guard_help = "enumeration guard (default: $ANGULATOR_GUARD, else 12)"
    parser = argparse.ArgumentParser(
        prog="angulator",
        description="Colored quiver mutation and (m+2)-angulation models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("mutate", help="mutate a colored quiver at a vertex")
    p.add_argument("input", help="path, inline JSON, or - for stdin")
    p.add_argument("-k", "--vertex", type=int, required=True)
    how = p.add_mutually_exclusive_group()
    how.add_argument("--inverse", action="store_true")
    how.add_argument("--procedural", action="store_true")
    p.add_argument("--format", choices=("json", "dot"), default="json")

    p = sub.add_parser("flip", help="flip an angulation at an arc index")
    p.add_argument("input")
    p.add_argument("--arc", type=int, required=True,
                   help="index into the canonical arc order")

    p = sub.add_parser("quiver", help="colored quiver of an angulation")
    p.add_argument("input")
    p.add_argument("--format", choices=("json", "dot"), default="json")

    p = sub.add_parser("validate", help="check a quiver or angulation JSON")
    p.add_argument("input")

    p = sub.add_parser("enumerate", help="count disk angulations")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--sides", type=int, required=True)
    p.add_argument("--dot", help="write the flip graph as DOT to this path")
    p.add_argument("--guard", type=_count, default=guard, help=guard_help)

    p = sub.add_parser("verify", help="run theorem-checking suites")
    p.add_argument("--suite", choices=("all", "compat", "counts", "cut"),
                   default="all")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--steps", type=_count, default=500,
                   help="random-walk length (also scales trial counts)")
    p.add_argument("--guard", type=_count, default=guard, help=guard_help)
    p.add_argument("--timings", metavar="FILE",
                   help="also write each report's suite, case count and "
                        "elapsed seconds to FILE as JSON")

    return parser


def main(argv=None) -> int:
    guard = os.environ.get("ANGULATOR_GUARD", str(DEFAULT_GUARD))
    args = build_parser(guard).parse_args(argv)
    # looked up per call, so a rebound cmd_* takes effect
    commands = {
        "mutate": cmd_mutate,
        "flip": cmd_flip,
        "quiver": cmd_quiver,
        "validate": cmd_validate,
        "enumerate": cmd_enumerate,
        "verify": cmd_verify,
    }
    try:
        return commands[args.command](args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except InvalidAngulation as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except GuardExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_GUARD


if __name__ == "__main__":
    sys.exit(main())
