"""Command-line front end.

Every command runs through one pipeline in `main`: read the input file, run
the command, write its document to --out, print one canonical
(byte-reproducible) JSON report line on stdout, and signal the verdict
through the exit code, 0 on success and otherwise looked up in `_EXIT_CODES`.
Timing goes to stderr so stdout stays byte-identical across runs.

A process compiles only what its command runs.  `main` builds the parser of
the one command its first words name, from the grammar that `build_parser()`
gives in full; a top-level `-h`, an unknown command and any argument error go
through the full parser, so usage, help and error texts are those of the
whole grammar.  The command's body is `cmd_<name>` in a family module of
`arrfan.commands` (`arrangements`, `fans`, `surfaces`), and imports the
library modules it uses when it runs.  Besides `arrfan`, `errors`,
`intlinalg`, `arrfan.commands` and the family module, each command loads:

- `catalog`, `verify`, `decompose`: `arrangement`; `fan`: and `fan`;
  `polytope`, `embed`: and `polytope`; `insert`: and `fan`, `fanmaps`;
- `poset`: `arrangement`, `poset`; `parabolic`: and `fan`;
- `roots`: `fan`, `arrangement`;
- `star`, `autos`: `fan`, `fanmaps`; `restrict`: and `arrangement`, `poset`;
- `surface triangulations`: `surface`; the other surface commands: `fan`,
  and `surface` unless they only read a fan file back (`from-weights`);
- `plot` of a fan: `fan`, `surface`, `svgplot`; of an arrangement:
  `arrangement`, `svgplot`.

The program entry of `python -m arrfan.cli` and of the `arrfan` script is
`run()`, which raises `SystemExit` with `main`'s code.  A process whose report
is written has nothing left to do, so `run` ends it once its streams are
flushed, without the interpreter's teardown: two full collections and the
clearing of every module, 9-12 ms of a 100-160 ms command on 2 shared CPUs.
`main` itself never exits, so the tests and the benchmark's traced round call
it in process.
"""
from __future__ import annotations

import argparse
import atexit
import os
import sys
import time
from importlib import import_module
from typing import Sequence

from .commands import _ascii_int, _read
from .errors import (
    ArrfanError,
    BadReferenceError,
    InputFormatError,
    MalformedFanError,
    NotSimplicialError,
    UnsupportedRankError,
)

# Every other ArrfanError, and ValueError, exits 10: a required mathematical
# property fails (integrality, smoothness, symmetry, closure, lattice span).
_EXIT_CODES = {
    InputFormatError: 2,  # parse or format error in the input
    MalformedFanError: 2,
    BadReferenceError: 3,  # no such cone, flat, catalog name, ...
    UnsupportedRankError: 4,  # unsupported rank for the command
    NotSimplicialError: 11,  # the arrangement is not simplicial
}


def _polygon_size(text: str) -> int:
    from .surface import MAX_TRIANGULATION_T

    try:
        t = _ascii_int(text)
    except ValueError:
        t = 0
    if not 3 <= t <= MAX_TRIANGULATION_T:
        raise argparse.ArgumentTypeError(f"must be an integer from 3 to {MAX_TRIANGULATION_T}")
    return t


class _LeafParser(argparse.ArgumentParser):
    """A parser of one command: an error is raised for `main` to parse again
    with the whole grammar, whose usage and error texts list every command."""

    def error(self, message):
        raise argparse.ArgumentError(None, message)


def build_parser(words: Sequence[str] = ()) -> argparse.ArgumentParser:
    """The CLI's grammar, or with `words`, the first words of a command line,
    only the command they name ("star", "surface graph") as a `_LeafParser`.
    When the words name no command, the whole grammar.

    Each command's defaults name its report (`surface.graph` for `surface
    graph`) and its body, `cmd_<name>` in a family module of `arrfan.commands`.
    """
    parser = (_LeafParser if words else argparse.ArgumentParser)(
        prog="arrfan",
        description="Exact computations with integer hyperplane arrangements and their fans.",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    groups = {}

    def add(name, family, *, path=True, out=True):
        """The parser of command `name`, or None when it is not the one asked for."""
        *group, leaf = name.split()
        if words and [*group, leaf] != list(words[: len(group) + 1]):
            return None
        if group and group[0] not in groups:
            groups[group[0]] = subs.add_parser(group[0]).add_subparsers(
                dest=f"{group[0]}_command", required=True)
        p = (groups[group[0]] if group else subs).add_parser(leaf)
        if path:
            p.add_argument("path")
        if out:
            p.add_argument("--out")
        p.set_defaults(family=family, report=name.replace(" ", "."),
                       body="cmd_" + name.replace(" ", "_").replace("-", "_"))
        return p

    add("verify", "arrangements", out=False)
    if p := add("catalog", "arrangements", path=False):
        p.add_argument("name")
        p.add_argument("--sporadic-dir")
    add("fan", "arrangements")
    add("roots", "fans")
    add("polytope", "arrangements")
    if p := add("star", "fans"):
        p.add_argument("--cone", required=True, help="comma-separated ray indices")
    if p := add("restrict", "fans"):
        p.add_argument("--subspace", required=True, help="JSON row list, e.g. [[1,0,0],[0,1,0]]")
    add("poset", "arrangements")
    if p := add("parabolic", "arrangements"):
        p.add_argument("--cone", required=True, help="comma-separated ray indices")
    if p := add("insert", "arrangements"):
        p.add_argument("--hyperplane", required=True, help="comma-separated covector")
    add("autos", "fans")
    add("embed", "arrangements")
    add("decompose", "arrangements")
    for name in ("graph", "from-weights", "symmetrize", "desingularize", "divisor"):
        add(f"surface {name}", "surfaces")
    add("surface picard", "surfaces", out=False)
    # --count before --out, as the usage line lists them
    if p := add("surface triangulations", "surfaces", path=False, out=False):
        from .surface import MAX_TRIANGULATION_T

        p.add_argument("--count", type=_polygon_size, required=True,
                       help=f"polygon size t, 3 <= t <= {MAX_TRIANGULATION_T}")
        p.add_argument("--out")
    add("plot", "fans")
    return parser if subs.choices or not words else build_parser()


def _parse_args(argv: Sequence[str]) -> argparse.Namespace:
    try:
        return build_parser(argv[:2]).parse_args(argv)
    except argparse.ArgumentError:
        return build_parser().parse_args(argv)


def main(argv=None) -> int:
    # elapsed covers all of main: building the parser, loading the modules
    # the command imports (from source when no bytecode is cached) and the work
    start = time.monotonic()
    args = _parse_args(sys.argv[1:] if argv is None else list(argv))
    try:
        data = _read(args.path) if "path" in args else None
        body = getattr(import_module(f"{__package__}.commands.{args.family}"), args.body)
        # a command returns its exit code when it is not 0
        code = body(args, data) or 0
    except (ArrfanError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        code = _EXIT_CODES.get(type(e), 10)
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        code = 130
    finally:
        elapsed = (time.monotonic() - start) * 1000.0
        print(f"# elapsed_ms={elapsed:.1f}", file=sys.stderr)
    return code


def _exit_flushed(code: int) -> None:
    """At interpreter exit, run the exit handlers registered before this one,
    flush stdout and stderr, and end the process with `code`.  A failed flush
    leaves the exit, and its report of the failure, to the interpreter."""
    atexit.unregister(_exit_flushed)
    atexit._run_exitfuncs()
    try:
        for stream in (sys.stdout, sys.stderr):
            if stream is not None:
                stream.flush()
    except (OSError, ValueError):
        return
    os._exit(code)


def run() -> None:
    """`sys.exit(main())`, and the process ends once its output is flushed.

    The exit handler is registered last, so it runs first; whatever wraps the
    program still sees the `SystemExit`.  An exception out of `main` (an
    internal error, or argparse's exit for help and usage errors) registers
    nothing, so the interpreter ends as it would without it."""
    code = main()
    atexit.register(_exit_flushed, code)
    raise SystemExit(code)


if __name__ == "__main__":
    run()
