"""The bodies of the CLI's commands, one module per family, and what they share.

`arrfan.cli` parses the command line and imports the family module of the
one command it runs: `arrangements` for the commands that read an
arrangement, `fans` for those that read a fan file (`roots`, `star`,
`restrict`, `autos`, `plot`) and `surfaces` for the rank-2 surface commands.
A body takes the parsed arguments and the input file's bytes, reports
through `_emit`, and returns its exit code when it is not 0.  No module here
imports `arrfan.cli`: under `python -m arrfan.cli` that module is
`__main__`, and importing it would compile it a second time.
"""
from __future__ import annotations

import json
import re
import sys
from pathlib import Path

try:  # hashlib would load OpenSSL's libcrypto, some 4 MB of resident set per command
    from _sha2 import sha256  # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.10-3.11
    except ImportError:
        from hashlib import sha256

from ..errors import InputFormatError, _parse_json


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _read(path: str | Path) -> bytes:
    """The bytes of an input file; a file that cannot be read is an input error."""
    try:
        return Path(path).read_bytes()
    except OSError as e:
        raise InputFormatError(f"cannot read {path}: {e}") from e


def _emit(args, data: bytes, verdicts: dict, out=None, witnesses=None) -> None:
    """Write `out` to --out, if both are given, and print the report line.

    `out` is a JSON document, written canonically with a final newline, or
    text (the SVG of `plot`), written as is.  A path that cannot be written
    is an input error, raised before any report line is printed.
    """
    outputs = {}
    if out is not None and args.out is not None:
        text = out if isinstance(out, str) else canonical_json(out) + "\n"
        try:
            Path(args.out).write_text(text, encoding="utf-8")
        except OSError as e:
            raise InputFormatError(f"cannot write {args.out}: {e}") from e
        outputs = {"out": args.out}
    report = {
        "command": args.report,
        "input_digest": "sha256:" + sha256(data).hexdigest(),
        "verdicts": verdicts,
        "witnesses": witnesses or {},
        "outputs": outputs,
    }
    sys.stdout.write(canonical_json(report) + "\n")


_INT_RE = re.compile(r"\s*[+-]?[0-9]+\s*", re.ASCII)


def _ascii_int(text: str) -> int:
    """An optional sign and the digits 0-9, spaces around them allowed: int()
    alone also reads underscores and the digits of other scripts."""
    if not _INT_RE.fullmatch(text):
        raise ValueError(f"not an integer: {text!r}")
    return int(text)


def _parse_vector(text: str) -> tuple[int, ...]:
    try:
        return tuple(map(_ascii_int, text.split(",")))
    except ValueError as e:
        raise InputFormatError(f"bad vector {text!r}") from e


def _parse_rows(text: str) -> tuple[tuple[int, ...], ...]:
    try:  # JSON integers only: no float, string or bool (json makes no other int subclass)
        rows = json.loads(text)
        ints = type(rows) is list and all(type(r) is list for r in rows)
        if ints and all(type(x) is int for r in rows for x in r):
            return tuple(map(tuple, rows))
    except (ValueError, RecursionError):  # JSONDecodeError is a ValueError
        pass
    raise InputFormatError(f"bad row list {text!r}")


def _load_any(data: bytes):
    """Sniff a JSON input: (True, fan) from a fan or weights file, or
    (False, arrangement).  Only the module of the input's kind is loaded."""
    obj = _parse_json(data)
    if not isinstance(obj, dict):
        raise InputFormatError("expected a JSON object")
    if "positive_covectors" in obj:
        from ..arrangement import _arrangement_from_json

        return False, _arrangement_from_json(obj)
    if "max_cones" in obj:
        from ..fan import _fan_from_json

        return True, _fan_from_json(obj)
    if "weights" in obj:
        if type(obj["weights"]) is not list:  # weights_to_fan checks each weight
            raise InputFormatError("'weights' must be a list of integers")
        from ..surface import weights_to_fan

        return True, weights_to_fan(obj["weights"])
    raise InputFormatError("unrecognized input format")


def _fan_input(data: bytes):
    """The fan of a fan or weights file, or the chamber fan of an arrangement."""
    is_fan, obj = _load_any(data)
    if is_fan:
        return obj
    from ..fan import fan_from_arrangement

    return fan_from_arrangement(obj)
