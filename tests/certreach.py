"""Certificate reach: a pytest plugin that fails the session when some
`raise CertificationError` in the arrfan package ran in no test.

Load it by name, with `tests` on the import path:

    PYTHONPATH=src:tests python -m pytest -q -p certreach

Each CertificationError constructed during the session records the module
and line of the code constructing it.  At the end, every `raise
CertificationError` statement in the package, found with `ast`, must hold a
recorded line within its span: the line reported for a call spread over
several lines need not be the `raise` line.  A site no test reaches can be
dropped or inverted with every test green, so it needs a test that makes it
fire, or a proof that an earlier check implies it and its deletion.
"""
from __future__ import annotations

import ast
import sys
from pathlib import Path

import pytest

from arrfan import errors


def _is_certification_raise(node: ast.AST) -> bool:
    if not isinstance(node, ast.Raise) or node.exc is None:
        return False
    target = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return isinstance(target, ast.Name) and target.id == "CertificationError"


def certificate_sites() -> list[tuple[str, int, int]]:
    """(module, first line, last line) of each `raise CertificationError` in the package."""
    package = Path(errors.__file__).resolve().parent
    sites = []
    for path in sorted(package.rglob("*.py")):
        parts = path.relative_to(package.parent).with_suffix("").parts
        module = ".".join(parts[:-1] if parts[-1] == "__init__" else parts)
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        sites += [(module, node.lineno, node.end_lineno)
                  for node in ast.walk(tree) if _is_certification_raise(node)]
    return sorted(sites)


class CertificateReach:
    """Wraps `CertificationError.__init__` while registered; reports the sites never raised."""

    def __init__(self):
        self.sites = certificate_sites()
        self.missed = self.sites
        self.hits: set[tuple[str, int]] = set()
        self.init = init = errors.CertificationError.__init__
        hits = self.hits

        def recording_init(exc, *args, **kwargs):
            caller = sys._getframe(1)
            hits.add((caller.f_globals.get("__name__"), caller.f_lineno))
            init(exc, *args, **kwargs)

        errors.CertificationError.__init__ = recording_init

    def pytest_unconfigure(self):
        errors.CertificationError.__init__ = self.init

    @pytest.hookimpl(tryfirst=True)
    def pytest_sessionfinish(self, session):
        self.missed = [(module, first, last) for module, first, last in self.sites
                       if not any((module, line) in self.hits for line in range(first, last + 1))]
        if (self.missed or not self.sites) and session.exitstatus == pytest.ExitCode.OK:
            session.exitstatus = pytest.ExitCode.TESTS_FAILED

    def pytest_terminal_summary(self, terminalreporter):
        reached = len(self.sites) - len(self.missed)
        terminalreporter.write_line(
            f"certificate reach: {reached} of {len(self.sites)} raise CertificationError sites")
        for module, first, _ in self.missed:
            terminalreporter.write_line(f"  never raised: {module} line {first}", red=True)


def pytest_configure(config):
    config.pluginmanager.register(CertificateReach(), "certreach-recorder")
