"""The library has no test-only surface.

Every public function, class and method under ``src/repro`` must be
referred to from a path that ships or measures the system: ``src/``,
``examples/``, ``benchmarks/`` or ``perfbench/``.  A name that only tests
call is dead weight in the library: delete it with its test, or compute
the value the test wants from the production API.

References are matched by name, read from the syntax tree:

- a ``Name`` or an attribute access anywhere in those trees counts,
  except inside the definition itself;
- package ``__init__`` re-exports (``from ... import name`` and
  ``__all__``) do not count: exporting a name is not using it;
- ``perfbench`` names its wrap targets as dotted strings, so each part of
  a string constant there counts.

A method that overrides a base-class method is exempt (the base class
calls it), and so is a ``do_<VERB>`` method of an HTTP request handler,
which ``BaseHTTPRequestHandler`` dispatches by name.  Anything else that
must stay goes on :data:`ALLOWLIST` with its reason.
"""

from __future__ import annotations

import ast
import importlib
from http.server import BaseHTTPRequestHandler
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"
USER_TREES = ("src", "examples", "benchmarks", "perfbench")
STRING_TREES = ("perfbench",)

#: Public names that no shipping path calls but that stay, each with why.
ALLOWLIST = {
    "repro.crypto.aes.AES128.decrypt_block":
        "the FIPS-197 inverse cipher, checked against the standard's vectors",
    "repro.serve.client.ScoringClient.health":
        "the client of the server's /healthz liveness route",
    "repro.serve.server.DetectorServer.open_connections":
        "the count of held keep-alive connections, which stop() must close",
    "repro.testbed.campaign.FingerprintCampaign.measure_device":
        "the scalar per-die reference chain that tests/oracles.py drives",
    "repro.circuits.montecarlo.SimulatedDie":
        "the scalar die that measure_device measures in that reference chain",
}


def _module_name(path: Path) -> str:
    parts = path.relative_to(PACKAGE.parent).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _is_public(name: str) -> bool:
    return not name.startswith("_")


def _definitions():
    """``(qualified name, name, path, first line, last line, class)`` for
    each public module-level function or class and each public method."""
    for path in sorted(PACKAGE.rglob("*.py")):
        module = _module_name(path)
        for node in ast.parse(path.read_text(), str(path)).body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if _is_public(node.name):
                yield (f"{module}.{node.name}", node.name, path,
                       node.lineno, node.end_lineno, None)
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                            and _is_public(item.name)):
                        yield (f"{module}.{node.name}.{item.name}", item.name, path,
                               item.lineno, item.end_lineno, (module, node.name))


def _references():
    """``name -> [(path, line), ...]`` over every user tree."""
    refs: dict = {}

    def add(name, path, line):
        refs.setdefault(name, []).append((path, line))

    for tree in USER_TREES:
        for path in sorted((ROOT / tree).rglob("*.py")):
            reexports = path.name == "__init__.py" and tree == "src"
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if isinstance(node, ast.Name):
                    if not (reexports and node.id == "__all__"):
                        add(node.id, path, node.lineno)
                elif isinstance(node, ast.Attribute):
                    add(node.attr, path, node.lineno)
                elif isinstance(node, ast.alias) and node.asname and not reexports:
                    # ``import name as other``: later uses read ``other``.
                    add(node.name.split(".")[-1], path, node.lineno)
                elif (tree in STRING_TREES and isinstance(node, ast.Constant)
                      and isinstance(node.value, str)):
                    for part in node.value.split("."):
                        add(part, path, node.lineno)
    return refs


def _overrides(owner, name: str) -> bool:
    module, class_name = owner
    cls = getattr(importlib.import_module(module), class_name)
    if issubclass(cls, BaseHTTPRequestHandler) and name.startswith("do_"):
        return True
    return any(name in vars(base) for base in cls.__mro__[1:])


def unreferenced():
    """Qualified names of the public definitions nothing outside tests uses."""
    refs = _references()
    dead = []
    for qualname, name, path, first, last, owner in _definitions():
        used = any(not (where == path and first <= line <= last)
                   for where, line in refs.get(name, ()))
        if not used and not (owner and _overrides(owner, name)):
            dead.append(qualname)
    return dead


def test_every_public_name_has_a_caller_outside_tests():
    dead = [name for name in unreferenced() if name not in ALLOWLIST]
    assert not dead, (
        "public names that only tests (or nothing) call; delete them, or "
        "allowlist one with its reason:\n  " + "\n  ".join(dead))


def test_allowlist_is_short_and_live():
    assert len(ALLOWLIST) <= 5
    assert all(reason for reason in ALLOWLIST.values())
    # An entry that gained a caller, or whose name is gone, must leave the list.
    assert sorted(ALLOWLIST) == sorted(n for n in unreferenced() if n in ALLOWLIST)
