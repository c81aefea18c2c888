"""Run manifests: every experiment reproducible-by-artifact.

A manifest is one JSON file, ``<run-dir>/manifest.json``, recording
everything needed to re-run and to interrogate an experiment: the command
and its arguments, the resolved configuration and seeds, the environment
(interpreter, numpy/scipy/repro versions, git revision), the span tree of
the run and the final metrics snapshot, plus command-specific results
(e.g. the Table-1 FP/FN counts).

The schema ships with the package (``run_manifest.schema.json``) and
:func:`validate` checks a manifest against it with a small built-in
validator covering the JSON-Schema subset the schema uses — ``type``,
``required``, ``properties``, ``items``, ``enum`` — so validation needs no
third-party dependency.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.obs.trace import Span

__all__ = [
    "MANIFEST_SCHEMA_VERSION",
    "RunManifest",
    "collect_environment",
    "default_schema_path",
    "git_revision",
    "load_manifest",
    "load_schema",
    "new_run_id",
    "validate",
    "write_manifest",
]

MANIFEST_SCHEMA_VERSION = 1

MANIFEST_FILENAME = "manifest.json"


def new_run_id() -> str:
    """A sortable, collision-resistant run identifier."""
    stamp = time.strftime("%Y%m%d-%H%M%S", time.localtime())
    return f"{stamp}-{os.getpid():05d}"


def collect_environment() -> dict:
    """Interpreter, platform and package versions of the running process."""
    import platform
    from importlib import metadata

    versions = {"python": platform.python_version()}
    # Installed distributions, read without importing them: scipy is an
    # optional extra, and importing it would load it into every traced run.
    for package in ("numpy", "scipy", "repro"):
        try:
            versions[package] = metadata.version(package)
        except metadata.PackageNotFoundError:
            versions[package] = None
    return {
        "platform": platform.platform(),
        "argv0": sys.argv[0],
        "versions": versions,
    }


def git_revision(cwd: Optional[str] = None) -> Optional[dict]:
    """The current git revision (``None`` outside a repository)."""
    try:
        rev = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=cwd, capture_output=True, text=True, timeout=5,
        )
        if rev.returncode != 0:
            return None
        status = subprocess.run(
            ["git", "status", "--porcelain"],
            cwd=cwd, capture_output=True, text=True, timeout=5,
        )
        dirty = bool(status.stdout.strip()) if status.returncode == 0 else None
        return {"revision": rev.stdout.strip(), "dirty": dirty}
    except (OSError, subprocess.TimeoutExpired):
        return None


@dataclass
class RunManifest:
    """Everything recorded about one observed run."""

    run_id: str
    command: str
    created: str
    argv: List[str] = field(default_factory=list)
    environment: dict = field(default_factory=dict)
    git: Optional[dict] = None
    config: dict = field(default_factory=dict)
    seeds: dict = field(default_factory=dict)
    metrics: dict = field(default_factory=dict)
    spans: List[dict] = field(default_factory=list)
    results: Optional[dict] = None
    serve: Optional[dict] = None
    schema_version: int = MANIFEST_SCHEMA_VERSION

    def to_dict(self) -> dict:
        """JSON-ready representation (the on-disk format)."""
        return {
            "schema_version": self.schema_version,
            "run_id": self.run_id,
            "command": self.command,
            "created": self.created,
            "argv": list(self.argv),
            "environment": self.environment,
            "git": self.git,
            "config": self.config,
            "seeds": self.seeds,
            "metrics": self.metrics,
            "spans": list(self.spans),
            "results": self.results,
            "serve": self.serve,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "RunManifest":
        """Inverse of :meth:`to_dict`."""
        return cls(
            run_id=data["run_id"],
            command=data["command"],
            created=data["created"],
            argv=list(data.get("argv", [])),
            environment=dict(data.get("environment", {})),
            git=data.get("git"),
            config=dict(data.get("config", {})),
            seeds=dict(data.get("seeds", {})),
            metrics=dict(data.get("metrics", {})),
            spans=list(data.get("spans", [])),
            results=data.get("results"),
            serve=data.get("serve"),
            schema_version=int(data.get("schema_version", MANIFEST_SCHEMA_VERSION)),
        )

    def span_objects(self) -> List[Span]:
        """The recorded spans as :class:`~repro.obs.trace.Span` objects."""
        return [Span.from_dict(entry) for entry in self.spans]


def write_manifest(manifest: RunManifest, run_dir: str) -> str:
    """Write ``<run_dir>/manifest.json`` (creating the directory); returns its path."""
    os.makedirs(run_dir, exist_ok=True)
    path = os.path.join(run_dir, MANIFEST_FILENAME)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(manifest.to_dict(), handle, indent=2, sort_keys=True, default=str)
        handle.write("\n")
    return path


def load_manifest(path: str) -> RunManifest:
    """Load a manifest from a file path or a run directory."""
    if os.path.isdir(path):
        path = os.path.join(path, MANIFEST_FILENAME)
    with open(path, "r", encoding="utf-8") as handle:
        return RunManifest.from_dict(json.load(handle))


# ----------------------------------------------------------------------
# schema validation
# ----------------------------------------------------------------------


def default_schema_path() -> str:
    """The packaged manifest schema (checked in next to this module)."""
    return os.path.join(os.path.dirname(__file__), "run_manifest.schema.json")


def load_schema(path: Optional[str] = None) -> dict:
    """Load a JSON schema (the packaged manifest schema by default)."""
    with open(path or default_schema_path(), "r", encoding="utf-8") as handle:
        return json.load(handle)


_TYPE_CHECKS = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "number": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    "boolean": lambda v: isinstance(v, bool),
    "null": lambda v: v is None,
}


def _validate_node(value: Any, schema: dict, path: str, errors: List[str]) -> None:
    allowed = schema.get("type")
    if allowed is not None:
        types = allowed if isinstance(allowed, list) else [allowed]
        if not any(_TYPE_CHECKS[t](value) for t in types):
            errors.append(f"{path}: expected type {allowed}, got {type(value).__name__}")
            return
    if "enum" in schema and value not in schema["enum"]:
        errors.append(f"{path}: {value!r} not in enum {schema['enum']}")
    if isinstance(value, dict):
        for name in schema.get("required", []):
            if name not in value:
                errors.append(f"{path}: missing required property {name!r}")
        for name, subschema in schema.get("properties", {}).items():
            if name in value:
                _validate_node(value[name], subschema, f"{path}.{name}", errors)
    if isinstance(value, list) and "items" in schema:
        for index, item in enumerate(value):
            _validate_node(item, schema["items"], f"{path}[{index}]", errors)


def validate(data: dict, schema: Optional[dict] = None) -> List[str]:
    """Validate a manifest dict against a schema; returns error strings.

    An empty list means the manifest is valid.  Covers the JSON-Schema
    subset used by ``run_manifest.schema.json``: ``type`` (scalar or list),
    ``required``, ``properties``, ``items`` and ``enum``.
    """
    if schema is None:
        schema = load_schema()
    errors: List[str] = []
    _validate_node(data, schema, "$", errors)
    return errors
