"""``repro-bundle-v1``: the exportable, self-describing detector artifact.

A bundle is one ``.npz`` file holding a fitted
:class:`~repro.core.pipeline.GoldenChipFreeDetector` — whiteners, every
trained boundary B1..B5, the PCM regressions, the detector config and seed —
plus a JSON header with schema version and provenance (creation time, git
revision, interpreter/numpy versions).  The payload is the
:mod:`repro.cache.codec` encoding of the detector (its
``to_state``/``from_state`` machinery) with a provenance header on top:

* ``__bundle__`` — the JSON header (format name, schema version, payload
  digest, provenance, a summary of what is inside);
* ``__meta__`` — the codec's JSON skeleton of the detector state;
* ``a0 .. aN`` — the numpy arrays of that state.

Loading is paranoid by construction: a file that does not carry the
``repro-bundle-v1`` format name or an understood schema version raises
:class:`BundleFormatError`, and a payload whose recomputed SHA-256 digest
does not match the header raises :class:`BundleIntegrityError` — a
truncated or bit-flipped bundle can never produce verdicts.  A verified
bundle reloads **bit-identically**: decision scores and verdicts of the
restored detector equal the in-process detector's exactly.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import time
from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.cache import codec

#: On-disk format name; the first header field every reader checks.
BUNDLE_FORMAT = "repro-bundle-v1"

#: Bundle schema version; readers reject anything they do not understand.
BUNDLE_SCHEMA_VERSION = 1

#: npz entry names of the header and the codec skeleton.
HEADER_ENTRY = "__bundle__"
META_ENTRY = "__meta__"


class BundleError(Exception):
    """Base class for bundle export/load failures."""


class BundleFormatError(BundleError):
    """The file is not a bundle, or uses an unsupported schema version."""


class BundleIntegrityError(BundleError):
    """The payload does not match the digest recorded in the header."""


@dataclass(frozen=True)
class BundleInfo:
    """What :func:`export_bundle` wrote: path + parsed header."""

    path: str
    header: dict

    @property
    def digest(self) -> str:
        """SHA-256 digest of the payload (hex)."""
        return self.header["digest"]

    @property
    def schema_version(self) -> int:
        """Bundle schema version recorded in the header."""
        return int(self.header["schema_version"])


@dataclass(frozen=True)
class LoadedBundle:
    """A verified bundle: the restored detector + its header."""

    detector: "GoldenChipFreeDetector"
    header: dict
    path: str

    @property
    def digest(self) -> str:
        """SHA-256 digest of the payload (hex)."""
        return self.header["digest"]

    @property
    def boundaries(self) -> list:
        """Names of the boundaries the bundle carries."""
        return sorted(self.detector.boundaries)


def payload_digest(meta: bytes, arrays: Dict[str, np.ndarray]) -> str:
    """SHA-256 over the codec payload: meta bytes + every named array.

    Arrays are folded in sorted-name order as (name, dtype, shape, C-order
    bytes), so the digest is independent of dict ordering and of how numpy
    chooses to lay the arrays out in memory.
    """
    hasher = hashlib.sha256()
    hasher.update(meta)
    for name in sorted(arrays):
        array = np.ascontiguousarray(arrays[name])
        hasher.update(name.encode("utf-8"))
        hasher.update(array.dtype.str.encode("ascii"))
        hasher.update(repr(array.shape).encode("ascii"))
        hasher.update(array.tobytes())
    return hasher.hexdigest()


def _provenance() -> dict:
    """Creation-time provenance block (git + versions; best effort)."""
    from repro.obs.manifest import collect_environment, git_revision

    environment = collect_environment()
    return {
        "created": time.strftime("%Y-%m-%dT%H:%M:%S%z", time.localtime()),
        "git": git_revision(),
        "versions": environment.get("versions", {}),
        "platform": environment.get("platform"),
    }


def export_bundle(detector, path, **manifest_extra) -> BundleInfo:
    """Export a fitted detector as one atomic ``repro-bundle-v1`` file.

    Parameters
    ----------
    detector:
        A fitted :class:`~repro.core.pipeline.GoldenChipFreeDetector`
        (at least one trained boundary).
    path:
        Target ``.npz`` path; written via temp file + ``os.replace`` so a
        crashed export never leaves a truncated bundle behind.
    manifest_extra:
        Extra JSON-serializable header fields (recorded under ``"extra"``).
    """
    if not getattr(detector, "boundaries", None):
        raise BundleError("cannot export an unfitted detector (no boundaries)")
    meta, arrays = codec.encode(detector)
    header = {
        "format": BUNDLE_FORMAT,
        "schema_version": BUNDLE_SCHEMA_VERSION,
        "digest": payload_digest(meta, arrays),
        "detector": {
            "boundaries": sorted(detector.boundaries),
            "n_features": detector.n_fingerprint_features_,
            "seed": detector.config.seed,
        },
        "provenance": _provenance(),
    }
    if manifest_extra:
        header["extra"] = manifest_extra
    header_bytes = json.dumps(header, sort_keys=True, default=str).encode("utf-8")

    path = os.fspath(path)
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, temp_path = tempfile.mkstemp(dir=directory, prefix=".tmp-bundle-",
                                     suffix=".npz")
    try:
        with os.fdopen(fd, "wb") as handle:
            np.savez(
                handle,
                **{
                    HEADER_ENTRY: np.frombuffer(header_bytes, dtype=np.uint8),
                    META_ENTRY: np.frombuffer(meta, dtype=np.uint8),
                    **arrays,
                },
            )
        os.replace(temp_path, path)
    except Exception:
        try:
            os.remove(temp_path)
        except OSError:
            pass
        raise
    return BundleInfo(path=path, header=header)


def _parse_header(raw: bytes, path: str) -> dict:
    try:
        header = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise BundleFormatError(f"{path}: unreadable bundle header: {error}")
    if not isinstance(header, dict) or header.get("format") != BUNDLE_FORMAT:
        raise BundleFormatError(
            f"{path}: not a {BUNDLE_FORMAT} file "
            f"(format={header.get('format')!r})"
            if isinstance(header, dict)
            else f"{path}: not a {BUNDLE_FORMAT} file"
        )
    version = header.get("schema_version")
    if version != BUNDLE_SCHEMA_VERSION:
        raise BundleFormatError(
            f"{path}: bundle schema version {version!r} not supported "
            f"(this reader understands {BUNDLE_SCHEMA_VERSION})"
        )
    if not isinstance(header.get("digest"), str):
        raise BundleFormatError(f"{path}: bundle header carries no digest")
    return header


def load_bundle(path) -> LoadedBundle:
    """Load, verify and restore a bundle written by :func:`export_bundle`.

    Raises :class:`BundleFormatError` for non-bundles, unsupported schema
    versions and payloads the library refuses to restore (unknown codec
    tags or config keys, retired keys holding a retired value),
    :class:`BundleIntegrityError` when the payload digest does not match
    the header.
    """
    path = os.fspath(path)
    try:
        # np.load leaves the file open when it is not a readable archive
        # (a truncated bundle), so the handle is owned here.
        with open(path, "rb") as handle, \
                np.load(handle, allow_pickle=False) as archive:
            if HEADER_ENTRY not in archive.files:
                raise BundleFormatError(f"{path}: no {HEADER_ENTRY} record")
            header = _parse_header(archive[HEADER_ENTRY].tobytes(), path)
            if META_ENTRY not in archive.files:
                raise BundleFormatError(f"{path}: no {META_ENTRY} record")
            meta = archive[META_ENTRY].tobytes()
            arrays = {
                name: archive[name]
                for name in archive.files
                if name not in (HEADER_ENTRY, META_ENTRY)
            }
    except BundleError:
        raise
    except Exception as error:
        raise BundleFormatError(f"{path}: unreadable bundle: {error}")

    digest = payload_digest(meta, arrays)
    if digest != header["digest"]:
        raise BundleIntegrityError(
            f"{path}: payload digest mismatch (header {header['digest'][:12]}..., "
            f"recomputed {digest[:12]}...); the bundle is corrupt or tampered"
        )
    try:
        detector = codec.decode(meta, arrays)
    except (TypeError, ValueError) as error:  # CacheCodecError is a TypeError
        raise BundleFormatError(f"{path}: undecodable bundle payload: {error}")
    from repro.core.pipeline import GoldenChipFreeDetector

    if not isinstance(detector, GoldenChipFreeDetector):
        raise BundleFormatError(
            f"{path}: bundle payload is a {type(detector).__name__}, "
            "expected a GoldenChipFreeDetector"
        )
    return LoadedBundle(detector=detector, header=header, path=path)
