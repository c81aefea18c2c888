"""Value codec: Python object trees <-> one versioned npz payload.

A cache entry is a single ``.npz`` file holding every array of the cached
value under ``a0, a1, ...`` plus one ``__meta__`` byte array: the JSON
skeleton of the value with arrays replaced by ``{"__nd__": i}`` markers.
One file per entry keeps writes atomic (write-temp + ``os.replace``) and
eviction trivial.

Supported values: ``None``, ``bool``, ``int``, ``float``, ``str``, lists,
tuples, string-keyed dicts, numpy arrays/scalars, and **registered model
classes** — any class exposing ``to_state() -> dict`` and a
``from_state(state)`` classmethod can be registered under a stable tag and
then cached like a plain value (the fitted MARS regressions and trusted
regions use this).  Registration of the library's models is deferred to
:mod:`repro.cache.models` so importing the codec never drags in the learn
stack.
"""

from __future__ import annotations

import json
from typing import Any, Callable, Dict, List, Tuple, Type

import numpy as np

#: Payload format version, stored in every entry; readers reject mismatches.
PAYLOAD_VERSION = 1

META_ENTRY = "__meta__"


class CacheCodecError(TypeError):
    """Raised when a value cannot be encoded to / decoded from a payload."""


_BY_CLASS: Dict[Type, str] = {}
_BY_TAG: Dict[str, Type] = {}
_models_registered = False


def register(tag: str, cls: Type) -> None:
    """Register a model class under a stable tag.

    The class must provide ``to_state()`` returning a codec-encodable dict
    and a ``from_state(state)`` classmethod inverting it.  Tags are part of
    the on-disk format: renaming one invalidates existing entries (they
    fail to decode and are treated as corrupt, i.e. recomputed).
    """
    if not hasattr(cls, "to_state") or not hasattr(cls, "from_state"):
        raise CacheCodecError(f"{cls.__name__} lacks to_state/from_state")
    _BY_CLASS[cls] = tag
    _BY_TAG[tag] = cls


def _ensure_models_registered() -> None:
    """Import the library's model registrations exactly once, lazily."""
    global _models_registered
    if not _models_registered:
        _models_registered = True
        from repro.cache import models  # noqa: F401  (registers on import)


def _encode_node(value: Any, arrays: List[np.ndarray]) -> Any:
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        return value
    if isinstance(value, (np.bool_, np.integer, np.floating)):
        return _encode_node(value.item(), arrays)
    if isinstance(value, np.ndarray):
        arrays.append(value)
        return {"__nd__": len(arrays) - 1}
    if isinstance(value, tuple):
        return {"__tuple__": [_encode_node(item, arrays) for item in value]}
    if isinstance(value, list):
        return [_encode_node(item, arrays) for item in value]
    if isinstance(value, dict):
        out = {}
        for key in value:
            if not isinstance(key, str) or key.startswith("__"):
                raise CacheCodecError(f"unsupported dict key {key!r}")
            out[key] = _encode_node(value[key], arrays)
        return out
    _ensure_models_registered()
    tag = _BY_CLASS.get(type(value))
    if tag is not None:
        return {"__obj__": tag, "state": _encode_node(value.to_state(), arrays)}
    raise CacheCodecError(
        f"cannot cache values of type {type(value).__name__!r}; register a "
        "to_state/from_state codec for it in repro.cache.models"
    )


def _decode_node(node: Any, arrays: Dict[str, np.ndarray]) -> Any:
    if isinstance(node, list):
        return [_decode_node(item, arrays) for item in node]
    if isinstance(node, dict):
        if "__nd__" in node:
            return arrays[f"a{node['__nd__']}"]
        if "__tuple__" in node:
            return tuple(_decode_node(item, arrays) for item in node["__tuple__"])
        if "__obj__" in node:
            _ensure_models_registered()
            cls = _BY_TAG.get(node["__obj__"])
            if cls is None:
                raise CacheCodecError(f"unknown codec tag {node['__obj__']!r}")
            return cls.from_state(_decode_node(node["state"], arrays))
        return {key: _decode_node(value, arrays) for key, value in node.items()}
    return node


def encode(value: Any) -> Tuple[bytes, Dict[str, np.ndarray]]:
    """Encode ``value`` into (meta JSON bytes, named array dict)."""
    arrays: List[np.ndarray] = []
    tree = _encode_node(value, arrays)
    meta = json.dumps({"payload_version": PAYLOAD_VERSION, "value": tree},
                      sort_keys=True).encode("utf-8")
    return meta, {f"a{i}": array for i, array in enumerate(arrays)}


def decode(meta: bytes, arrays: Dict[str, np.ndarray]) -> Any:
    """Invert :func:`encode` (raises ``CacheCodecError`` on bad payloads)."""
    try:
        parsed = json.loads(meta.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise CacheCodecError(f"corrupt payload metadata: {error}") from error
    if parsed.get("payload_version") != PAYLOAD_VERSION:
        raise CacheCodecError(
            f"payload version {parsed.get('payload_version')!r} not supported"
        )
    return _decode_node(parsed["value"], arrays)


def dump_npz(handle, value: Any, stage: str) -> int:
    """Serialize ``value`` into an open binary file as npz; returns byte size.

    The stage name rides along in the metadata so ``cache stats`` can
    attribute disk usage without a separate index file.
    """
    meta, arrays = encode(value)
    header = json.dumps({"stage": stage}).encode("utf-8")
    np.savez(
        handle,
        **{
            META_ENTRY: np.frombuffer(meta, dtype=np.uint8),
            "__stage__": np.frombuffer(header, dtype=np.uint8),
            **arrays,
        },
    )
    return handle.tell()


def load_npz(path) -> Tuple[Any, str]:
    """Load one entry file; returns (value, stage).

    Raises ``CacheCodecError`` (or numpy/zipfile errors) on corruption —
    the store maps any failure to a cache miss plus entry removal.
    """
    with np.load(path, allow_pickle=False) as archive:
        if META_ENTRY not in archive.files:
            raise CacheCodecError("entry has no metadata record")
        meta = archive[META_ENTRY].tobytes()
        stage = "unknown"
        if "__stage__" in archive.files:
            try:
                stage = json.loads(archive["__stage__"].tobytes()).get("stage", stage)
            except (UnicodeDecodeError, json.JSONDecodeError):
                pass
        arrays = {
            name: archive[name] for name in archive.files
            if name not in (META_ENTRY, "__stage__")
        }
        return decode(meta, arrays), stage
