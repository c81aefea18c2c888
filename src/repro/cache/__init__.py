"""``repro.cache`` — the model codec that detector bundles are built on.

:mod:`repro.cache.codec` turns a value tree holding arrays and registered
model classes into one JSON skeleton plus named arrays, and back;
:mod:`repro.cache.models` registers the library's fitted models with it.

The package once also held an on-disk artifact cache for pipeline stages.
It is retired: every stage computes.  The two functions below are what is
left of its switch, and ``perfbench/harness.py`` is their only caller.
"""

from __future__ import annotations

__all__ = ["configure", "is_enabled"]


def configure(enabled: bool) -> None:
    """Accept ``enabled=False``, a no-op; there is no cache to switch on."""
    if enabled:
        raise ValueError("the artifact cache is retired; every stage computes")


def is_enabled() -> bool:
    """Always ``False``: there is no artifact cache."""
    return False
