"""Observability for the detection pipeline: tracing, metrics, manifests.

The subsystem has four parts, all dependency-free and all off by default:

* :mod:`repro.obs.trace` — nestable spans (``with span("kde.fit", n=100)``)
  recording wall time, CPU time and key/value attributes;
* :mod:`repro.obs.metrics` — counters / gauges / histograms fed by the hot
  paths (KDE acceptance ratio, SMO iterations, KMM residuals, ...);
* :mod:`repro.obs.manifest` — the per-run artifact:
  ``runs/<run-id>/manifest.json`` (config, seeds, git revision, versions,
  span tree, metrics, results);
* :mod:`repro.obs.report` — the ``repro.cli report`` pretty-printer.

Enabling and disabling is session-scoped::

    obs.enable()
    ... run the pipeline ...
    spans, metrics_snapshot = obs.disable()

With observability disabled every instrumentation point reduces to one
global read and a shared no-op object, keeping the hot paths at their
benchmarked speed; results are bit-identical either way (tracing never
touches a random stream).
"""

from __future__ import annotations

import logging
import sys
from typing import List, Tuple

from repro.obs import metrics, trace
from repro.obs.trace import Span, span

__all__ = [
    "Span",
    "span",
    "metrics",
    "trace",
    "enable",
    "disable",
    "enabled",
    "setup_logging",
]

#: Root logger name; every module logger hangs below it.
LOGGER_NAME = "repro"

_LOG_FORMAT = "%(asctime)s %(levelname)-7s %(name)s: %(message)s"


def enable() -> None:
    """Start a fresh observability session (tracing + metrics)."""
    trace.enable()
    metrics.enable()


def disable() -> Tuple[List[Span], dict]:
    """End the session; returns its finished spans and metrics snapshot."""
    snapshot = metrics.disable()
    spans = trace.disable()
    return spans, snapshot


def enabled() -> bool:
    """Whether an observability session is active."""
    return trace.enabled()


def setup_logging(level: str = "warning", stream=None) -> logging.Logger:
    """Configure the ``repro`` logger once (idempotent; returns it).

    Handlers go on the package root logger only, so libraries embedding the
    package keep control of their own root logger.
    """
    logger = logging.getLogger(LOGGER_NAME)
    logger.setLevel(getattr(logging, level.upper(), logging.WARNING))
    if not logger.handlers:
        handler = logging.StreamHandler(stream or sys.stderr)
        handler.setFormatter(logging.Formatter(_LOG_FORMAT))
        logger.addHandler(handler)
        logger.propagate = False
    return logger
