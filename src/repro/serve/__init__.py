"""``repro.serve`` — exportable detector bundles + a Trojan-screening service.

The paper's deployment story is production test: the boundaries B1..B5 are
trained **once** from simulation + PCMs (stages 1-2), then every fabricated
device is screened against them (stage 3).  This package is that
offline-train / online-inference split made real:

* :mod:`repro.serve.bundle` — the versioned ``repro-bundle-v1`` artifact: a
  fitted :class:`~repro.core.pipeline.GoldenChipFreeDetector` exported to a
  single self-describing ``.npz`` (whiteners, all trained boundaries,
  regressions, config, provenance) that reloads **bit-identically** in a
  fresh process; loading rejects unknown schema versions and
  digest-mismatched payloads.
* :mod:`repro.serve.engine` — :class:`~repro.serve.engine.ScoringEngine`
  (loud request validation; one vectorized scoring pass over any B1..B5
  subset) and :class:`~repro.serve.engine.BatchingEngine` (validates each
  request once, then micro-batches it through a bounded arrival-ordered
  queue with explicit 429-style backpressure).
* :mod:`repro.serve.server` / :mod:`repro.serve.client` — a zero-dependency
  threaded HTTP API (``POST /v1/score`` in a binary score frame or JSON,
  ``GET /healthz`` / ``/readyz`` / ``/metricz``) plus the typed Python
  client the tests and the load generator drive it with.

Everything is stdlib + numpy; the CLI front ends are
``python -m repro.cli export-bundle | serve | score``.
"""

from __future__ import annotations

from repro.serve.bundle import (
    BUNDLE_FORMAT,
    BUNDLE_SCHEMA_VERSION,
    BundleError,
    BundleFormatError,
    BundleInfo,
    BundleIntegrityError,
    export_bundle,
    load_bundle,
)
from repro.serve.engine import (
    BatchingEngine,
    QueueFullError,
    RequestValidationError,
    ScoreResult,
    ScoringEngine,
)
from repro.serve.client import ScoringClient, ServerError
from repro.serve.server import DetectorServer

__all__ = [
    "BUNDLE_FORMAT",
    "BUNDLE_SCHEMA_VERSION",
    "BatchingEngine",
    "BundleError",
    "BundleFormatError",
    "BundleInfo",
    "BundleIntegrityError",
    "DetectorServer",
    "QueueFullError",
    "RequestValidationError",
    "ScoreResult",
    "ScoringClient",
    "ScoringEngine",
    "ServerError",
    "export_bundle",
    "load_bundle",
]
