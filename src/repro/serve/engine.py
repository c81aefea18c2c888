"""Scoring engine: validated, vectorized, micro-batched Trojan screening.

Two layers, both thread-safe:

* :class:`ScoringEngine` — the synchronous core.
  :meth:`~ScoringEngine.validate_request` checks one request loudly (2-D
  shape, float-coercible dtype, finiteness, feature width, per-request
  device cap, boundary names); a structured :class:`RequestValidationError` names exactly what
  was wrong, and nothing degenerate can silently mis-classify.
  :meth:`~ScoringEngine.score` is the scoring pass alone: it scores a
  batch against any subset of B1..B5 in one vectorized call
  (:meth:`~repro.core.pipeline.GoldenChipFreeDetector.decision_scores_batch`,
  whose own shape, finiteness and width checks still guard in-process
  callers) and derives the verdicts once.

* :class:`BatchingEngine` — the batching front.  ``submit`` validates
  each request once.  A request that finds no pass scoring and nothing
  queued is scored at once on the calling thread (the HTTP handler's), so
  a lone tester's request crosses no thread.  Any other request joins a
  bounded, arrival-ordered (FIFO — no request can starve) queue, which
  one worker thread drains: when the running pass ends it takes up to
  ``max_batch`` devices, stacks them into one array, scores them in a
  single engine pass and cuts each request's rows out of the result,
  then goes straight on to the next batch until the queue is empty.  It
  never waits for stragglers; the requests that arrive while one batch is
  scoring form the next, so per-device overhead still amortizes across
  concurrent clients.  Only one pass scores at a time, and a new request
  never overtakes a queued one.  When the queue is full, ``submit`` fails
  immediately with :class:`QueueFullError` — explicit 429-style
  backpressure instead of unbounded buffering.

The engine owns a private :class:`repro.obs.metrics.MetricsRegistry`; the
server's ``GET /metricz`` endpoint snapshots it without touching the
process-global observability session.  ``serve.requests`` counts requests
(one per accepted ``submit``, scored at once or queued) and
``serve.rejected`` the requests a full queue turned away.
``serve.devices_scored``, the ``serve.batch_size`` and
``serve.latency_ms`` histograms and the per-boundary verdict counters are
recorded once per scoring pass, i.e. per batch.

:func:`encode_frame` / :func:`decode_frame` are the binary score frame of
``POST /v1/score``, shared by server and client: a ``<u8`` ``ndim``, then
``ndim`` ``<u8`` dimensions, then the values as row-major little-endian
float64.  The request frame carries the fingerprints, the response frame
the ``(k, n)`` scores; verdicts are derived from scores by
:meth:`ScoreResult.from_scores`, so the frame carries scores only.
"""

from __future__ import annotations

import struct
import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.core.boundaries import trojan_free
from repro.obs.metrics import MetricsRegistry

#: Hard cap on devices per request; a screening service should reject a
#: runaway payload rather than attempt a multi-gigabyte kernel block.
DEFAULT_MAX_REQUEST_DEVICES = 10_000
#: Most devices the batcher stacks into one scoring pass.
DEFAULT_MAX_BATCH = 256
#: Most requests the batcher queues before it answers ``QueueFullError``.
DEFAULT_MAX_QUEUE = 1024
#: Content type of a binary score frame (:func:`encode_frame`).
FRAME_CONTENT_TYPE = "application/octet-stream"
#: Most dimensions a frame header may declare.  Scoring takes one or two;
#: the cap bounds header parsing, and a 3-D frame still reaches validation
#: (``bad_shape``).
MAX_FRAME_NDIM = 8
_WORD = 8  # bytes per header word and per float64 value
_INT64_MAX = 2 ** 63 - 1


class RequestValidationError(ValueError):
    """A request failed input validation; ``code`` is machine-readable."""

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code
        self.message = message


class QueueFullError(RuntimeError):
    """The batching queue is at capacity (429-style backpressure)."""

    def __init__(self, depth: int):
        super().__init__(
            f"scoring queue is full ({depth} queued requests); retry later"
        )
        self.depth = depth


@dataclass(frozen=True)
class ScoreResult:
    """One scored request: per-boundary scores + verdicts."""

    scores: Dict[str, np.ndarray]
    verdicts: Dict[str, np.ndarray]
    n_devices: int

    @classmethod
    def from_scores(cls, scores: Dict[str, np.ndarray]) -> "ScoreResult":
        """The result of non-empty per-boundary ``scores``; the verdicts
        come from :func:`repro.core.boundaries.trojan_free`."""
        return cls(
            scores=scores,
            verdicts={name: trojan_free(values) for name, values in scores.items()},
            n_devices=len(next(iter(scores.values()))),
        )

    def rows(self, start: int, stop: int) -> "ScoreResult":
        """Devices ``start:stop`` of this result (views, nothing recomputed)."""
        cut = slice(start, stop)
        return ScoreResult(
            scores={name: values[cut] for name, values in self.scores.items()},
            verdicts={name: flags[cut] for name, flags in self.verdicts.items()},
            n_devices=stop - start,
        )

    def to_json(self) -> dict:
        """JSON-ready representation (the HTTP response body).

        ``tolist`` converts to Python ``bool``/``float`` in C; the encoded
        body is byte-identical to per-element conversion.
        """
        return {
            "n_devices": self.n_devices,
            "boundaries": {
                name: {
                    "trojan_free": self.verdicts[name].tolist(),
                    "scores": self.scores[name].tolist(),
                }
                for name in self.scores
            },
        }


def encode_frame(values) -> bytes:
    """``values`` as a binary score frame (shape header + float64 body)."""
    array = np.ascontiguousarray(values, dtype="<f8")
    header = struct.pack(f"<{1 + array.ndim}Q", array.ndim, *array.shape)
    return header + array.tobytes()


def _bad_frame(message: str) -> RequestValidationError:
    return RequestValidationError("bad_frame", message)


def decode_frame(body) -> np.ndarray:
    """The float64 array a binary score frame holds.

    The array is a view of ``body`` (read-only when ``body`` is ``bytes``).
    The header is checked in Python integers before anything is allocated:
    a short or over-long body, more than :data:`MAX_FRAME_NDIM` dimensions
    or dimensions whose byte size overflows int64 raise
    :class:`RequestValidationError` ``bad_frame``.  The shape itself is
    left to request validation.
    """
    size = len(body)
    if size < _WORD:
        raise _bad_frame(f"frame of {size} bytes has no {_WORD}-byte header")
    (ndim,) = struct.unpack_from("<Q", body)
    if ndim > MAX_FRAME_NDIM:
        raise _bad_frame(f"frame declares {ndim} dimensions, "
                         f"cap is {MAX_FRAME_NDIM}")
    offset = _WORD * (1 + ndim)
    if size < offset:
        raise _bad_frame(f"frame of {size} bytes is shorter than its "
                         f"{offset}-byte header")
    shape = struct.unpack_from(f"<{ndim}Q", body, _WORD)
    count = extent = 1
    for dim in shape:
        count *= dim
        extent *= max(dim, 1)  # numpy sizes zero-length arrays by this too
    if extent * _WORD > _INT64_MAX:
        raise _bad_frame(f"frame shape {shape} overflows int64")
    if size != offset + _WORD * count:
        raise _bad_frame(f"frame of shape {shape} needs "
                         f"{offset + _WORD * count} bytes, got {size}")
    return np.frombuffer(body, dtype="<f8", count=count,
                         offset=offset).reshape(shape)


class ScoringEngine:
    """Validated, vectorized scoring of device batches against B1..B5.

    Parameters
    ----------
    detector:
        A fitted (or bundle-restored) ``GoldenChipFreeDetector``.
    max_request_devices:
        :meth:`validate_request` rejects requests with more devices than
        this (structured error, not an out-of-memory crash).  A batch of
        several requests may hold more; :meth:`score` applies no cap.
    registry:
        Metrics registry to record into (a private one by default).
    """

    def __init__(
        self,
        detector,
        max_request_devices: int = DEFAULT_MAX_REQUEST_DEVICES,
        registry: Optional[MetricsRegistry] = None,
    ):
        if not getattr(detector, "boundaries", None):
            raise ValueError("detector has no trained boundaries to serve")
        if max_request_devices < 1:
            raise ValueError(
                f"max_request_devices must be positive, got {max_request_devices}"
            )
        self.detector = detector
        self.available = tuple(
            name for name in ("B1", "B2", "B3", "B4", "B5")
            if name in detector.boundaries
        )
        self.max_request_devices = int(max_request_devices)
        self.registry = registry if registry is not None else MetricsRegistry()
        self._lock = threading.Lock()

    @property
    def n_features(self) -> Optional[int]:
        """Fingerprint width the detector expects (None = first boundary's)."""
        width = self.detector.n_fingerprint_features_
        if width is not None:
            return width
        return self.detector.boundaries[self.available[0]].n_features

    # ------------------------------------------------------------------
    # validation
    # ------------------------------------------------------------------

    def validate_request(
        self, fingerprints, boundaries: Optional[Iterable[str]] = None
    ) -> Tuple[np.ndarray, Tuple[str, ...]]:
        """Coerce and check one request; raise :class:`RequestValidationError`.

        Accepts an ``(n, d)`` batch or a single ``(d,)`` device (promoted to
        a one-row batch).  Checks run in cheapest-first order so malformed
        payloads are rejected before any O(n*d) work.
        """
        if boundaries is None:
            names: Tuple[str, ...] = self.available
        else:
            if isinstance(boundaries, str):
                boundaries = (boundaries,)
            names = tuple(boundaries)
            if not names:
                raise RequestValidationError(
                    "empty_boundaries", "request names an empty boundary list"
                )
            for name in names:
                if name not in self.available:
                    raise RequestValidationError(
                        "unknown_boundary",
                        f"boundary {name!r} not available "
                        f"(bundle carries {list(self.available)})",
                    )
        try:
            array = np.asarray(fingerprints, dtype=float)
        except (TypeError, ValueError):
            raise RequestValidationError(
                "bad_dtype", "fingerprints are not numeric"
            )
        if array.ndim == 1:
            array = array[None, :]
        if array.ndim != 2:
            raise RequestValidationError(
                "bad_shape",
                f"fingerprints must be (devices x features), got shape "
                f"{array.shape}",
            )
        if array.shape[0] == 0:
            raise RequestValidationError(
                "empty_batch", "request contains no devices"
            )
        if array.shape[0] > self.max_request_devices:
            raise RequestValidationError(
                "too_large",
                f"request has {array.shape[0]} devices, cap is "
                f"{self.max_request_devices}",
            )
        expected = self.n_features
        if expected is not None and array.shape[1] != expected:
            raise RequestValidationError(
                "bad_width",
                f"fingerprints have {array.shape[1]} features, detector "
                f"expects {expected}",
            )
        if not np.all(np.isfinite(array)):
            raise RequestValidationError(
                "non_finite", "fingerprints contain NaN or infinite values"
            )
        return array, names

    # ------------------------------------------------------------------
    # scoring
    # ------------------------------------------------------------------

    def score(
        self, fingerprints, boundaries: Optional[Iterable[str]] = None
    ) -> ScoreResult:
        """Score one ``(n, d)`` batch in one pass (thread-safe).

        ``boundaries`` defaults to every trained boundary.  This is the
        scoring pass only, recorded as one batch: it does not run
        :meth:`validate_request`, which :meth:`BatchingEngine.submit` runs
        once per request.  The detector's own checks still refuse a bad
        shape, non-finite values or the wrong width (``ValueError``) and an
        unknown boundary (``KeyError``).
        """
        start = time.perf_counter()
        names = self.available if boundaries is None else boundaries
        with self._lock:
            scores = self.detector.decision_scores_batch(fingerprints,
                                                         boundaries=names)
        result = ScoreResult.from_scores(scores)
        self._record(result, time.perf_counter() - start)
        return result

    def _record(self, result: ScoreResult, seconds: float) -> None:
        registry = self.registry
        registry.counter("serve.devices_scored").inc(result.n_devices)
        registry.histogram("serve.batch_size").observe(result.n_devices)
        registry.histogram("serve.latency_ms").observe(seconds * 1e3)
        for name, flags in result.verdicts.items():
            passed = int(np.sum(flags))
            registry.counter(f"serve.verdicts.{name}.trojan_free").inc(passed)
            registry.counter(f"serve.verdicts.{name}.flagged").inc(
                len(flags) - passed
            )

    def metrics_snapshot(self) -> dict:
        """JSON-ready snapshot of the engine's metrics registry."""
        return self.registry.snapshot()


class _PendingRequest:
    """One request: inputs + a completion event."""

    __slots__ = ("fingerprints", "names", "event", "result", "error")

    def __init__(self, fingerprints: np.ndarray, names: Tuple[str, ...]):
        self.fingerprints = fingerprints
        self.names = names
        self.event = threading.Event()
        self.result: Optional[ScoreResult] = None
        self.error: Optional[BaseException] = None


class BatchingEngine:
    """Micro-batching front over a :class:`ScoringEngine`.

    ``submit`` validates the request once (a malformed request must never
    poison a batch) and counts it in ``serve.requests``.  Who scores it
    depends on what the request finds:

    * **The scorer idle and nothing queued** — the request marks the
      scorer busy and is scored at once on the calling thread, as a batch
      of one.  No other thread is woken or waited for.
    * **A pass running or a backlog queued** — the request joins the
      FIFO queue and blocks until the worker thread has scored it.  When
      the running pass ends, the worker takes the queue ``max_batch``
      devices at a time, in arrival order, back to back until it is
      empty.  Requests in one batch sharing a boundary subset are stacked
      into one array, scored in a single vectorized pass and handed their
      own rows of the result.

    Only one scoring pass runs at a time, and an arriving request never
    overtakes a queued one.

    Parameters
    ----------
    engine:
        The synchronous scoring engine.
    max_batch:
        Maximum devices drained into one scoring pass.
    max_queue:
        Bound on queued requests; beyond it ``submit`` raises
        :class:`QueueFullError` immediately.
    """

    def __init__(
        self,
        engine: ScoringEngine,
        max_batch: int = DEFAULT_MAX_BATCH,
        max_queue: int = DEFAULT_MAX_QUEUE,
    ):
        if max_batch < 1:
            raise ValueError(f"max_batch must be positive, got {max_batch}")
        if max_queue < 1:
            raise ValueError(f"max_queue must be positive, got {max_queue}")
        self.engine = engine
        self.max_batch = int(max_batch)
        self.max_queue = int(max_queue)
        self._queue: deque = deque()
        self._lock = threading.Lock()
        self._wakeup = threading.Condition(self._lock)
        self._busy = False  # a scoring pass is running
        self._closed = False
        self._worker = threading.Thread(
            target=self._run, name="repro-serve-batcher", daemon=True
        )
        self._worker.start()

    # ------------------------------------------------------------------
    # client side
    # ------------------------------------------------------------------

    def submit(
        self, fingerprints, boundaries: Optional[Iterable[str]] = None,
        timeout: Optional[float] = 30.0,
    ) -> ScoreResult:
        """Score one request: on this thread when the scorer is idle and
        nothing is queued, otherwise queued behind the backlog.

        ``timeout`` bounds only the wait of a queued request: on
        :class:`TimeoutError` the request leaves the queue unscored (or,
        once the worker has taken it, its result is dropped).  A request
        scored on the calling thread runs to completion.
        """
        array, names = self.engine.validate_request(fingerprints, boundaries)
        request = _PendingRequest(array, names)
        with self._lock:
            if self._closed:
                raise RuntimeError("BatchingEngine is closed")
            # A queue with no pass running has had the worker woken for
            # it; a request that finds one still waits its turn.
            idle = not self._busy and not self._queue
            if idle:
                self._busy = True
            elif len(self._queue) >= self.max_queue:
                self.engine.registry.counter("serve.rejected").inc()
                raise QueueFullError(len(self._queue))
            else:
                self._queue.append(request)
            self.engine.registry.counter("serve.requests").inc()
        if idle:
            try:
                self._score_batch([request])
            finally:
                with self._lock:
                    self._busy = False
                    if self._queue:  # the backlog is the worker's
                        self._wakeup.notify()
        elif not request.event.wait(timeout):
            with self._lock:
                if request in self._queue:
                    self._queue.remove(request)
            raise TimeoutError("scoring request timed out")
        if request.error is not None:
            raise request.error
        return request.result

    def close(self) -> None:
        """Refuse new requests; stop the worker once it has scored what is
        already queued.  A pass running on a caller's thread finishes and
        returns its result."""
        with self._lock:
            self._closed = True
            self._wakeup.notify_all()
        self._worker.join(timeout=5.0)

    def __enter__(self) -> "BatchingEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    @property
    def queue_depth(self) -> int:
        """Number of requests currently queued."""
        with self._lock:
            return len(self._queue)

    # ------------------------------------------------------------------
    # worker side
    # ------------------------------------------------------------------

    def _run(self) -> None:
        batch: List[_PendingRequest] = []
        while True:
            with self._lock:
                if batch:
                    self._busy = False
                while self._busy or not self._queue:
                    if self._closed and not self._queue:
                        return
                    self._wakeup.wait()
                self._busy = True
                batch = self._take_batch()
            self._score_batch(batch)

    def _take_batch(self) -> List[_PendingRequest]:
        """Pop up to ``max_batch`` devices of queued requests, FIFO (lock
        held, queue non-empty).  A request larger than ``max_batch`` is
        taken alone."""
        batch = [self._queue.popleft()]
        devices = batch[0].fingerprints.shape[0]
        while self._queue:
            size = self._queue[0].fingerprints.shape[0]
            if devices + size > self.max_batch:
                break
            batch.append(self._queue.popleft())
            devices += size
        return batch

    def _score_batch(self, batch: List[_PendingRequest]) -> None:
        # Group by requested boundary subset: each group becomes one
        # stacked array and one vectorized scoring pass.
        groups: Dict[Tuple[str, ...], List[_PendingRequest]] = {}
        for request in batch:
            groups.setdefault(request.names, []).append(request)
        for names, members in groups.items():
            try:
                if len(members) == 1:
                    members[0].result = self.engine.score(
                        members[0].fingerprints, names)
                else:
                    result = self.engine.score(np.concatenate(
                        [m.fingerprints for m in members], axis=0), names)
                    offset = 0
                    for member in members:
                        n = member.fingerprints.shape[0]
                        member.result = result.rows(offset, offset + n)
                        offset += n
            except BaseException as error:  # surface to every waiter
                for member in members:
                    member.error = error
            finally:
                for member in members:
                    member.event.set()
