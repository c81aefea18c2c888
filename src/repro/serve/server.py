"""Zero-dependency threaded HTTP API over the scoring engine.

Endpoints
---------
``POST /v1/score``
    Scores one device batch.  The server picks the wire format from the
    request's ``Content-Type``:

    * ``application/octet-stream`` — a binary score frame
      (:func:`~repro.serve.engine.encode_frame`): ``ndim`` as ``<u8``,
      then ``ndim`` ``<u8`` dimensions, then the fingerprints as row-major
      little-endian float64.  Boundaries go in the query string,
      ``/v1/score?boundaries=B1,B5`` (default: every trained boundary).
      The answer is a frame holding the ``(k, n)`` float64 scores, one row
      per boundary in the order the ``X-Boundaries`` response header gives
      (``B1,B5``).  A device is Trojan-free where its score is
      non-negative (:func:`repro.core.boundaries.trojan_free`).
      This is the format :class:`~repro.serve.client.ScoringClient` sends:
      it costs no text conversion on either side.
    * anything else — JSON: ``{"fingerprints": [[...], ...], "boundaries":
      ["B5", ...]}`` (a single flat vector is accepted as a one-device
      batch; ``boundaries`` is optional).  Response: ``{"n_devices": n,
      "boundaries": {"B5": {"trojan_free": [...], "scores": [...]}}}``.

    Both formats go through the same validation, once per request, in
    :meth:`~repro.serve.engine.BatchingEngine.submit`.  Errors are JSON in
    either format: validation failures return **400** with a structured
    body ``{"error": {"code": ..., "message": ...}}`` (a malformed frame
    header is ``bad_frame``, unparseable JSON ``bad_json``), an oversized
    body **413**, a full queue **429** and a queued request not scored
    within 30 s **504** (a request that finds the scorer idle is scored
    on its handler thread and never times out) — the server never
    crashes on a bad payload.
``GET /healthz``
    Liveness: always ``200 {"status": "ok"}`` while the process serves.
``GET /readyz``
    Readiness: ``200`` once the bundle is loaded and the engine can score,
    ``503`` otherwise.
``GET /metricz``
    JSON snapshot of the engine's metrics registry plus bundle identity
    (digest, schema version, boundaries).  Per request:
    ``serve.requests`` (validated and accepted), ``serve.rejected`` (queue
    full) and, per wire format, ``serve.requests.frame`` /
    ``serve.requests.json`` (every score request whose body was read,
    valid or not).  Per scoring pass, i.e. per batch:
    ``serve.devices_scored``, the ``serve.batch_size`` /
    ``serve.latency_ms`` histograms and the per-boundary verdict counters.
    Also ``serve.connections`` accepted and the live ``serve.queue_depth``
    gauge, read on every ``/metricz`` request.

Built on :class:`http.server.ThreadingHTTPServer` — one thread per
connection feeding the shared :class:`~repro.serve.engine.BatchingEngine`.
A request that finds the scorer idle is scored on its handler thread;
requests that arrive while it is busy queue and coalesce into vectorized
batches on the batcher's worker thread.
Connections are HTTP/1.1 keep-alive: a client sends request after request
on one socket, so a screening request pays no TCP handshake and no thread
start.  Nagle's algorithm is off on every connection; with it, the
response body, written after the headers, would wait on the client's
delayed ACK (about 40 ms).  A request answered before its body is read
(404, 503, 413, missing body) has the body drained when its
``Content-Length`` is known and bounded; otherwise the response carries
``Connection: close``, so unread bytes are never parsed as the next
request, and the server discards what the client still sends for up to
``_LINGER_S`` before it closes (a close with unread input resets the
connection and can destroy the response).  A connection idle for ``KEEPALIVE_IDLE_S`` is closed, and
``DetectorServer.stop`` closes every open one.
"""

from __future__ import annotations

import json
import socket
import threading
import time
import urllib.parse
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import List, Optional, Tuple

from repro.serve.bundle import LoadedBundle, load_bundle
from repro.serve.engine import (
    FRAME_CONTENT_TYPE,
    BatchingEngine,
    QueueFullError,
    RequestValidationError,
    DEFAULT_MAX_BATCH,
    DEFAULT_MAX_QUEUE,
    DEFAULT_MAX_REQUEST_DEVICES,
    ScoreResult,
    ScoringEngine,
    decode_frame,
    encode_frame,
)

#: Reject request bodies beyond this size before reading them fully.
MAX_BODY_BYTES = 64 * 1024 * 1024
#: Close a keep-alive connection after this many seconds without a request,
#: so an abandoned client does not hold a server thread forever.
KEEPALIVE_IDLE_S = 60.0
#: Read size when discarding the body of a request answered early.
_DRAIN_CHUNK = 64 * 1024
#: How long a connection closed with its request body unread keeps
#: discarding input after the response (see ``_Handler._linger``).
_LINGER_S = 2.0


def _json_request(body: bytes) -> Tuple[object, Optional[List[str]]]:
    """Fingerprints and boundaries of a JSON score request."""
    try:
        payload = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise RequestValidationError("bad_json", f"unparseable body: {error}")
    if not isinstance(payload, dict) or "fingerprints" not in payload:
        raise RequestValidationError(
            "bad_request", 'body must be {"fingerprints": [...]}'
        )
    boundaries = payload.get("boundaries")
    if boundaries is not None and (
        not isinstance(boundaries, list)
        or not all(isinstance(b, str) for b in boundaries)
    ):
        raise RequestValidationError(
            "bad_request", '"boundaries" must be a list of names'
        )
    return payload["fingerprints"], boundaries


def _query_boundaries(query: str) -> Optional[List[str]]:
    """Boundaries of a frame request: ``boundaries=B1,B5`` or None."""
    params = urllib.parse.parse_qs(query, keep_blank_values=True)
    values = params.pop("boundaries", None)
    if params or (values is not None and len(values) != 1):
        raise RequestValidationError(
            "bad_request", "the query takes one parameter, boundaries=B1,B5"
        )
    if values is None:
        return None
    return values[0].split(",") if values[0] else []


class _Handler(BaseHTTPRequestHandler):
    """Request handler; the server instance carries the shared engine."""

    server_version = "repro-serve/1"
    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True
    timeout = KEEPALIVE_IDLE_S

    # ------------------------------------------------------------------
    # plumbing
    # ------------------------------------------------------------------

    def setup(self) -> None:
        super().setup()
        self.server.track_connection(self.connection)

    def finish(self) -> None:
        try:
            super().finish()
        finally:
            self.server.untrack_connection(self.connection)

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        pass  # request logging is the metrics registry's job

    def _send(self, status: int, body: bytes, content_type: str,
              close: bool = False, boundaries: Optional[str] = None) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        if boundaries is not None:
            self.send_header("X-Boundaries", boundaries)
        if close:
            self.send_header("Connection", "close")  # sets close_connection
        self.end_headers()
        self.wfile.write(body)

    def _send_json(self, status: int, payload: dict,
                   close: bool = False) -> None:
        self._send(status, json.dumps(payload).encode("utf-8"),
                   "application/json", close=close)

    def _send_frame(self, result: ScoreResult) -> None:
        """The scores as a ``(k, n)`` frame, rows in ``X-Boundaries`` order."""
        self._send(200, encode_frame(list(result.scores.values())),
                   FRAME_CONTENT_TYPE, boundaries=",".join(result.scores))

    def _send_error_json(self, status: int, code: str, message: str,
                         close: bool = False) -> None:
        self._send_json(status, {"error": {"code": code, "message": message}},
                        close=close)

    def _content_length(self) -> Optional[int]:
        """The declared body size; None when absent, malformed or negative."""
        try:
            length = int(self.headers.get("Content-Length", ""))
        except ValueError:
            return None
        return None if length < 0 else length

    def _reject_unread(self, length: Optional[int], status: int, code: str,
                       message: str) -> None:
        """Answer a request whose body was not read.

        The body is discarded when its length is known and bounded, which
        keeps the connection usable; otherwise the connection is closed.
        """
        drainable = length is not None and length <= MAX_BODY_BYTES
        remaining = length if drainable else -1
        while remaining > 0:
            chunk = self.rfile.read(min(remaining, _DRAIN_CHUNK))
            if not chunk:
                break
            remaining -= len(chunk)
        self._send_error_json(status, code, message, close=remaining != 0)
        if remaining != 0:
            self._linger()

    def _linger(self) -> None:
        """Half-close after the response, then discard input for a while.

        Closing a socket that still holds unread input makes the kernel
        send a reset, which can destroy the response before the client,
        perhaps still sending its body, reads it.
        """
        deadline = time.monotonic() + _LINGER_S
        try:
            self.connection.shutdown(socket.SHUT_WR)
            while (left := deadline - time.monotonic()) > 0:
                self.connection.settimeout(left)
                if not self.connection.recv(_DRAIN_CHUNK):
                    break
        except OSError:
            pass

    # ------------------------------------------------------------------
    # routes
    # ------------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        if self.path == "/healthz":
            self._send_json(200, {"status": "ok"})
        elif self.path == "/readyz":
            if self.server.ready():
                self._send_json(200, {"status": "ready",
                                      "bundle": self.server.bundle_summary()})
            else:
                self._send_error_json(503, "not_ready", "no bundle loaded")
        elif self.path == "/metricz":
            self._send_json(200, self.server.metrics())
        else:
            self._send_error_json(404, "not_found", f"no route {self.path!r}")

    def do_POST(self) -> None:  # noqa: N802 - stdlib naming
        length = self._content_length()
        route, has_query, query = self.path.partition("?")
        frame = self.headers.get_content_type() == FRAME_CONTENT_TYPE
        if route != "/v1/score" or (has_query and not frame):
            self._reject_unread(length, 404, "not_found",
                                f"no route {self.path!r}")
            return
        if not self.server.ready():
            self._reject_unread(length, 503, "not_ready", "no bundle loaded")
            return
        if not length:
            self._reject_unread(length, 400, "empty_body",
                                "request body required")
            return
        if length > MAX_BODY_BYTES:
            self._reject_unread(length, 413, "too_large",
                                f"request body exceeds {MAX_BODY_BYTES} bytes")
            return
        body = self.rfile.read(length)
        self.server.engine.registry.counter(
            "serve.requests.frame" if frame else "serve.requests.json").inc()
        try:
            if frame:
                fingerprints = decode_frame(body)
                boundaries = _query_boundaries(query)
            else:
                fingerprints, boundaries = _json_request(body)
            result = self.server.batcher.submit(
                fingerprints, boundaries=boundaries
            )
        except RequestValidationError as error:
            self._send_error_json(400, error.code, error.message)
            return
        except QueueFullError as error:
            self._send_error_json(429, "queue_full", str(error))
            return
        except TimeoutError:
            self._send_error_json(504, "timeout", "scoring timed out")
            return
        if frame:
            self._send_frame(result)
        else:
            self._send_json(200, result.to_json())


class DetectorServer(ThreadingHTTPServer):
    """The screening service: a loaded bundle behind the HTTP API.

    Parameters
    ----------
    bundle:
        Path to a ``repro-bundle-v1`` file, or an already-loaded
        :class:`~repro.serve.bundle.LoadedBundle`.
    host / port:
        Bind address; ``port=0`` picks an ephemeral port (see ``.port``).
    max_batch / max_queue:
        Micro-batching knobs, passed to the :class:`BatchingEngine`.
    max_request_devices:
        Per-request device cap of the underlying :class:`ScoringEngine`.
    """

    daemon_threads = True

    def __init__(
        self,
        bundle,
        host: str = "127.0.0.1",
        port: int = 0,
        max_batch: int = DEFAULT_MAX_BATCH,
        max_queue: int = DEFAULT_MAX_QUEUE,
        max_request_devices: int = DEFAULT_MAX_REQUEST_DEVICES,
    ):
        if not isinstance(bundle, LoadedBundle):
            bundle = load_bundle(bundle)
        self.bundle = bundle
        self.engine = ScoringEngine(
            bundle.detector, max_request_devices=max_request_devices,
        )
        self.batcher = BatchingEngine(
            self.engine, max_batch=max_batch, max_queue=max_queue,
        )
        self._thread: Optional[threading.Thread] = None
        self._connections: set = set()
        self._connections_lock = threading.Lock()
        super().__init__((host, port), _Handler)

    # ------------------------------------------------------------------
    # handler-facing state
    # ------------------------------------------------------------------

    def ready(self) -> bool:
        """Whether a bundle is loaded and the engine can score."""
        return self.bundle is not None and bool(self.engine.available)

    def bundle_summary(self) -> dict:
        """Identity of the served bundle (also embedded in ``/metricz``)."""
        return {
            "digest": self.bundle.digest,
            "schema_version": int(self.bundle.header["schema_version"]),
            "boundaries": list(self.engine.available),
            "path": self.bundle.path,
        }

    def metrics(self) -> dict:
        """The ``/metricz`` payload."""
        snapshot = self.engine.metrics_snapshot()
        snapshot["gauges"]["serve.queue_depth"] = float(self.batcher.queue_depth)
        snapshot["bundle"] = self.bundle_summary()
        return snapshot

    def track_connection(self, connection: socket.socket) -> None:
        """Register an open client connection (closed by ``stop``)."""
        self.engine.registry.counter("serve.connections").inc()
        with self._connections_lock:
            self._connections.add(connection)

    def untrack_connection(self, connection: socket.socket) -> None:
        """Forget a connection its handler has finished with."""
        with self._connections_lock:
            self._connections.discard(connection)

    @property
    def open_connections(self) -> int:
        """Number of client connections currently held open."""
        with self._connections_lock:
            return len(self._connections)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    @property
    def port(self) -> int:
        """The bound port (useful with ``port=0``)."""
        return self.server_address[1]

    @property
    def url(self) -> str:
        """Base URL of the running server."""
        host = self.server_address[0]
        return f"http://{host}:{self.port}"

    def start(self) -> "DetectorServer":
        """Serve in a background thread (tests, examples, bench)."""
        if self._thread is not None:
            raise RuntimeError("server already started")
        self._thread = threading.Thread(
            target=self.serve_forever, name="repro-serve-http", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        """Shut down the listener, the open connections and the batcher.

        Connections are shut for reading only: an idle handler sees end of
        input and exits, while one mid-request still sends its response.
        """
        self.shutdown()
        self.server_close()
        with self._connections_lock:
            connections = list(self._connections)
        for connection in connections:
            try:
                connection.shutdown(socket.SHUT_RD)
            except OSError:
                pass
        self.batcher.close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    def __enter__(self) -> "DetectorServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
