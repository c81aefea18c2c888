"""Typed Python client for the screening service (stdlib ``http.client`` only).

Used by the test suite, the load generator and the ``repro.cli score``
command; doubles as executable documentation of the wire format::

    client = ScoringClient("http://127.0.0.1:8642")
    client.wait_ready()
    result = client.score(fingerprints, boundaries=["B5"])
    result.verdicts["B5"]        # boolean array, True = Trojan-free
    client.metrics()["counters"]["serve.devices_scored"]

``score`` sends the fingerprints as a binary score frame
(``Content-Type: application/octet-stream``; an ``ndim`` and the
dimensions as ``<u8``, then row-major little-endian float64 values, see
:func:`~repro.serve.engine.encode_frame`) to ``/v1/score``, with the
boundaries in the query string (``?boundaries=B1,B5``).  The server
answers with a frame of the ``(k, n)`` float64 scores whose row order its
``X-Boundaries`` header gives; the verdicts are derived from them by
:meth:`~repro.serve.engine.ScoreResult.from_scores`.  The other endpoints,
and every error, are JSON.

A client keeps one HTTP/1.1 keep-alive connection and sends every request
on it, so a one-device screening request costs no TCP handshake.  A lock
serializes requests, so one instance can be shared between threads (they
then take turns on the connection; give each thread its own client to
send in parallel).  When the server has closed a reused connection before
any byte of the response arrived, the request is sent once more on a new
connection: scoring is a pure function, so the retry is safe.  Any other
failure, a timeout included, drops the connection, so a late reply can
never be read as the answer to the next request.

Errors come back as :class:`ServerError` carrying the HTTP status and the
server's structured ``{"code", "message"}`` error body.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
import urllib.parse
from typing import Iterable, Optional, Tuple

import numpy as np

from repro.serve.engine import (
    FRAME_CONTENT_TYPE,
    ScoreResult,
    decode_frame,
    encode_frame,
)

#: Failures that mean the server closed a kept-alive connection before it
#: answered: the request went nowhere and can be sent again.
_STALE_CONNECTION = (http.client.RemoteDisconnected, ConnectionResetError,
                     ConnectionAbortedError, BrokenPipeError)


class ServerError(RuntimeError):
    """The server answered with an error status."""

    def __init__(self, status: int, code: str, message: str):
        super().__init__(f"HTTP {status} [{code}]: {message}")
        self.status = status
        self.code = code
        self.message = message


class ScoringClient:
    """Minimal HTTP client for a :class:`DetectorServer`.

    Parameters
    ----------
    base_url:
        Server root, e.g. ``"http://127.0.0.1:8642"``.
    timeout:
        Per-request socket timeout in seconds.
    """

    def __init__(self, base_url: str, timeout: float = 30.0):
        self.base_url = base_url.rstrip("/")
        self.timeout = float(timeout)
        parts = urllib.parse.urlsplit(self.base_url)
        if parts.scheme != "http" or not parts.hostname:
            raise ValueError(f"expected an http://host[:port] URL, "
                             f"got {base_url!r}")
        self._prefix = parts.path
        self._connection = http.client.HTTPConnection(
            parts.hostname, parts.port, timeout=self.timeout
        )
        self._lock = threading.Lock()

    def close(self) -> None:
        """Close the kept-alive connection (the next request reopens one)."""
        with self._lock:
            self._connection.close()

    def __enter__(self) -> "ScoringClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # transport
    # ------------------------------------------------------------------

    def _request(self, method: str, path: str,
                 payload: Optional[dict] = None) -> dict:
        body = None if payload is None else json.dumps(payload).encode("utf-8")
        _, data = self._exchange(method, path, body, "application/json")
        return json.loads(data.decode("utf-8"))

    def _exchange(self, method: str, path: str, body: Optional[bytes] = None,
                  content_type: Optional[str] = None,
                  ) -> Tuple[http.client.HTTPResponse, bytes]:
        """One request/response on the kept-alive connection.

        Returns the (fully read) response and its body; an error status
        raises :class:`ServerError`.
        """
        headers = {} if body is None else {"Content-Type": content_type}
        path = self._prefix + path
        with self._lock:
            connection = self._connection
            reused = connection.sock is not None
            try:
                try:
                    connection.request(method, path, body=body, headers=headers)
                    reply = connection.getresponse()
                except _STALE_CONNECTION:
                    if not reused:
                        raise
                    connection.close()
                    connection.request(method, path, body=body, headers=headers)
                    reply = connection.getresponse()
                data = reply.read()
            except BaseException:
                connection.close()
                raise
        if reply.status >= 400:
            raise self._to_server_error(reply.status, reply.reason, data)
        return reply, data

    @staticmethod
    def _to_server_error(status: int, reason: str, data: bytes) -> ServerError:
        code, message = "unknown", reason
        try:
            parsed = json.loads(data.decode("utf-8"))
            code = parsed["error"]["code"]
            message = parsed["error"]["message"]
        except Exception:
            pass
        return ServerError(status, code, message)

    # ------------------------------------------------------------------
    # endpoints
    # ------------------------------------------------------------------

    def health(self) -> dict:
        """``GET /healthz``."""
        return self._request("GET", "/healthz")

    def ready(self) -> bool:
        """``GET /readyz``; False on 503 instead of raising."""
        try:
            return self._request("GET", "/readyz").get("status") == "ready"
        except ServerError as error:
            if error.status == 503:
                return False
            raise

    def wait_ready(self, timeout: float = 10.0, interval: float = 0.05) -> None:
        """Poll ``/readyz`` until ready or ``timeout`` seconds elapsed."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            try:
                if self.ready():
                    return
            except (OSError, http.client.HTTPException):
                pass
            time.sleep(interval)
        raise TimeoutError(f"server at {self.base_url} not ready "
                           f"after {timeout}s")

    def metrics(self) -> dict:
        """``GET /metricz``: the serving metrics snapshot."""
        return self._request("GET", "/metricz")

    def score(
        self, fingerprints, boundaries: Optional[Iterable[str]] = None
    ) -> ScoreResult:
        """``POST /v1/score``: screen one device or one batch.

        Returns the same :class:`~repro.serve.engine.ScoreResult` shape the
        in-process engine produces (scores/verdicts as writeable numpy
        arrays, bit-identical to in-process scoring).
        """
        path = "/v1/score"
        if boundaries is not None:
            path += "?boundaries=" + urllib.parse.quote(
                ",".join(boundaries), safe=",")
        reply, data = self._exchange(
            "POST", path, encode_frame(np.asarray(fingerprints, dtype=float)),
            FRAME_CONTENT_TYPE,
        )
        names = reply.getheader("X-Boundaries", "").split(",")
        scores = decode_frame(bytearray(data))
        if scores.ndim != 2 or scores.shape[0] != len(names):
            raise ValueError(f"response frame of shape {scores.shape} does "
                             f"not match X-Boundaries {names}")
        return ScoreResult.from_scores(dict(zip(names, scores)))
