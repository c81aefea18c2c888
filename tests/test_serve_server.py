"""End-to-end HTTP tests: the screening service over a real socket.

One bundle-backed :class:`DetectorServer` on an ephemeral port serves the
whole module; every test talks to it through the stdlib-only
:class:`ScoringClient`.  This module is also the ``make smoke-serve``
target: it proves the full export → serve → score loop, the structured
error contract, and correctness under concurrent clients.
"""

from __future__ import annotations

import http.client
import json
import struct
import sys
import threading
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.core.config import DetectorConfig
from repro.core.pipeline import BOUNDARY_NAMES, GoldenChipFreeDetector
from repro.experiments.platformcfg import PlatformConfig, generate_experiment_data
from repro.serve import server as server_module
from repro.serve.bundle import export_bundle, load_bundle
from repro.serve.client import ScoringClient, ServerError
from repro.serve.engine import (
    FRAME_CONTENT_TYPE,
    MAX_FRAME_NDIM,
    decode_frame,
    encode_frame,
)
from repro.serve.server import DetectorServer, _Handler


@pytest.fixture(scope="module")
def bundle_path(fitted_detector, tmp_path_factory):
    path = tmp_path_factory.mktemp("serve") / "detector.npz"
    export_bundle(fitted_detector, path)
    return str(path)


@pytest.fixture(scope="module")
def server(bundle_path):
    with DetectorServer(bundle_path, port=0) as running:
        yield running


@pytest.fixture(scope="module")
def client(server):
    with ScoringClient(server.url, timeout=30.0) as client:
        client.wait_ready(timeout=10.0)
        yield client


@pytest.fixture()
def make_server(bundle_path):
    """Start private servers on the shared bundle; all stop at teardown."""
    started = []

    def make(**kwargs) -> DetectorServer:
        running = DetectorServer(load_bundle(bundle_path), port=0, **kwargs)
        started.append(running.start())
        return running

    yield make
    for running in started:
        running.stop()


@pytest.fixture()
def connect():
    """Open clients; all close at teardown."""
    opened = []

    def make(url: str, **kwargs) -> ScoringClient:
        opened.append(ScoringClient(url, **kwargs))
        return opened[-1]

    yield make
    for client in opened:
        client.close()


def _connections(server) -> int:
    return server.engine.metrics_snapshot()["counters"].get(
        "serve.connections", 0)


def _hold_scoring(server):
    """Hold ``server``'s scoring passes until released; returns the
    (entered, release) events."""
    entered, release = threading.Event(), threading.Event()
    score = server.engine.score

    def held(fingerprints, boundaries=None):
        entered.set()
        release.wait(timeout=10)
        return score(fingerprints, boundaries)

    server.engine.score = held
    return entered, release


def _post_raw(url: str, body: bytes, content_type="application/json"):
    request = urllib.request.Request(
        url + "/v1/score", data=body,
        headers={"Content-Type": content_type}, method="POST",
    )
    return urllib.request.urlopen(request, timeout=10)


def _post(connection, body: bytes, content_type=FRAME_CONTENT_TYPE,
          query: str = ""):
    """POST ``body`` on a kept-alive ``connection``; (status, headers, data)."""
    connection.request("POST", "/v1/score" + query, body=body,
                       headers={"Content-Type": content_type})
    reply = connection.getresponse()
    return reply.status, reply, reply.read()


def _header(*words: int) -> bytes:
    return struct.pack(f"<{len(words)}Q", *words)


class TestEndpoints:
    def test_healthz(self, client):
        assert client.health() == {"status": "ok"}

    def test_readyz_reports_bundle(self, server, client):
        reply = client._request("GET", "/readyz")
        assert reply["status"] == "ready"
        assert reply["bundle"]["digest"] == server.bundle.digest
        assert reply["bundle"]["boundaries"] == list(BOUNDARY_NAMES)

    def test_metricz_counts_scoring(self, server, client, experiment_data):
        before = client.metrics()["counters"].get("serve.devices_scored", 0)
        client.score(experiment_data.dutt_fingerprints[:5])
        metrics = client.metrics()
        assert metrics["counters"]["serve.devices_scored"] == before + 5
        assert metrics["bundle"]["digest"] == server.bundle.digest
        assert metrics["bundle"]["schema_version"] == 1
        assert "serve.queue_depth" in metrics["gauges"]

    def test_metricz_counts_requests_per_wire_format(self, make_server,
                                                     connect, experiment_data):
        served = make_server()
        connection = http.client.HTTPConnection("127.0.0.1", served.port,
                                                timeout=10)
        try:
            body = json.dumps({
                "fingerprints": experiment_data.dutt_fingerprints[:2].tolist()
            }).encode()
            assert _post(connection, body, "application/json")[0] == 200
        finally:
            connection.close()
        client = connect(served.url)
        client.score(experiment_data.dutt_fingerprints[:3])
        counters = client.metrics()["counters"]
        assert counters["serve.requests.frame"] == 1
        assert counters["serve.requests.json"] == 1

    def test_unknown_route_is_404(self, client):
        with pytest.raises(ServerError) as err:
            client._request("GET", "/v2/nothing")
        assert err.value.status == 404
        assert err.value.code == "not_found"


class TestScoring:
    def test_single_device_matches_detector(self, client, fitted_detector,
                                            experiment_data):
        device = experiment_data.dutt_fingerprints[0]
        result = client.score(device, boundaries=["B5"])
        assert result.n_devices == 1
        expected = fitted_detector.classify(device[None, :], boundary="B5")
        assert np.array_equal(result.verdicts["B5"], expected)

    def test_batch_matches_detector_exactly(self, client, fitted_detector,
                                            experiment_data):
        """JSON floats round-trip exactly: wire scores == in-process scores."""
        fingerprints = experiment_data.dutt_fingerprints
        result = client.score(fingerprints)
        expected = fitted_detector.decision_scores_batch(fingerprints)
        for name in BOUNDARY_NAMES:
            assert np.array_equal(result.scores[name], expected[name]), name
            assert np.array_equal(result.verdicts[name],
                                  expected[name] >= 0.0), name

    def test_boundary_subset(self, client, experiment_data):
        result = client.score(experiment_data.dutt_fingerprints[:2],
                              boundaries=["B3", "B5"])
        assert set(result.scores) == {"B3", "B5"}

    def test_concurrent_clients(self, server, fitted_detector,
                                experiment_data):
        """8 clients hammering the server coalesce without cross-talk."""
        fingerprints = experiment_data.dutt_fingerprints
        expected = fitted_detector.decision_scores_batch(fingerprints)
        n = fingerprints.shape[0]
        slices = [(i % n, fingerprints[i % n:i % n + 2]) for i in range(8)]
        results: dict = {}
        errors: list = []

        def worker(index, offset, block):
            try:
                with ScoringClient(server.url, timeout=30.0) as local:
                    for _ in range(3):
                        results[(index, offset)] = local.score(block)
            except BaseException as error:  # pragma: no cover - test plumbing
                errors.append(error)

        threads = [threading.Thread(target=worker, args=(i, o, b))
                   for i, (o, b) in enumerate(slices)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not errors
        # Coalesced batches go through BLAS with a different stacked shape,
        # which may perturb the last ULP — hence allclose, not array_equal.
        for (index, offset), result in results.items():
            width = result.n_devices
            for name in BOUNDARY_NAMES:
                np.testing.assert_allclose(
                    result.scores[name], expected[name][offset:offset + width],
                    rtol=1e-9, atol=1e-12, err_msg=f"{index}/{offset}/{name}",
                )


class TestErrorContract:
    def test_nan_payload_is_structured_400(self, client, experiment_data):
        poisoned = experiment_data.dutt_fingerprints[:2].copy()
        poisoned[0, 0] = np.nan
        with pytest.raises(ServerError) as err:
            client.score(poisoned)
        assert err.value.status == 400
        assert err.value.code == "non_finite"

    def test_wrong_width_is_structured_400(self, client, experiment_data):
        narrow = experiment_data.dutt_fingerprints[:2, :-1]
        with pytest.raises(ServerError) as err:
            client.score(narrow)
        assert err.value.status == 400
        assert err.value.code == "bad_width"

    def test_non_numeric_is_structured_400(self, server):
        body = json.dumps({"fingerprints": [["a", "b"]]}).encode()
        with pytest.raises(urllib.error.HTTPError) as err:
            _post_raw(server.url, body)
        assert err.value.code == 400
        assert json.loads(err.value.read())["error"]["code"] == "bad_dtype"

    def test_unknown_boundary_is_structured_400(self, client,
                                                experiment_data):
        with pytest.raises(ServerError) as err:
            client.score(experiment_data.dutt_fingerprints[:1],
                         boundaries=["B9"])
        assert err.value.status == 400
        assert err.value.code == "unknown_boundary"

    def test_oversized_batch_is_structured_400(self, bundle_path,
                                               experiment_data):
        with DetectorServer(load_bundle(bundle_path), port=0,
                            max_request_devices=8) as capped:
            with ScoringClient(capped.url) as local:
                local.wait_ready()
                with pytest.raises(ServerError) as err:
                    local.score(experiment_data.dutt_fingerprints[:9])
        assert err.value.status == 400
        assert err.value.code == "too_large"

    def test_unparseable_body_is_bad_json(self, server):
        with pytest.raises(urllib.error.HTTPError) as err:
            _post_raw(server.url, b"{not json")
        assert err.value.code == 400
        assert json.loads(err.value.read())["error"]["code"] == "bad_json"

    def test_missing_fingerprints_is_bad_request(self, server):
        with pytest.raises(urllib.error.HTTPError) as err:
            _post_raw(server.url, json.dumps({"devices": []}).encode())
        assert err.value.code == 400
        assert json.loads(err.value.read())["error"]["code"] == "bad_request"

    def test_bad_boundaries_type_is_bad_request(self, server,
                                                experiment_data):
        body = json.dumps({
            "fingerprints": experiment_data.dutt_fingerprints[:1].tolist(),
            "boundaries": "B5",
        }).encode()
        with pytest.raises(urllib.error.HTTPError) as err:
            _post_raw(server.url, body)
        assert err.value.code == 400
        assert json.loads(err.value.read())["error"]["code"] == "bad_request"

    def test_empty_body_is_rejected(self, server):
        with pytest.raises(urllib.error.HTTPError) as err:
            _post_raw(server.url, b"")
        assert err.value.code == 400
        assert json.loads(err.value.read())["error"]["code"] == "empty_body"

    def test_server_survives_abuse(self, client, experiment_data):
        """After every bad payload above, the server still scores correctly."""
        result = client.score(experiment_data.dutt_fingerprints[:3])
        assert result.n_devices == 3


class TestFrame:
    """The binary score frame: malformed frames are ``bad_frame``; a
    well-formed one gets today's validation codes."""

    @pytest.fixture()
    def connection(self, server):
        connection = http.client.HTTPConnection("127.0.0.1", server.port,
                                                timeout=10)
        yield connection
        connection.close()

    def _error(self, connection, body, query=""):
        status, reply, data = _post(connection, body, query=query)
        assert reply.getheader("Content-Type") == "application/json"
        return status, json.loads(data)["error"]["code"]

    def test_response_is_a_frame_of_scores(self, connection, fitted_detector,
                                           experiment_data):
        fingerprints = experiment_data.dutt_fingerprints[:4]
        status, reply, data = _post(connection, encode_frame(fingerprints),
                                    query="?boundaries=B5,B2")
        assert status == 200
        assert reply.getheader("Content-Type") == FRAME_CONTENT_TYPE
        assert reply.getheader("X-Boundaries") == "B5,B2"
        scores = decode_frame(data)
        expected = fitted_detector.decision_scores_batch(fingerprints)
        assert scores.shape == (2, 4)
        assert np.array_equal(scores[0], expected["B5"])
        assert np.array_equal(scores[1], expected["B2"])

    @pytest.mark.parametrize("body", [
        b"\x02\x00\x00",
        _header(2, 1),
        _header(2, 2, 6) + bytes(8 * 11),
        _header(2, 2, 6) + bytes(8 * 13),
        _header(2, 1, 6) + bytes(8 * 6 + 3),
        _header(MAX_FRAME_NDIM + 1, *[1] * (MAX_FRAME_NDIM + 1)) + bytes(8),
        _header(2 ** 63, 1),
        _header(2, 2 ** 32, 2 ** 32) + bytes(8),
        _header(2, 0, 2 ** 62),
    ], ids=[
        "shorter-than-ndim", "shorter-than-dims", "one-value-short",
        "one-value-over", "partial-value", "ndim-over-cap", "absurd-ndim",
        "product-overflows-int64", "zero-rows-overflowing-width",
    ])
    def test_malformed_frame_is_bad_frame(self, connection, body):
        assert self._error(connection, body) == (400, "bad_frame")

    def test_validation_codes_are_unchanged(self, connection, experiment_data):
        """A well-formed frame gets the JSON path's codes.  ``too_large``
        and 413 are checked through ``client.score``, which sends frames."""
        rows = experiment_data.dutt_fingerprints[:2]
        poisoned = rows.copy()
        poisoned[1, 3] = np.inf
        cases = [
            (encode_frame(rows.reshape(4, 3)), "", "bad_width"),
            (encode_frame(poisoned), "", "non_finite"),
            (encode_frame(rows[:0]), "", "empty_batch"),
            (encode_frame(rows[None]), "", "bad_shape"),
            (encode_frame(rows), "?boundaries=", "empty_boundaries"),
            (encode_frame(rows), "?boundaries=B5,B9", "unknown_boundary"),
            (encode_frame(rows), "?boundary=B5", "bad_request"),
        ]
        for body, query, code in cases:
            assert self._error(connection, body, query) == (400, code), code

    def test_query_on_a_json_request_is_404(self, connection, experiment_data):
        body = json.dumps({
            "fingerprints": experiment_data.dutt_fingerprints[:1].tolist()
        }).encode()
        status, _, data = _post(connection, body, "application/json",
                                query="?boundaries=B5")
        assert (status, json.loads(data)["error"]["code"]) == (404,
                                                                "not_found")

    def test_json_and_frames_interleave_on_one_connection(
            self, connection, fitted_detector, experiment_data):
        fingerprints = experiment_data.dutt_fingerprints
        sock = None
        for i in range(6):
            rows = fingerprints[i:i + 1 + i % 3]
            want = fitted_detector.decision_scores_batch(rows)
            if i % 2:
                status, _, data = _post(
                    connection, json.dumps({"fingerprints": rows.tolist(),
                                            "boundaries": ["B3"]}).encode(),
                    "application/json")
                reply = json.loads(data)
                assert status == 200 and list(reply["boundaries"]) == ["B3"]
                assert np.array_equal(reply["boundaries"]["B3"]["scores"],
                                      want["B3"])
                assert reply["boundaries"]["B3"]["trojan_free"] == (
                    (want["B3"] >= 0.0).tolist())
            else:
                status, reply, data = _post(connection, encode_frame(rows))
                assert status == 200
                names = reply.getheader("X-Boundaries").split(",")
                assert names == list(BOUNDARY_NAMES)
                scores = decode_frame(data)
                for name, row in zip(names, scores):
                    assert np.array_equal(row, want[name]), (i, name)
            assert sock is None or connection.sock is sock
            sock = connection.sock
            if i == 2:  # a rejected frame keeps the connection usable
                assert self._error(connection, _header(1, 3)) == (
                    400, "bad_frame")


class TestBitIdentity:
    """Frame scores are ``np.array_equal`` to in-process scoring of the
    paper-sized display-lot detector."""

    @pytest.fixture(scope="class")
    def display(self, tmp_path_factory):
        data = generate_experiment_data(PlatformConfig(seed=16))
        detector = GoldenChipFreeDetector(
            DetectorConfig(kde_samples=30_000, seed=11))
        detector.fit_premanufacturing(data.sim_pcms, data.sim_fingerprints)
        detector.fit_silicon(data.dutt_pcms)
        path = tmp_path_factory.mktemp("display") / "detector.npz"
        export_bundle(detector, path)
        with DetectorServer(str(path), port=0) as running:
            with ScoringClient(running.url) as client:
                yield detector, data, client

    @pytest.mark.parametrize("lot", ["display", "screening"])
    @pytest.mark.parametrize("boundaries", [None, ["B4", "B1"]])
    def test_frame_scores_equal_in_process(self, display, lot, boundaries):
        detector, data, client = display
        if lot == "screening":
            data = generate_experiment_data(
                PlatformConfig(seed=10_000, n_chips=342))
        fingerprints = data.dutt_fingerprints
        result = client.score(fingerprints, boundaries=boundaries)
        expected = detector.decision_scores_batch(fingerprints,
                                                  boundaries=boundaries)
        assert list(result.scores) == list(expected)
        assert result.n_devices == fingerprints.shape[0]
        for name, values in expected.items():
            assert np.array_equal(result.scores[name], values), name
            assert np.array_equal(result.verdicts[name], values >= 0.0), name
            assert result.scores[name].dtype == np.float64
            assert result.verdicts[name].dtype == bool
            assert result.scores[name].flags.writeable
            assert result.verdicts[name].flags.writeable


class TestKeepAlive:
    """Requests answered before their body is read on a kept-alive connection."""

    def _connection(self, server):
        return http.client.HTTPConnection("127.0.0.1", server.port, timeout=10)

    def test_early_404_does_not_corrupt_the_next_request(self, server,
                                                         experiment_data):
        connection = self._connection(server)
        try:
            body = json.dumps({
                "fingerprints": experiment_data.dutt_fingerprints[:2].tolist()
            })
            connection.request("POST", "/v1/wrong", body=body)
            reply = connection.getresponse()
            assert reply.status == 404
            assert json.loads(reply.read())["error"]["code"] == "not_found"
            assert not reply.will_close
            sock = connection.sock
            connection.request("POST", "/v1/score", body=body)
            reply = connection.getresponse()
            assert reply.status == 200
            assert json.loads(reply.read())["n_devices"] == 2
            assert connection.sock is sock
        finally:
            connection.close()

    def test_body_of_unknown_length_closes_the_connection(self, server):
        connection = self._connection(server)
        try:
            # An iterable body goes out chunked, with no Content-Length; the
            # client is still sending chunks when the server answers.
            connection.request("POST", "/v1/score", body=iter([b"{}"] * 50))
            reply = connection.getresponse()
            assert reply.status == 400
            assert reply.getheader("Connection") == "close"
            assert json.loads(reply.read())["error"]["code"] == "empty_body"
        finally:
            connection.close()

    def test_oversized_body_closes_the_connection(self, server, monkeypatch):
        monkeypatch.setattr(server_module, "MAX_BODY_BYTES", 16)
        connection = self._connection(server)
        try:
            connection.request("POST", "/v1/score", body=b"x" * 32)
            reply = connection.getresponse()
            assert reply.status == 413
            assert reply.getheader("Connection") == "close"
            assert json.loads(reply.read())["error"]["code"] == "too_large"
        finally:
            connection.close()


class TestClientTransport:
    def test_sequential_calls_reuse_one_connection(self, make_server, connect,
                                                   experiment_data):
        served = make_server()
        client = connect(served.url)
        for _ in range(10):
            assert client.score(experiment_data.dutt_fingerprints[:1],
                                boundaries=["B5"]).n_devices == 1
        client.metrics()
        assert _connections(served) == 1

    def test_reconnects_after_connection_close(self, make_server, connect, monkeypatch,
                                               experiment_data):
        served = make_server()
        client = connect(served.url)
        device = experiment_data.dutt_fingerprints[:1]
        client.score(device)
        monkeypatch.setattr(server_module, "MAX_BODY_BYTES", 64)
        with pytest.raises(ServerError) as err:
            client.score(experiment_data.dutt_fingerprints[:4])
        assert (err.value.status, err.value.code) == (413, "too_large")
        monkeypatch.undo()
        assert client.score(device).n_devices == 1
        assert _connections(served) == 2

    def test_retries_once_when_server_closed_idle_connection(
            self, make_server, connect, experiment_data):
        served = make_server()
        served.RequestHandlerClass = type(
            "_QuickIdleHandler", (_Handler,), {"timeout": 0.2})
        client = connect(served.url)
        device = experiment_data.dutt_fingerprints[:1]
        client.score(device)
        deadline = time.monotonic() + 10
        while served.open_connections:  # the server drops the idle socket
            assert time.monotonic() < deadline, "idle connection kept open"
            time.sleep(0.01)
        result = client.score(device, boundaries=["B5"])
        assert set(result.scores) == {"B5"} and result.n_devices == 1
        assert _connections(served) == 2

    def test_timed_out_call_leaves_client_usable(self, make_server, connect,
                                                 fitted_detector,
                                                 experiment_data):
        served = make_server()
        entered, release = _hold_scoring(served)
        client = connect(served.url, timeout=0.3)
        fingerprints = experiment_data.dutt_fingerprints
        with pytest.raises(TimeoutError):
            client.score(fingerprints[:4])
        assert entered.is_set()
        release.set()
        # The late 4-device reply must not be read as this call's answer.
        result = client.score(fingerprints[5:6], boundaries=["B5"])
        assert result.n_devices == 1
        expected = fitted_detector.decision_scores_batch(fingerprints[5:6])
        assert np.array_equal(result.scores["B5"], expected["B5"])

    def test_error_statuses_raise_server_error(self, make_server, connect, monkeypatch,
                                               experiment_data):
        served = make_server(max_queue=1)
        client = connect(served.url)
        device = experiment_data.dutt_fingerprints[:1]

        def status_and_code(call):
            with pytest.raises(ServerError) as err:
                call()
            return err.value.status, err.value.code

        poisoned = device.copy()
        poisoned[0, 0] = np.nan
        assert status_and_code(lambda: client.score(poisoned)) == (
            400, "non_finite")
        assert status_and_code(
            lambda: client._request("POST", "/v1/wrong", {"fingerprints": []})
        ) == (404, "not_found")
        monkeypatch.setattr(server_module, "MAX_BODY_BYTES", 16)
        assert status_and_code(lambda: client.score(device)) == (
            413, "too_large")
        monkeypatch.undo()
        monkeypatch.setattr(served, "ready", lambda: False)
        assert status_and_code(lambda: client.score(device)) == (
            503, "not_ready")
        monkeypatch.undo()
        # Non-JSON error bodies (the stdlib's HTML pages) still map.
        status, code = status_and_code(lambda: client._request("BREW", "/"))
        assert status == 501 and code == "unknown"

        entered, release = _hold_scoring(served)
        held = threading.Thread(
            target=lambda: connect(served.url).score(device), daemon=True)
        queued = threading.Thread(
            target=lambda: connect(served.url).score(device), daemon=True)
        held.start()
        try:
            assert entered.wait(timeout=10)
            queued.start()
            deadline = time.monotonic() + 10
            while served.batcher.queue_depth != 1:
                assert time.monotonic() < deadline, "request never queued"
                time.sleep(0.001)
            assert status_and_code(lambda: client.score(device)) == (
                429, "queue_full")
        finally:
            release.set()
        held.join(timeout=10)
        queued.join(timeout=10)
        assert not held.is_alive() and not queued.is_alive()
        assert client.score(device).n_devices == 1

    def test_shared_client_is_thread_safe(self, make_server, connect, fitted_detector,
                                          experiment_data):
        """Threads sharing one client take turns on its connection; each
        gets the answer to its own request."""
        served = make_server()
        client = connect(served.url)
        fingerprints = experiment_data.dutt_fingerprints
        expected = fitted_detector.decision_scores_batch(fingerprints)["B5"]
        mismatches: list = []
        errors: list = []

        def worker(index):
            try:
                for _ in range(15):
                    rows = slice(index, index + 1 + index % 3)
                    result = client.score(fingerprints[rows], boundaries=["B5"])
                    if not np.allclose(result.scores["B5"], expected[rows],
                                       rtol=1e-9, atol=1e-12):
                        mismatches.append(index)
            except BaseException as error:  # pragma: no cover - test plumbing
                errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=worker, args=(i,))
                       for i in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert not errors and not mismatches
        assert _connections(served) == 1


class TestLifecycle:
    def test_start_stop_cycle(self, bundle_path, experiment_data):
        server = DetectorServer(load_bundle(bundle_path), port=0)
        server.start()
        try:
            with ScoringClient(server.url) as local:
                local.wait_ready()
                assert local.score(
                    experiment_data.dutt_fingerprints[:1]).n_devices == 1
        finally:
            server.stop()
        with ScoringClient(server.url, timeout=1.0) as late, \
                pytest.raises(Exception):
            late.health()

    def test_stop_closes_kept_alive_connections(self, bundle_path,
                                                experiment_data):
        server = DetectorServer(load_bundle(bundle_path), port=0).start()
        with ScoringClient(server.url, timeout=5.0) as local:
            device = experiment_data.dutt_fingerprints[:1]
            assert local.score(device).n_devices == 1
            assert server.open_connections == 1
            server.stop()
            deadline = time.monotonic() + 10
            while server.open_connections:
                assert time.monotonic() < deadline, "connection outlived stop()"
                time.sleep(0.01)
            with pytest.raises(Exception):
                local.score(device)
