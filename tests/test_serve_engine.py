"""Scoring-engine tests: validation codes, vectorized parity, micro-batching.

Covers the synchronous :class:`ScoringEngine` (every structured rejection
code, parity with the detector's own ``classify``) and the
:class:`BatchingEngine` (an idle scorer scores on the caller's thread, a
backlog drains FIFO without being overtaken, one validation per request,
per-request result slicing under concurrency, backpressure, timeouts that
leave the queue, clean shutdown).
"""

from __future__ import annotations

import json
import sys
import threading
import time

import numpy as np
import pytest

from repro.core.pipeline import BOUNDARY_NAMES
from repro.serve.engine import (
    BatchingEngine,
    QueueFullError,
    RequestValidationError,
    ScoreResult,
    ScoringEngine,
)


@pytest.fixture(scope="module")
def engine(fitted_detector):
    return ScoringEngine(fitted_detector)


def _code(excinfo) -> str:
    return excinfo.value.code


class TestValidation:
    def test_non_numeric_is_bad_dtype(self, engine):
        with pytest.raises(RequestValidationError) as err:
            engine.validate_request([["a", "b"]])
        assert _code(err) == "bad_dtype"

    def test_ragged_rows_are_bad_dtype(self, engine):
        with pytest.raises(RequestValidationError) as err:
            engine.validate_request([[1.0, 2.0], [3.0]])
        assert _code(err) == "bad_dtype"

    def test_3d_array_is_bad_shape(self, engine):
        with pytest.raises(RequestValidationError) as err:
            engine.validate_request(np.zeros((2, 3, 4)))
        assert _code(err) == "bad_shape"

    def test_zero_devices_is_empty_batch(self, engine):
        width = engine.n_features
        with pytest.raises(RequestValidationError) as err:
            engine.validate_request(np.empty((0, width)))
        assert _code(err) == "empty_batch"

    def test_device_cap_is_too_large(self, fitted_detector):
        capped = ScoringEngine(fitted_detector, max_request_devices=4)
        batch = np.zeros((5, capped.n_features))
        with pytest.raises(RequestValidationError) as err:
            capped.validate_request(batch)
        assert _code(err) == "too_large"

    def test_wrong_width_is_bad_width(self, engine):
        with pytest.raises(RequestValidationError) as err:
            engine.validate_request(np.zeros((2, engine.n_features + 1)))
        assert _code(err) == "bad_width"

    @pytest.mark.parametrize("poison", [np.nan, np.inf, -np.inf])
    def test_non_finite_values(self, engine, poison):
        batch = np.zeros((2, engine.n_features))
        batch[1, 0] = poison
        with pytest.raises(RequestValidationError) as err:
            engine.validate_request(batch)
        assert _code(err) == "non_finite"

    def test_unknown_boundary(self, engine):
        batch = np.zeros((1, engine.n_features))
        with pytest.raises(RequestValidationError) as err:
            engine.validate_request(batch, boundaries=["B9"])
        assert _code(err) == "unknown_boundary"

    def test_empty_boundary_list(self, engine):
        batch = np.zeros((1, engine.n_features))
        with pytest.raises(RequestValidationError) as err:
            engine.validate_request(batch, boundaries=[])
        assert _code(err) == "empty_boundaries"

    def test_single_device_promoted_to_batch(self, engine, experiment_data):
        array, names = engine.validate_request(
            experiment_data.dutt_fingerprints[0]
        )
        assert array.shape == (1, engine.n_features)
        assert names == tuple(BOUNDARY_NAMES)

    def test_unfitted_detector_rejected(self):
        class _Bare:
            boundaries = {}

        with pytest.raises(ValueError, match="no trained boundaries"):
            ScoringEngine(_Bare())


class TestScoring:
    def test_matches_detector_classify(self, engine, fitted_detector,
                                       experiment_data):
        fingerprints = experiment_data.dutt_fingerprints
        result = engine.score(fingerprints)
        expected = fitted_detector.decision_scores_batch(fingerprints)
        for name in BOUNDARY_NAMES:
            assert np.array_equal(result.scores[name], expected[name])
            assert np.array_equal(
                result.verdicts[name],
                fitted_detector.classify(fingerprints, boundary=name),
            )

    def test_boundary_subset(self, engine, experiment_data):
        result = engine.score(experiment_data.dutt_fingerprints[:3],
                              boundaries=["B5", "B3"])
        assert set(result.scores) == {"B3", "B5"}
        assert result.n_devices == 3

    def test_to_json_round_trips(self, engine, experiment_data):
        result = engine.score(experiment_data.dutt_fingerprints[:2],
                              boundaries=["B5"])
        payload = result.to_json()
        assert payload["n_devices"] == 2
        block = payload["boundaries"]["B5"]
        assert block["scores"] == [float(s) for s in result.scores["B5"]]
        assert block["trojan_free"] == [bool(v) for v in result.verdicts["B5"]]

    def test_json_body_matches_per_element_conversion(self):
        scores = np.array([0.5, -0.25, 1e-300, -1e-300, 5e-324, 0.0, -0.0,
                           0.1, 1.0 / 3.0, -123456.789])
        verdicts = scores >= 0.0
        result = ScoreResult(scores={"B5": scores}, verdicts={"B5": verdicts},
                             n_devices=scores.shape[0])
        elementwise = {
            "n_devices": scores.shape[0],
            "boundaries": {"B5": {
                "trojan_free": [bool(v) for v in verdicts],
                "scores": [float(s) for s in scores],
            }},
        }
        assert json.dumps(result.to_json()) == json.dumps(elementwise)

    def test_metrics_are_recorded(self, fitted_detector, experiment_data):
        engine = ScoringEngine(fitted_detector)
        n = 7
        engine.score(experiment_data.dutt_fingerprints[:n])
        snapshot = engine.metrics_snapshot()
        assert snapshot["counters"]["serve.devices_scored"] == n
        assert snapshot["histograms"]["serve.batch_size"]["count"] == 1
        assert snapshot["histograms"]["serve.latency_ms"]["count"] == 1
        for name in BOUNDARY_NAMES:
            passed = snapshot["counters"][f"serve.verdicts.{name}.trojan_free"]
            flagged = snapshot["counters"][f"serve.verdicts.{name}.flagged"]
            assert passed + flagged == n


class _HeldEngine(ScoringEngine):
    """Records every scoring pass and holds the first until released."""

    def __init__(self, detector, **kwargs):
        super().__init__(detector, **kwargs)
        self.calls: list = []
        self.entered = threading.Event()
        self.release = threading.Event()

    def score(self, fingerprints, boundaries=None):
        self.calls.append((len(fingerprints), tuple(boundaries)))
        self.entered.set()
        assert self.release.wait(timeout=10), "held batch never released"
        return super().score(fingerprints, boundaries)


def _wait_for_depth(batcher, depth):
    deadline = time.monotonic() + 10
    while batcher.queue_depth != depth:
        assert time.monotonic() < deadline, f"queue never reached {depth}"
        time.sleep(0.001)


def _queue_while_held(batcher, engine, requests):
    """Queue ``requests`` in order while a one-device batch is held, then
    release the worker; returns each request's result, in order."""
    results = [None] * len(requests)
    errors: list = []

    def submit(index, fingerprints, boundaries):
        try:
            results[index] = batcher.submit(fingerprints, boundaries=boundaries)
        except BaseException as error:  # pragma: no cover - test plumbing
            errors.append(error)

    threads = []
    first = threading.Thread(
        target=lambda: batcher.submit(requests[0][0][:1]), daemon=True
    )
    first.start()
    assert engine.entered.wait(timeout=10)
    for index, (fingerprints, boundaries) in enumerate(requests):
        thread = threading.Thread(target=submit,
                                  args=(index, fingerprints, boundaries))
        thread.start()
        threads.append(thread)
        # Wait for this request to land so the queue order is known.
        _wait_for_depth(batcher, index + 1)
    engine.release.set()
    for thread in [first, *threads]:
        thread.join(timeout=30)
        assert not thread.is_alive()
    assert not errors
    return results


class TestBatching:
    def test_submit_matches_direct_score(self, fitted_detector,
                                         experiment_data):
        """An uncontended request is scored on the caller's thread."""
        threads = []

        class _ThreadEngine(ScoringEngine):
            def score(self, fingerprints, boundaries=None):
                threads.append(threading.get_ident())
                return super().score(fingerprints, boundaries)

        fingerprints = experiment_data.dutt_fingerprints[:8]
        with BatchingEngine(_ThreadEngine(fitted_detector)) as batcher:
            batched = batcher.submit(fingerprints)
        assert threads == [threading.get_ident()]
        direct = ScoringEngine(fitted_detector).score(fingerprints)
        for name in BOUNDARY_NAMES:
            assert np.array_equal(batched.scores[name], direct.scores[name])
            assert np.array_equal(batched.verdicts[name], direct.verdicts[name])

    def test_concurrent_clients_get_their_own_slices(self, fitted_detector,
                                                     experiment_data):
        """Requests queued while a batch scores form the next batch, FIFO up
        to ``max_batch`` devices, and slice back to per-request results."""
        engine = _HeldEngine(fitted_detector)
        fingerprints = experiment_data.dutt_fingerprints[:36]
        blocks = [fingerprints[i:i + 3] for i in range(0, 36, 3)]
        with BatchingEngine(engine, max_batch=16) as batcher:
            results = _queue_while_held(batcher, engine,
                                        [(block, None) for block in blocks])
        # The held request, then FIFO batches of 5, 5 and 2 requests.
        everything = tuple(BOUNDARY_NAMES)
        assert engine.calls == [(1, everything), (15, everything),
                                (15, everything), (6, everything)]
        histogram = engine.metrics_snapshot()["histograms"]["serve.batch_size"]
        assert (histogram["count"], histogram["total"]) == (4, 37)
        # Each requester gets exactly its rows of the batch it was scored in.
        reference = ScoringEngine(fitted_detector)
        for first, last in ((0, 5), (5, 10), (10, 12)):
            stacked = reference.score(np.concatenate(blocks[first:last]))
            for k in range(first, last):
                offset = 3 * (k - first)
                for name in BOUNDARY_NAMES:
                    assert np.array_equal(
                        results[k].scores[name],
                        stacked.scores[name][offset:offset + 3],
                    ), f"{k}/{name}"
        # ... which agree with scoring the request alone up to the last
        # ULP: a stacked batch goes through BLAS with a different shape.
        alone = reference.score(fingerprints)
        for k, result in enumerate(results):
            assert result.n_devices == 3
            for name in BOUNDARY_NAMES:
                np.testing.assert_allclose(
                    result.scores[name],
                    alone.scores[name][3 * k:3 * k + 3],
                    rtol=1e-9, atol=1e-12, err_msg=f"{k}/{name}",
                )

    def test_arrival_during_backlog_is_scored_after_it(self, fitted_detector,
                                                       experiment_data):
        """A request that arrives while the worker scores one batch of a
        backlog is queued behind the rest of it, not scored at once on its
        own thread."""
        engine = _HeldEngine(fitted_detector)
        fingerprints = experiment_data.dutt_fingerprints
        with BatchingEngine(engine, max_batch=3) as batcher:
            outcome: dict = {}
            first = threading.Thread(
                target=lambda: batcher.submit(fingerprints[:1]), daemon=True)
            first.start()
            assert engine.entered.wait(timeout=10)
            backlog = [threading.Thread(
                target=lambda: batcher.submit(fingerprints[:3]), daemon=True)
                for _ in range(2)]
            for count, thread in enumerate(backlog, start=1):
                thread.start()
                _wait_for_depth(batcher, count)
            # Hold the worker's first backlog pass, not only the idle one.
            held, engine.release = engine.release, threading.Event()
            engine.entered.clear()
            held.set()
            assert engine.entered.wait(timeout=10)
            _wait_for_depth(batcher, 1)
            late = threading.Thread(
                target=lambda: outcome.update(late=batcher.submit(
                    fingerprints[:2])), daemon=True)
            late.start()
            _wait_for_depth(batcher, 2)
            engine.release.set()
            for thread in [first, *backlog, late]:
                thread.join(timeout=30)
                assert not thread.is_alive()
        everything = tuple(BOUNDARY_NAMES)
        assert engine.calls == [(1, everything), (3, everything),
                                (3, everything), (2, everything)]
        assert outcome["late"].n_devices == 2

    def test_arrival_before_the_worker_wakes_is_queued(self, fitted_detector,
                                                       experiment_data):
        """Between the end of a pass and the worker waking for the backlog
        nothing is scoring, yet a new request still queues behind it."""
        unpark = threading.Event()

        class _ParkedBatcher(BatchingEngine):
            def _run(self):
                assert unpark.wait(timeout=10)
                super()._run()

        engine = _HeldEngine(fitted_detector)
        fingerprints = experiment_data.dutt_fingerprints
        with _ParkedBatcher(engine) as batcher:
            first = threading.Thread(
                target=lambda: batcher.submit(fingerprints[:1]), daemon=True)
            first.start()
            assert engine.entered.wait(timeout=10)
            threads = [threading.Thread(
                target=lambda: batcher.submit(fingerprints[:3]), daemon=True)]
            threads[0].start()
            _wait_for_depth(batcher, 1)
            engine.release.set()
            first.join(timeout=10)
            assert not first.is_alive()
            threads.append(threading.Thread(
                target=lambda: batcher.submit(fingerprints[:2]), daemon=True))
            threads[1].start()
            _wait_for_depth(batcher, 2)
            unpark.set()
            for thread in threads:
                thread.join(timeout=10)
                assert not thread.is_alive()
        everything = tuple(BOUNDARY_NAMES)
        assert engine.calls == [(1, everything), (5, everything)]

    def test_mixed_boundary_subsets_in_one_batch(self, fitted_detector,
                                                 experiment_data):
        """One drained batch scores once per boundary subset, and requests
        sharing a subset are stacked even when not adjacent in the queue."""
        engine = _HeldEngine(fitted_detector)
        fingerprints = experiment_data.dutt_fingerprints[:4]
        subsets = [("B5",), ("B1", "B3"), None, ("B5",)]
        with BatchingEngine(engine) as batcher:
            results = _queue_while_held(
                batcher, engine, [(fingerprints, s) for s in subsets]
            )
        assert engine.calls == [(1, tuple(BOUNDARY_NAMES)), (8, ("B5",)),
                                (4, ("B1", "B3")), (4, tuple(BOUNDARY_NAMES))]
        assert set(results[0].scores) == {"B5"}
        assert set(results[1].scores) == {"B1", "B3"}
        assert set(results[2].scores) == set(BOUNDARY_NAMES)
        assert set(results[3].scores) == {"B5"}
        stacked = ScoringEngine(fitted_detector).score(
            np.concatenate([fingerprints, fingerprints]), boundaries=["B5"]
        )
        assert np.array_equal(results[0].scores["B5"], stacked.scores["B5"][:4])
        assert np.array_equal(results[3].scores["B5"], stacked.scores["B5"][4:])

    def test_requests_validate_once(self, fitted_detector, experiment_data):
        validations = []

        class _CountingEngine(ScoringEngine):
            def validate_request(self, fingerprints, boundaries=None):
                validations.append(len(fingerprints))
                return super().validate_request(fingerprints, boundaries)

        with BatchingEngine(_CountingEngine(fitted_detector)) as batcher:
            batcher.submit(experiment_data.dutt_fingerprints[:3])
            assert validations == [3]
            batcher.submit(experiment_data.dutt_fingerprints[:5], ["B5"])
        assert validations == [3, 5]

    def test_device_cap_is_per_request(self, fitted_detector,
                                       experiment_data):
        """Requests under the cap are scored even when their batch is not."""
        engine = _HeldEngine(fitted_detector, max_request_devices=4)
        blocks = [experiment_data.dutt_fingerprints[i:i + 3]
                  for i in (0, 3, 6)]
        with BatchingEngine(engine, max_batch=16) as batcher:
            results = _queue_while_held(batcher, engine,
                                        [(block, None) for block in blocks])
        everything = tuple(BOUNDARY_NAMES)
        assert engine.calls == [(1, everything), (9, everything)]
        stacked = ScoringEngine(fitted_detector).score(np.concatenate(blocks))
        for k, result in enumerate(results):
            assert result.n_devices == 3
            for name in BOUNDARY_NAMES:
                assert np.array_equal(result.scores[name],
                                      stacked.scores[name][3 * k:3 * k + 3])
                assert np.array_equal(result.verdicts[name],
                                      stacked.verdicts[name][3 * k:3 * k + 3])

    def test_concurrent_requests_at_the_cap_all_succeed(self, fitted_detector,
                                                        experiment_data):
        """Threads racing one-device requests and requests of exactly the
        device cap: none is refused, each caller gets its own rows, and no
        request or device goes uncounted."""
        engine = ScoringEngine(fitted_detector, max_request_devices=8)
        fingerprints = experiment_data.dutt_fingerprints
        expected = fitted_detector.decision_scores_batch(fingerprints[:11])
        errors: list = []

        def client(index):
            rows = slice(index, index + (8 if index % 2 else 1))
            try:
                for _ in range(25):
                    result = batcher.submit(fingerprints[rows])
                    assert result.n_devices == rows.stop - rows.start
                    for name in BOUNDARY_NAMES:
                        np.testing.assert_allclose(
                            result.scores[name], expected[name][rows],
                            rtol=1e-9, atol=1e-12)
            except BaseException as error:  # surfaced by the assert below
                errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with BatchingEngine(engine) as batcher:
                threads = [threading.Thread(target=client, args=(index,))
                           for index in range(4)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                    assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert not errors
        snapshot = engine.metrics_snapshot()
        devices = 25 * (1 + 8 + 1 + 8)
        assert snapshot["counters"]["serve.requests"] == 100
        assert snapshot["counters"]["serve.devices_scored"] == devices
        histogram = snapshot["histograms"]["serve.batch_size"]
        assert histogram["total"] == devices
        assert snapshot["histograms"]["serve.latency_ms"]["count"] == (
            histogram["count"])

    def test_requests_and_batches_are_counted_apart(self, fitted_detector,
                                                    experiment_data):
        engine = _HeldEngine(fitted_detector)
        fingerprints = experiment_data.dutt_fingerprints[:2]
        with BatchingEngine(engine) as batcher:
            _queue_while_held(batcher, engine, [(fingerprints, None)] * 3)
        snapshot = engine.metrics_snapshot()
        assert snapshot["counters"]["serve.requests"] == 4
        assert snapshot["counters"]["serve.devices_scored"] == 7
        histogram = snapshot["histograms"]["serve.batch_size"]
        assert (histogram["count"], histogram["total"]) == (2, 7)
        assert snapshot["histograms"]["serve.latency_ms"]["count"] == 2

    def test_invalid_request_rejected_before_queueing(self, engine):
        with BatchingEngine(engine) as batcher:
            with pytest.raises(RequestValidationError):
                batcher.submit(np.full((1, engine.n_features), np.nan))
            assert batcher.queue_depth == 0

    def test_backpressure_raises_queue_full(self, fitted_detector,
                                            experiment_data):
        """With a pass held and the queue full, submit fails fast."""
        engine = _HeldEngine(fitted_detector)
        fingerprints = experiment_data.dutt_fingerprints[:2]
        batcher = BatchingEngine(engine, max_queue=1)
        try:
            first = threading.Thread(
                target=lambda: batcher.submit(fingerprints), daemon=True
            )
            first.start()
            assert engine.entered.wait(timeout=10)
            second = threading.Thread(
                target=lambda: batcher.submit(fingerprints), daemon=True
            )
            second.start()
            _wait_for_depth(batcher, 1)
            with pytest.raises(QueueFullError):
                batcher.submit(fingerprints)
            snapshot = engine.metrics_snapshot()
            assert snapshot["counters"]["serve.rejected"] == 1
        finally:
            engine.release.set()
            batcher.close()
        first.join(timeout=5)
        second.join(timeout=5)
        assert not first.is_alive() and not second.is_alive()

    def test_timed_out_request_leaves_the_queue(self, fitted_detector,
                                                experiment_data):
        """A queued request that times out gives its slot back and is
        never scored."""
        engine = _HeldEngine(fitted_detector)
        fingerprints = experiment_data.dutt_fingerprints
        with BatchingEngine(engine) as batcher:
            first = threading.Thread(
                target=lambda: batcher.submit(fingerprints[:1]), daemon=True)
            first.start()
            try:
                assert engine.entered.wait(timeout=10)
                with pytest.raises(TimeoutError):
                    batcher.submit(fingerprints[:7], timeout=0.1)
                assert batcher.queue_depth == 0
            finally:
                engine.release.set()
            first.join(timeout=10)
            assert not first.is_alive()
        assert engine.calls == [(1, tuple(BOUNDARY_NAMES))]

    def test_submit_after_close_raises(self, fitted_detector, experiment_data):
        """``close`` during a pass on a caller's thread lets that pass
        return its result; any later request is refused."""
        engine = _HeldEngine(fitted_detector)
        fingerprints = experiment_data.dutt_fingerprints[:1]
        batcher = BatchingEngine(engine)
        outcome: dict = {}
        running = threading.Thread(
            target=lambda: outcome.update(result=batcher.submit(fingerprints)),
            daemon=True)
        running.start()
        try:
            assert engine.entered.wait(timeout=10)
            batcher.close()
            with pytest.raises(RuntimeError, match="closed"):
                batcher.submit(fingerprints)
        finally:
            engine.release.set()
        running.join(timeout=10)
        assert not running.is_alive()
        assert outcome["result"].n_devices == 1
        assert engine.calls == [(1, tuple(BOUNDARY_NAMES))]

    def test_knob_validation(self, engine):
        with pytest.raises(ValueError, match="max_batch"):
            BatchingEngine(engine, max_batch=0)
        with pytest.raises(ValueError, match="max_queue"):
            BatchingEngine(engine, max_queue=0)
