"""Benchmark-side spans around the program's public calls.

A :class:`Recorder` swaps chosen functions and methods for wrappers that
record one span per call: name, start, end, process CPU time, parent span
and operation id.  Spans stay in memory until the run ends.  A span opened
while another is open on the same thread is its child and shares its
operation id; a root span starts a new operation.  Self time is a span's
duration minus the time its children cover.

The wrappers live only in the benchmark; the program's own tracing
(``repro.obs``) stays disabled.
"""

from __future__ import annotations

import bisect
import functools
import importlib
import itertools
import threading
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple


class Span:
    """One recorded call."""

    __slots__ = ("name", "start", "end", "cpu", "parent", "op", "attrs", "kids")

    def __init__(self, name: str, parent: Optional["Span"], op: int):
        self.name = name
        self.parent = parent
        self.op = op
        self.attrs: Dict[str, float] = {}
        self.kids: Dict[str, float] = {}  # child name -> seconds covered
        self.cpu = time.process_time()  # the start reading until close()
        self.start = time.perf_counter()
        self.end = self.start

    @property
    def duration(self) -> float:
        """Wall seconds."""
        return self.end - self.start

    @property
    def self_time(self) -> float:
        """Wall seconds not covered by child spans."""
        return self.duration - sum(self.kids.values())


#: (module[:class], attribute, span name, hook(span, args, result) or None)
Target = Tuple[str, str, str, Optional[Callable]]


class Recorder:
    """Installs span wrappers and keeps the spans they record."""

    def __init__(self):
        self.spans: List[Span] = []
        self._local = threading.local()
        self._ops = itertools.count()
        self._installed: List[Tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> Span:
        """Start a span on this thread."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        span = Span(name, parent, parent.op if parent else next(self._ops))
        stack.append(span)
        return span

    def close(self, span: Span) -> None:
        """Finish ``span`` (the innermost open span of this thread)."""
        span.end = time.perf_counter()
        span.cpu = time.process_time() - span.cpu
        self._stack().pop()
        if span.parent is not None:
            kids = span.parent.kids
            kids[span.name] = kids.get(span.name, 0.0) + span.duration
        self.spans.append(span)

    def wrap(self, name: str, fn: Callable, hook: Optional[Callable] = None):
        """``fn`` with every call recorded as a span called ``name``."""
        recorder = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = recorder.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                recorder.close(span)
            if hook is not None:
                hook(span, args, result)
            return result

        return traced

    # -- installation --------------------------------------------------

    def install(self, targets: Sequence[Target]) -> None:
        """Replace each target callable by its span wrapper."""
        for where, attribute, name, hook in targets:
            module_name, _, class_name = where.partition(":")
            owner = importlib.import_module(module_name)
            if class_name:
                owner = getattr(owner, class_name)
                original = owner.__dict__[attribute]
            else:
                original = getattr(owner, attribute)
            setattr(owner, attribute, self.wrap(name, original, hook))
            self._installed.append((owner, attribute, original))

    def uninstall(self) -> None:
        """Put every original callable back."""
        while self._installed:
            owner, attribute, original = self._installed.pop()
            setattr(owner, attribute, original)

    # -- queries -------------------------------------------------------

    def named(self, name: str) -> List[Span]:
        """Finished spans called ``name``."""
        return [span for span in self.spans if span.name == name]


def total(spans: Sequence[Span], what: str = "duration") -> float:
    """Sum of ``duration``, ``self_time`` or ``cpu`` seconds over spans."""
    return sum(getattr(span, what) for span in spans)


def attr_total(spans: Sequence[Span], key: str) -> float:
    """Sum of one recorded attribute over spans."""
    return sum(span.attrs.get(key, 0.0) for span in spans)


# ----------------------------------------------------------------------
# what each workload wraps
# ----------------------------------------------------------------------


def _kmm_hook(span, args, result):
    span.attrs["qp_iterations"] = float(result.qp_iterations_)
    span.attrs["ess"] = float(result.effective_sample_size())


def _ocsvm_hook(span, args, result):
    span.attrs["iterations"] = float(result.n_iterations_)
    span.attrs["n_support"] = float(result.support_vectors_.shape[0])


def _rows_hook(span, args, result):
    span.attrs["rows"] = float(result.n_devices)


#: Lot calibration: the platform, learning, statistics and pipeline layers.
CALIBRATE_TARGETS: Tuple[Target, ...] = (
    ("repro.experiments.platformcfg", "generate_experiment_data", "platform", None),
    ("repro.circuits.montecarlo:MonteCarloEngine", "run", "platform.mc", None),
    ("repro.silicon.foundry:Foundry", "fabricate", "platform.silicon", None),
    ("repro.testbed.campaign:FingerprintCampaign", "measure_population",
     "platform.silicon", None),
    # The pipeline looks the trainer up in its own module namespace.
    ("repro.core.pipeline", "train_regressions", "learn.mars.fit", None),
    ("repro.stats.kde:AdaptiveKde", "fit", "stats.kde.fit", None),
    ("repro.stats.kde:AdaptiveKde", "sample", "stats.kde.sample", None),
    ("repro.stats.kmm:KernelMeanMatcher", "fit", "stats.kmm.fit", _kmm_hook),
    ("repro.learn.ocsvm:OneClassSvm", "fit", "learn.ocsvm.fit", _ocsvm_hook),
    ("repro.core.boundaries:TrustedRegion", "fit", "core.boundaries.fit", None),
    ("repro.core.boundaries:TrustedRegion", "decision_scores",
     "core.boundaries.decision", None),
    ("repro.core.pipeline:GoldenChipFreeDetector", "fit_premanufacturing",
     "core.pipeline.fit", None),
    ("repro.core.pipeline:GoldenChipFreeDetector", "fit_silicon",
     "core.pipeline.fit", None),
    ("repro.core.pipeline:GoldenChipFreeDetector", "evaluate",
     "core.pipeline.evaluate", None),
)

#: Inside the server process: HTTP handler, batcher, engine, kernel.
SERVER_TARGETS: Tuple[Target, ...] = (
    ("repro.serve.server:_Handler", "do_POST", "serve.http.handle", None),
    ("repro.serve.engine:BatchingEngine", "submit", "serve.batcher.submit", None),
    ("repro.serve.engine:ScoringEngine", "validate_request",
     "serve.engine.validate", None),
    ("repro.serve.engine:ScoringEngine", "score", "serve.engine.score", _rows_hook),
    ("repro.core.boundaries:TrustedRegion", "decision_scores",
     "core.boundaries.decision", None),
)

#: Inside the load generator: the wire client.
CLIENT_TARGETS: Tuple[Target, ...] = (
    ("repro.serve.client:ScoringClient", "score", "serve.client.request", None),
)


def server_layers(recorder: Recorder) -> dict:
    """Server-side per-request figures (seconds and counts, JSON-ready).

    Each ``submit`` waited for the batch that scored it: the last
    ``ScoringEngine.score`` call that ran inside the submit's interval on
    the batcher thread.  Its wait is the submit time not spent validating
    and not spent in that score call.
    """
    handles = recorder.named("serve.http.handle")
    submits = recorder.named("serve.batcher.submit")
    scores = sorted(recorder.named("serve.engine.score"), key=lambda s: s.end)
    ends = [span.end for span in scores]
    validate_s = wait_s = score_s = decision_s = 0.0
    matched = 0
    for submit in submits:
        validate = submit.kids.get("serve.engine.validate", 0.0)
        validate_s += validate
        index = bisect.bisect_right(ends, submit.end) - 1
        batch = scores[index] if index >= 0 else None
        if batch is None or batch.start < submit.start:
            continue
        matched += 1
        score_s += batch.duration
        decision_s += batch.kids.get("core.boundaries.decision", 0.0)
        wait_s += submit.duration - validate - batch.duration
    return {
        "requests": len(handles),
        "handle_s": total(handles),
        "overhead_s": total(handles, "self_time"),
        "submits": len(submits),
        "matched": matched,
        "validate_s": validate_s,
        "wait_s": wait_s,
        "score_s": score_s,
        "decision_s": decision_s,
        "score_calls": len(scores),
        "score_call_s": total(scores),
        "score_rows": attr_total(scores, "rows"),
    }
