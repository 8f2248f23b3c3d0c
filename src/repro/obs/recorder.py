"""The process-wide recorder: counters, histograms, spans, event fan-out.

One :class:`Recorder` instance is installed per process (see
:func:`get_recorder` / :func:`set_recorder`).  The default instance is
**disabled**: every instrumentation site either checks
:attr:`Recorder.enabled` or goes through methods that return
immediately, so the fault-injection hot path (per-vectorized-op
accounting in :mod:`repro.taint.ops`) pays one attribute test and
nothing else.

Cross-process aggregation
-------------------------
Campaign workers (:mod:`repro.engine`) cannot share the parent's
recorder, so each worker records into a local recorder and ships an
:class:`ObsSnapshot` — a picklable bundle of counters, histograms, span
totals and buffered events — back with its results.  The parent calls
:meth:`Recorder.absorb` to merge the aggregates and re-emit the events
to its own sinks, preserving serial-run semantics (progress lines,
traces and metric summaries see every trial exactly once).  A worker
recorder built with ``span_prefix=("campaign",)`` nests its trial spans
under the parent's campaign span, keeping span paths identical to a
serial run.

Metrics model
-------------
* **counters** — monotonically increasing totals (``fp.add.rank0``,
  ``cache.hit``), integer or float;
* **gauges** — last-write-wins values (``campaign.trials_planned``,
  ``campaign.trials_done``), the live-telemetry view of "where is the
  run right now";
* **histograms** — lists of observed samples
  (``taint.contamination_spread``, ``scheduler.blocked_ranks``), with a
  ``(count, sum, min, max)`` summary per name folded in step
  (:attr:`Recorder.histogram_stats`) for views that need no quantiles;
* **spans** — nested wall-clock phases.  ``span("campaign")`` /
  ``span("trial")`` / ``span("inject")`` nest into slash-joined paths
  (``campaign/trial/inject``); each close accumulates (count, total
  seconds) per path and emits a :class:`~repro.obs.events.SpanEnd`;
* **profile** — the hot-path profiler's attribution table, keyed
  ``(path, op kind, rank) -> [ops, calls, seconds]``.  Populated only
  while :attr:`Recorder.profiling` is set (see
  :mod:`repro.obs.profiler`); ``path`` extends the span path with
  lightweight *profiler frames* (:meth:`Recorder.push_frame`) that cost
  a list append and emit no events.

Thread safety
-------------
The live telemetry server (:mod:`repro.obs.live`) reads a recorder from
its own thread while a campaign writes.  The hot path stays lock-free;
:meth:`snapshot` instead retries the rare ``RuntimeError`` CPython
raises when a dict or deque is resized mid-copy, so readers always get
a consistent-enough copy without the writers paying anything.  Live
scrapes read :attr:`Recorder.histogram_stats`, one tuple per name, so
their cost does not grow with the number of samples observed.
"""

from __future__ import annotations

import contextlib
import time
from dataclasses import dataclass, field
from typing import Callable, ContextManager, Iterator, Sequence

from repro.obs.events import Event, SpanEnd
from repro.obs.sinks import Sink

__all__ = [
    "ObsSnapshot", "Recorder", "get_recorder", "set_recorder", "recording",
    "reset",
]


#: ``(count, sum, min, max)`` of a histogram with no samples yet.
_EMPTY_STATS: tuple = (0, 0, None, None)


def _fold(stats: tuple, value: float) -> tuple:
    """``stats`` with one more sample; the same figures as ``len``,
    ``sum``, ``min`` and ``max`` over the samples in order."""
    count, total, lo, hi = stats
    return (
        count + 1,
        total + value,
        value if lo is None or value < lo else lo,
        value if hi is None or value > hi else hi,
    )


def _copy_racing(mapping: dict, value_copy: Callable | None = None) -> dict:
    """Copy a dict that another thread may be resizing concurrently.

    CPython raises ``RuntimeError`` when a dict grows during iteration;
    a bounded retry loop is cheaper (and hot-path-free) than locking
    every counter increment.  Falls back to a key-by-key copy if the
    writer outruns every retry.
    """
    for _ in range(64):
        try:
            if value_copy is None:
                return dict(mapping)
            return {k: value_copy(v) for k, v in mapping.items()}
        except RuntimeError:
            continue
    out: dict = {}
    for key in list(mapping):
        value = mapping.get(key)
        if value is not None:
            out[key] = value_copy(value) if value_copy else value
    return out


@dataclass
class ObsSnapshot:
    """Picklable aggregate of one recorder's state (plus buffered events).

    Produced by :meth:`Recorder.snapshot` in a worker process and merged
    into the parent's recorder with :meth:`Recorder.absorb`.  ``profile``
    carries the hot-path profiler's attribution rows so per-(phase, op
    kind, rank) data survives worker aggregation exactly like counters
    do; ``trace`` carries the causal spans collected while
    :attr:`Recorder.tracing` was set (see :mod:`repro.obs.trace`).
    Both stay out of checkpoint files (wall times are not deterministic,
    and checkpoint bytes must not depend on whether profiling or tracing
    was on) — ``trace`` defaults to empty so old checkpoints still
    deserialize.
    """

    counters: dict[str, float] = field(default_factory=dict)
    histograms: dict[str, list[float]] = field(default_factory=dict)
    span_totals: dict[str, list[float]] = field(default_factory=dict)
    events: list[Event] = field(default_factory=list)
    profile: dict[tuple[str, str, int], list[float]] = field(
        default_factory=dict
    )
    trace: list[dict] = field(default_factory=list)


class _NullSpan:
    """Shared no-op span: the disabled path allocates nothing per call."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc_info) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class Recorder:
    """Counters, histograms and nested timing spans for one process."""

    def __init__(
        self,
        sinks: Sequence[Sink] = (),
        enabled: bool | None = None,
        clock: Callable[[], float] = time.perf_counter,
        span_prefix: Sequence[str] = (),
        profiling: bool = False,
        tracing: bool = False,
    ):
        self.sinks: list[Sink] = list(sinks)
        #: master switch — instrumentation sites test this one attribute.
        self.enabled: bool = bool(self.sinks) if enabled is None else enabled
        #: hot-path profiler switch; meaningful only while ``enabled``.
        #: Profiled objects (FPOps, the scheduler) resolve it once per
        #: instance, so the disabled path stays one attribute test.
        self.profiling: bool = profiling
        #: causal-tracing switch (see :mod:`repro.obs.trace`); like
        #: ``profiling``, meaningful only while ``enabled``, and the
        #: disabled path costs callers one attribute test.
        self.tracing: bool = tracing
        #: collected span dicts (cumulative across campaigns, like
        #: ``profile``); scoped per campaign by ``obs.trace.TraceScope``.
        self.trace_spans: list[dict] = []
        #: the driver/worker's current ``obs.trace.TraceContext`` (kept
        #: untyped: the recorder never imports the tracing module).
        self.trace_ctx = None
        self.counters: dict[str, float] = {}
        self.gauges: dict[str, float] = {}
        self.histograms: dict[str, list[float]] = {}
        #: histogram name -> ``(count, sum, min, max)``, kept in step
        #: with ``histograms``.  Each update stores a new tuple, so a
        #: reader on another thread never sees a half-applied sample.
        self.histogram_stats: dict[str, tuple] = {}
        #: span path -> [count, total_seconds]
        self.span_totals: dict[str, list[float]] = {}
        #: (path, op kind, rank) -> [ops, calls, seconds]
        self.profile: dict[tuple[str, str, int], list[float]] = {}
        #: ``span_prefix`` seeds the nesting so a worker's trial spans
        #: report the same paths as the parent's (never closed here).
        self._span_stack: list[str] = list(span_prefix)
        #: profiler frames nested below the span stack (no events).
        self._prof_stack: list[str] = []
        self._clock = clock

    # ------------------------------------------------------------------
    # metrics
    # ------------------------------------------------------------------
    def counter(self, name: str, value: float = 1) -> None:
        """Add ``value`` to counter ``name`` (no-op while disabled)."""
        if not self.enabled:
            return
        self.counters[name] = self.counters.get(name, 0) + value

    def gauge(self, name: str, value: float) -> None:
        """Set gauge ``name`` to ``value`` (no-op while disabled)."""
        if not self.enabled:
            return
        self.gauges[name] = value

    def observe(self, name: str, value: float) -> None:
        """Append ``value`` to histogram ``name`` (no-op while disabled)."""
        if not self.enabled:
            return
        self.histograms.setdefault(name, []).append(value)
        self.histogram_stats[name] = _fold(
            self.histogram_stats.get(name, _EMPTY_STATS), value
        )

    # ------------------------------------------------------------------
    # hot-path profiling
    # ------------------------------------------------------------------
    def push_frame(self, name: str) -> None:
        """Enter a profiler frame: extends the attribution path only.

        Unlike :meth:`span`, a frame emits no event and touches no
        aggregate on exit — it exists so :meth:`profile_op` calls made
        inside it attribute to a deeper path (e.g. the scheduler's
        ``advance`` frame under ``campaign/trial/inject``).  Callers
        must pair it with :meth:`pop_frame` in a ``finally``.
        """
        self._prof_stack.append(name)

    def pop_frame(self) -> None:
        """Leave the innermost profiler frame."""
        self._prof_stack.pop()

    def profile_op(self, kind: str, rank: int, ops: float, seconds: float) -> None:
        """Attribute ``ops`` instructions / ``seconds`` wall time.

        The attribution path is the current span path extended by any
        profiler frames; one row accumulates per ``(path, kind, rank)``.
        No-op unless :attr:`profiling` is set (hot callers cache the
        check per instance and never reach here while off).
        """
        if not self.profiling:
            return
        path = "/".join((*self._span_stack, *self._prof_stack))
        agg = self.profile.get((path, kind, rank))
        if agg is None:
            agg = self.profile.setdefault((path, kind, rank), [0.0, 0, 0.0])
        agg[0] += ops
        agg[1] += 1
        agg[2] += seconds

    # ------------------------------------------------------------------
    # causal tracing
    # ------------------------------------------------------------------
    def add_trace_span(self, span: dict) -> None:
        """Collect one causal span dict (no-op unless tracing is on).

        Spans are built by :func:`repro.obs.trace.make_span`; they are
        exported by :mod:`repro.obs.timeline` and never feed back into
        execution, so recording them cannot perturb results.
        """
        if self.enabled and self.tracing:
            self.trace_spans.append(span)

    # ------------------------------------------------------------------
    # spans
    # ------------------------------------------------------------------
    def span(self, name: str) -> ContextManager:
        """Time a phase; nesting builds slash-joined paths.

        While disabled this returns a shared no-op context manager, so
        per-trial spans in the campaign loop cost one call and no
        allocation.
        """
        if not self.enabled:
            return _NULL_SPAN
        if "/" in name:
            raise ValueError(f"span name may not contain '/': {name!r}")
        return self._live_span(name)

    @contextlib.contextmanager
    def _live_span(self, name: str) -> Iterator["Recorder"]:
        self._span_stack.append(name)
        path = "/".join(self._span_stack)
        t0 = self._clock()
        try:
            yield self
        finally:
            duration = self._clock() - t0
            self._span_stack.pop()
            agg = self.span_totals.setdefault(path, [0, 0.0])
            agg[0] += 1
            agg[1] += duration
            self.emit(SpanEnd(path=path, duration_s=duration))

    # ------------------------------------------------------------------
    # events
    # ------------------------------------------------------------------
    def emit(self, event: Event) -> None:
        """Fan ``event`` out to every sink (no-op while disabled)."""
        if not self.enabled:
            return
        for sink in self.sinks:
            sink.write(event)

    def close(self) -> None:
        """Close all sinks (flushes the JSONL trace, finishes progress)."""
        for sink in self.sinks:
            sink.close()

    # ------------------------------------------------------------------
    # cross-process aggregation
    # ------------------------------------------------------------------
    def snapshot(self, events: Sequence[Event] = ()) -> ObsSnapshot:
        """Copy this recorder's aggregates into a picklable bundle.

        ``events`` lets the caller attach the buffered event stream of a
        :class:`~repro.obs.sinks.MemorySink` so the parent can re-emit
        it in order.  Safe to call from another thread while this
        recorder is being written (see *Thread safety* above).
        """
        return ObsSnapshot(
            counters=_copy_racing(self.counters),
            histograms=_copy_racing(self.histograms, list),
            span_totals=_copy_racing(self.span_totals, list),
            events=list(events),
            profile=_copy_racing(self.profile, list),
            trace=list(self.trace_spans),
        )

    def absorb(self, snapshot: ObsSnapshot, emit_events: bool = True) -> None:
        """Merge a worker's :class:`ObsSnapshot` into this recorder.

        Counters add, histograms extend, span totals and profile rows
        accumulate, trace spans append, and the snapshot's events are
        re-emitted to this recorder's sinks in their original order.
        No-op while disabled.
        """
        if not self.enabled:
            return
        for name, value in snapshot.counters.items():
            self.counters[name] = self.counters.get(name, 0) + value
        for name, values in snapshot.histograms.items():
            self.histograms.setdefault(name, []).extend(values)
            stats = self.histogram_stats.get(name, _EMPTY_STATS)
            for value in values:
                stats = _fold(stats, value)
            self.histogram_stats[name] = stats
        for path, (count, total) in snapshot.span_totals.items():
            agg = self.span_totals.setdefault(path, [0, 0.0])
            agg[0] += count
            agg[1] += total
        for key, (ops, calls, seconds) in snapshot.profile.items():
            agg = self.profile.setdefault(key, [0.0, 0, 0.0])
            agg[0] += ops
            agg[1] += calls
            agg[2] += seconds
        self.trace_spans.extend(snapshot.trace)
        if emit_events:
            for event in snapshot.events:
                self.emit(event)


#: The process-wide recorder; disabled until something installs sinks.
_RECORDER = Recorder()


def get_recorder() -> Recorder:
    """The currently installed process-wide recorder."""
    return _RECORDER


def set_recorder(recorder: Recorder) -> Recorder:
    """Install ``recorder`` globally; returns the previous one."""
    global _RECORDER
    previous, _RECORDER = _RECORDER, recorder
    return previous


def reset() -> Recorder:
    """Reinstall the default disabled recorder; returns the previous one.

    Instrumented objects resolve the recorder once per instance (e.g.
    :class:`repro.taint.ops.FPOps` per execution), so a reset takes
    effect for everything constructed afterwards.
    """
    return set_recorder(Recorder())


@contextlib.contextmanager
def recording(recorder: Recorder) -> Iterator[Recorder]:
    """Temporarily install ``recorder`` (tests, scoped instrumentation)."""
    previous = set_recorder(recorder)
    try:
        yield recorder
    finally:
        set_recorder(previous)
