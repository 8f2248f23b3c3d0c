"""Trial chunking and chunk execution — the engine's unit of work.

A campaign's trials are partitioned into contiguous ``[start, stop)``
*chunks*.  The chunk is the engine's everything-unit: the scheduling
granule a backend hands to a worker, the payload shipped back to the
driver, the record persisted by the checkpoint store, and the quantum
the aggregator folds.  Chunk boundaries influence scheduling and
checkpoint granularity only — every per-trial decision derives from
``(deployment.seed, trial_index)`` (see :func:`repro.utils.rng.trial_seed`),
so results are chunk-invariant.

:func:`execute_chunk` is the one piece of trial-fold code in the whole
package: the serial path, the worker pool and a resumed campaign all run
it (directly, in a spawned process, or not at all because its persisted
payload was recovered from disk).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

from repro.fi.outcomes import Outcome, TrialRecord
from repro.obs import MemorySink, ObsSnapshot, Recorder, get_recorder, recording
from repro.obs.sinks import Sink
from repro.obs.trace import TraceContext, make_span

if TYPE_CHECKING:  # circular at runtime: campaign dispatches into here
    from repro.fi.campaign import AppProtocol, Deployment
    from repro.fi.profile import InstructionProfile

__all__ = [
    "MAX_CHUNK_TRIALS", "ChunkPayload", "EngineContext", "chunk_bounds",
    "execute_chunk", "plan_chunks",
]

#: Upper bound on trials per chunk: small enough that progress events
#: flow and stragglers rebalance, large enough to amortize task overhead.
MAX_CHUNK_TRIALS = 50


def chunk_bounds(
    trials: int, jobs: int, max_size: int | None = None
) -> list[tuple[int, int]]:
    """Contiguous ``[start, stop)`` chunks covering ``range(trials)``.

    Aims for ~4 chunks per worker (dynamic load balancing without
    flooding the queue), capped at :data:`MAX_CHUNK_TRIALS` and, when
    given, at ``max_size`` (the checkpoint interval: a chunk is the unit
    of durable progress, so ``--checkpoint-every`` bounds it).
    """
    if trials <= 0:
        return []
    size = max(1, min(MAX_CHUNK_TRIALS, math.ceil(trials / (4 * jobs))))
    if max_size is not None:
        size = max(1, min(size, max_size))
    return [(lo, min(lo + size, trials)) for lo in range(0, trials, size)]


def plan_chunks(
    trials: int, jobs: int, checkpoint_every: int | None = None
) -> list[tuple[int, int]]:
    """The chunk layout for one campaign execution.

    Without workers or checkpointing there is nothing to partition for:
    one chunk keeps the classic in-process loop intact.  A serial
    checkpointed run chunks at exactly the checkpoint interval — the
    chunk *is* the unit of durable progress.  A parallel run splits per
    :func:`chunk_bounds`, with the interval as an upper bound so durable
    progress still lands at least every ``checkpoint_every`` trials.
    """
    if trials <= 0:
        return []
    if jobs <= 1:
        if checkpoint_every is None:
            return [(0, trials)]
        size = checkpoint_every
        return [(lo, min(lo + size, trials)) for lo in range(0, trials, size)]
    return chunk_bounds(trials, jobs, max_size=checkpoint_every)


@dataclass(frozen=True)
class EngineContext:
    """Everything a backend needs to execute trials of one campaign.

    Picklable as a unit: the pool backend ships one context per worker
    (via the pool initializer), never per chunk.
    """

    app: "AppProtocol"
    deployment: "Deployment"
    profile: "InstructionProfile"
    reference: dict
    keep_records: bool
    obs_enabled: bool
    #: hot-path profiling (repro.obs.profiler) — carried to workers so a
    #: chunk's recorder attributes op time exactly like the parent's.
    profiling: bool = False
    #: trials batched per lane-vectorized pass (repro.fi.lanes), already
    #: the effective count (1 under profiling or for a scenario without
    #: lane support; see run_campaign).  Chunk planning ignores this —
    #: lane blocks subdivide chunks at execution time, so chunk layout
    #: (and thus checkpoint identity) is lanes-invariant.
    lanes: int = 1
    #: causal tracing (repro.obs.trace) — carried to workers so a
    #: chunk's recorder collects spans exactly like the parent's.
    tracing: bool = False
    #: the parent span for this context's chunks (campaign span in the
    #: fixed driver, the current wave's in the adaptive driver); ids are
    #: deterministic strings, so the context pickles unchanged.
    trace_ctx: TraceContext | None = None


@dataclass
class ChunkPayload:
    """One chunk's compact result, identical from every backend.

    ``joint`` preserves first-occurrence insertion order within the
    chunk, so folding payloads in chunk order rebuilds the exact dict
    the serial loop would have produced.  ``obs`` carries the chunk's
    counters/histograms/span totals and buffered events when capture was
    requested (worker transport or checkpoint persistence); it is None
    when the chunk ran directly against the live recorder.
    """

    start: int
    stop: int
    joint: dict[tuple[Outcome, int, bool], int]
    records: list[TrialRecord] = field(default_factory=list)
    obs: ObsSnapshot | None = None

    @property
    def bounds(self) -> tuple[int, int]:
        return (self.start, self.stop)

    @property
    def n_trials(self) -> int:
        return self.stop - self.start


def execute_chunk(
    ctx: EngineContext,
    start: int,
    stop: int,
    capture: bool = True,
    live_sinks: Sequence[Sink] = (),
) -> ChunkPayload:
    """Run trials ``[start, stop)`` and fold them into one payload.

    ``capture=False`` records straight into the process-wide recorder —
    byte-for-byte the classic serial loop, used when the payload never
    leaves the process and never hits disk.  With ``capture=True`` the
    chunk records into a chunk-local recorder (span paths prefixed with
    ``campaign`` so they match a serial run) whose buffered state ships
    in ``ChunkPayload.obs``; ``live_sinks`` additionally tees every
    event to the given sinks as it happens, keeping ``--progress`` and
    JSONL traces live while an inline checkpointed campaign runs.
    """
    from repro.fi.campaign import run_one_trial  # circular at import time

    mem: MemorySink | None = None
    if not capture:
        rec = get_recorder()
    elif ctx.obs_enabled:
        mem = MemorySink()
        rec = Recorder(
            [mem, *live_sinks],
            span_prefix=("campaign",),
            profiling=ctx.profiling,
            tracing=ctx.tracing,
        )
    else:
        rec = Recorder(enabled=False)
    # The chunk span: trials record under it (via rec.trace_ctx), and it
    # parents to the driver's campaign/wave span.  Clock reads only —
    # trial execution is untouched, so results cannot depend on tracing.
    tracing = rec.enabled and rec.tracing and ctx.trace_ctx is not None
    prev_trace_ctx = rec.trace_ctx
    if tracing:
        chunk_ctx = ctx.trace_ctx.derive("chunk", start, stop)
        rec.trace_ctx = chunk_ctx
        chunk_w0 = time.time()
        chunk_p0 = time.perf_counter()
    joint: dict[tuple[Outcome, int, bool], int] = {}
    records: list[TrialRecord] = []
    with recording(rec):
        trial = start
        while trial < stop:
            block_stop = min(stop, trial + ctx.lanes)
            if block_stop - trial == 1:
                block_records = [run_one_trial(
                    ctx.app, ctx.deployment, ctx.profile, ctx.reference,
                    trial, rec,
                )]
            else:
                from repro.fi.lanes import run_lane_block  # circular at import

                block_records = run_lane_block(
                    ctx.app, ctx.deployment, ctx.profile, ctx.reference,
                    trial, block_stop, rec,
                )
            for record in block_records:
                key = (record.outcome, record.n_contaminated, record.activated)
                joint[key] = joint.get(key, 0) + 1
                if ctx.keep_records:
                    records.append(record)
            trial = block_stop
    if tracing:
        rec.trace_ctx = prev_trace_ctx
        rec.add_trace_span(make_span(
            f"chunk {start}..{stop}", "chunk", chunk_ctx,
            ctx.trace_ctx.span_id, chunk_w0,
            time.perf_counter() - chunk_p0,
            args={"start": start, "stop": stop, "trials": stop - start},
        ))
    snapshot = rec.snapshot(events=mem.events) if mem is not None else None
    return ChunkPayload(
        start=start, stop=stop, joint=joint, records=records, obs=snapshot
    )
