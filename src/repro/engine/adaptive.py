"""Adaptive precision-targeted campaigns: spend trials only where needed.

A fixed-N campaign budgets for the worst case: guaranteeing a Wilson
half-width ``h`` on every outcome rate takes ``~(z/2h)^2`` trials when a
rate could sit at 1/2 — but most measured deployments are far more
skewed than that, and the cost of fault-injection sampling dominates
resilience studies (PARIS, Guo et al.; Wu et al. 2018).  This driver
closes the loop the obs layer opened when it started computing Wilson
score intervals per outcome: trials run in *waves* through the existing
:class:`~repro.engine.backends.Backend` /
:class:`~repro.engine.aggregate.ChunkAggregator` /
:class:`~repro.engine.checkpoint.CheckpointStore` machinery, the
per-outcome half-widths are recomputed after each wave, and the
campaign stops as soon as every tracked outcome's half-width falls
below the target — or the deployment's trial cap is hit.

Reproducibility contract (same as the fixed driver's, extended to the
stopping rule): for a fixed ``(seed, target, cap)`` the set of executed
trials is **identical** for any ``jobs`` value and across any
interrupt-and-resume pattern.  Wave boundaries are a deterministic
function of the trial results folded so far — and trial results are
themselves deterministic functions of ``(seed, trial_index)`` — so the
decision sequence cannot depend on worker count or scheduling.  Chunk
layout *within* a wave is scheduler-aware (split per worker via
:func:`~repro.engine.chunks.plan_chunks`), which affects checkpoint
granularity and load balancing only, never the folded result.

See ``docs/adaptive.md`` for the stopping rule, knob precedence and the
full determinism argument.
"""

from __future__ import annotations

import math
import time
from dataclasses import replace
from typing import TYPE_CHECKING

from repro.engine.aggregate import ChunkAggregator
from repro.engine.backends import planning_jobs
from repro.engine.checkpoint import CheckpointStore
from repro.engine.chunks import ChunkPayload, EngineContext, plan_chunks
from repro.engine.core import select_backend, write_checkpoint
from repro.fi.outcomes import Outcome, TrialRecord
from repro.obs import (
    CampaignConverged,
    CampaignPlanRevised,
    CampaignResumed,
    get_recorder,
)
from repro.obs.confidence import Z_95, wilson_interval
from repro.obs.trace import make_span

if TYPE_CHECKING:
    from repro.fi.campaign import AppProtocol, Deployment
    from repro.fi.knobs import Execution
    from repro.fi.profile import InstructionProfile

__all__ = [
    "MIN_WAVE_TRIALS",
    "AdaptiveStopper",
    "achieved_halfwidths",
    "min_trials_for",
    "projected_trials",
    "run_adaptive_trials",
    "wilson_halfwidth",
    "worst_case_trials",
]

#: Floor on wave size: waves below this re-check convergence faster than
#: the estimate can move, and each wave pays fixed scheduling overhead
#: (pool spin-up at ``jobs > 1``, chunk planning, a checkpoint flush).
MIN_WAVE_TRIALS = 20


def wilson_halfwidth(successes: int, n: int, z: float = Z_95) -> float:
    """Half the width of the Wilson score interval for ``successes``/``n``."""
    return wilson_interval(successes, n, z).width / 2.0


def achieved_halfwidths(
    joint: dict[tuple[Outcome, int, bool], int], z: float = Z_95
) -> dict[Outcome, float]:
    """Per-outcome Wilson half-widths of a campaign's joint distribution."""
    n = sum(joint.values())
    out: dict[Outcome, float] = {}
    for oc in Outcome:
        k = sum(c for (o, _, _), c in joint.items() if o == oc)
        out[oc] = wilson_halfwidth(k, n, z)
    return out


def min_trials_for(target: float, z: float = Z_95) -> int:
    """Smallest ``n`` at which *any* rate could meet ``target``.

    The best case is a zero-count outcome, whose Wilson half-width is
    ``z^2 / 2(n + z^2)``; below this ``n`` not even a 0% rate converges,
    so the first wave never needs to be smaller.
    """
    return max(1, math.ceil(z * z * (1.0 / (2.0 * target) - 1.0)))


def worst_case_trials(target: float, z: float = Z_95) -> int:
    """Smallest ``n`` whose worst-case (p = 1/2) half-width meets ``target``.

    This is what a fixed-N campaign must budget when nothing is known
    about the rates up front — the baseline the adaptive driver is
    measured against in ``benchmarks/bench_campaign.py``.
    """
    hi = 2
    while wilson_halfwidth(hi // 2, hi, z) > target:
        hi *= 2
    lo = hi // 2
    while lo < hi:
        mid = (lo + hi) // 2
        if wilson_halfwidth(mid // 2, mid, z) <= target:
            hi = mid
        else:
            lo = mid + 1
    return lo


def projected_trials(
    k: int, n: int, target: float, z: float = Z_95, cap: int = 10**9
) -> int:
    """Projected total trials for ``target`` if the rate stays at ``k/n``.

    Binary-searches the smallest ``m >= n`` whose Wilson half-width at
    the scaled count ``round(k/n * m)`` meets the target, capped at
    ``cap``.  A planning heuristic only: convergence is re-checked on
    the *measured* counts at every wave boundary, so projection error
    merely costs one more (small) wave.
    """
    if n <= 0:
        return min(cap, min_trials_for(target, z))
    if wilson_halfwidth(k, n, z) <= target:
        return n
    p = k / n
    if cap <= n:
        return cap
    if wilson_halfwidth(round(p * cap), cap, z) > target:
        return cap
    lo, hi = n + 1, cap
    while lo < hi:
        mid = (lo + hi) // 2
        if wilson_halfwidth(round(p * mid), mid, z) <= target:
            hi = mid
        else:
            lo = mid + 1
    return lo


class AdaptiveStopper:
    """The sequential stopping rule: wave boundaries and convergence.

    Stateless over the joint distribution so the decision sequence can
    be replayed bit-for-bit on resume: both methods are pure functions
    of ``(target, cap, z)`` and the counts folded so far.
    """

    def __init__(self, target: float, cap: int, z: float = Z_95):
        if not 0.0 < target < 0.5:
            raise ValueError(f"target half-width must be in (0, 0.5), got {target}")
        if cap < 1:
            raise ValueError(f"trial cap must be >= 1, got {cap}")
        self.target = target
        self.cap = cap
        self.z = z

    # ------------------------------------------------------------------
    def _counts(
        self, joint: dict[tuple[Outcome, int, bool], int]
    ) -> dict[Outcome, int]:
        counts = {oc: 0 for oc in Outcome}
        for (oc, _, _), c in joint.items():
            counts[oc] += c
        return counts

    def halfwidths(
        self, joint: dict[tuple[Outcome, int, bool], int]
    ) -> dict[Outcome, float]:
        """Per-outcome achieved half-widths at the current counts."""
        return achieved_halfwidths(joint, self.z)

    def converged(self, joint: dict[tuple[Outcome, int, bool], int]) -> bool:
        """Has every tracked outcome's half-width met the target?"""
        if not joint:
            return False
        return max(self.halfwidths(joint).values()) <= self.target

    def next_boundary(
        self, joint: dict[tuple[Outcome, int, bool], int], n_done: int
    ) -> int:
        """The trial index to run through before the next convergence check.

        The first wave is sized at the smallest count that could
        possibly converge (:func:`min_trials_for`); later waves jump to
        the worst outcome's :func:`projected_trials`.  Both are clamped
        to ``[n_done + MIN_WAVE_TRIALS, cap]`` so every wave makes real
        progress and the cap is never exceeded.
        """
        if n_done == 0:
            boundary = max(MIN_WAVE_TRIALS, min_trials_for(self.target, self.z))
        else:
            counts = self._counts(joint)
            boundary = max(
                projected_trials(counts[oc], n_done, self.target, self.z, self.cap)
                for oc in Outcome
            )
            boundary = max(boundary, n_done + MIN_WAVE_TRIALS)
        return min(self.cap, boundary)


def run_adaptive_trials(
    app: "AppProtocol",
    deployment: "Deployment",
    profile: "InstructionProfile",
    reference: dict,
    execution: "Execution",
    *,
    target: float,
    keep_records: bool = False,
) -> tuple[dict[tuple[Outcome, int, bool], int], list[TrialRecord]]:
    """Run a deployment adaptively; returns the merged ``(joint, records)``.

    ``deployment.trials`` acts as the trial *cap*; execution stops at
    the first wave boundary where every outcome's Wilson half-width is
    at or below ``target``.  Wave boundaries are deliberately
    lanes-invariant (the executed trial set must not depend on
    ``lanes`` — see the reproducibility contract above); lane blocks
    subdivide each wave's chunks at execution time, with
    :data:`MIN_WAVE_TRIALS` keeping every wave large enough to fill
    whole lane batches.  Checkpointing and resume behave exactly as
    in :func:`~repro.engine.core.run_trials`, with the chunk layout
    extended wave by wave (the manifest's ``planned`` count tracks how
    far the layout reaches).  Emits one
    :class:`~repro.obs.CampaignConverged` event per campaign.
    """
    obs = get_recorder()
    plan_jobs = planning_jobs(execution.backend, execution.jobs)
    cap = deployment.trials
    interval = execution.checkpoint_every
    checkpointing = interval is not None

    store: CheckpointStore | None = None
    pinned: list[tuple[int, int]] = []
    recovered: dict[tuple[int, int], ChunkPayload] = {}
    if checkpointing:
        store = CheckpointStore(app, deployment, keep_records)
        if execution.resume:
            loaded = store.load()
            if loaded is not None:
                pinned, payloads = loaded
                recovered = {p.bounds: p for p in payloads}
        else:
            store.clear()
    planned_hi = max((hi for _, hi in pinned), default=0)

    stopper = AdaptiveStopper(target, cap)
    aggregator = ChunkAggregator([], obs)
    ctx = EngineContext(
        app=app, deployment=deployment, profile=profile,
        reference=reference, keep_records=keep_records,
        # same contract as the fixed driver: checkpointed chunks always
        # capture events so a run interrupted with obs off resumes with
        # full traces
        obs_enabled=obs.enabled or checkpointing,
        profiling=obs.enabled and obs.profiling,
        lanes=execution.lanes,
        tracing=obs.enabled and obs.tracing,
        trace_ctx=obs.trace_ctx,
    )
    # Wave spans nest chunk/checkpoint spans under each wave; the ids
    # are keyed by wave index, so they are deterministic across runs.
    tracing = ctx.tracing and ctx.trace_ctx is not None
    root_trace_ctx = obs.trace_ctx

    trials_durable = sum(hi - lo for lo, hi in recovered)
    if recovered and obs.enabled:
        obs.emit(CampaignResumed(
            app=app.name,
            trials_done=trials_durable,
            trials_total=cap,
            chunks_done=len(recovered),
            chunks_total=len(pinned),
            path=str(store.dir),
        ))

    n_done = 0
    waves = 0
    converged = False
    while not converged and n_done < cap:
        wave_ctx = ctx
        if tracing:
            wave_trace_ctx = root_trace_ctx.derive("wave", waves)
            obs.trace_ctx = wave_trace_ctx
            wave_ctx = replace(ctx, trace_ctx=wave_trace_ctx)
            wave_w0 = time.time()
            wave_p0 = time.perf_counter()
        boundary = stopper.next_boundary(aggregator.joint, n_done)
        # the boundary IS the driver's current projection of the final
        # campaign size — publish it so progress lines and the live
        # /metrics ETA tighten wave by wave instead of assuming the cap
        obs.gauge("campaign.trials_planned", boundary)
        obs.gauge("campaign.trials_done", n_done)
        obs.emit(CampaignPlanRevised(
            app=app.name, planned=boundary, done=n_done,
        ))
        if boundary > planned_hi:
            # extend the pinned layout: fresh trials chunked per worker,
            # durable progress at least every `interval` trials
            fresh = plan_chunks(boundary - planned_hi, plan_jobs, interval)
            pinned.extend(
                (lo + planned_hi, hi + planned_hi) for lo, hi in fresh
            )
            planned_hi = boundary
            if store is not None:
                store.begin(cap, pinned, planned=planned_hi)
        wave = [bounds for bounds in pinned if n_done <= bounds[0] < boundary]
        aggregator.extend(wave)
        missing: list[tuple[int, int]] = []
        for bounds in wave:
            payload = recovered.pop(bounds, None)
            if payload is not None:
                # recovered chunks replay their buffered events through
                # the aggregator, exactly once and in trial order
                aggregator.add(payload)
            else:
                missing.append(bounds)
        if missing:
            executor = select_backend(
                execution.jobs, len(missing), capture=checkpointing,
                backend=execution.backend,
            )
            for payload in executor.run(wave_ctx, missing):
                if store is not None:
                    trials_durable += payload.n_trials
                    write_checkpoint(store, payload, obs, trials_durable)
                aggregator.add(payload, events_emitted=executor.live_events)
                obs.gauge("campaign.trials_done", aggregator.trials_folded)
        n_done = boundary
        waves += 1
        converged = stopper.converged(aggregator.joint)
        obs.gauge("campaign.trials_done", n_done)
        if tracing:
            obs.add_trace_span(make_span(
                f"wave {waves - 1}", "wave", wave_trace_ctx,
                root_trace_ctx.span_id, wave_w0,
                time.perf_counter() - wave_p0,
                args={"wave": waves - 1, "boundary": boundary,
                      "done": n_done},
            ))

    if tracing:
        obs.trace_ctx = root_trace_ctx

    joint, records = aggregator.finish()
    obs.emit(CampaignConverged(
        app=app.name,
        nprocs=deployment.nprocs,
        n_errors=deployment.n_errors,
        target=target,
        trials_used=n_done,
        trials_cap=cap,
        waves=waves,
        converged=converged,
        halfwidths={
            oc.value: hw for oc, hw in stopper.halfwidths(joint).items()
        },
    ))
    if store is not None:
        store.clear()  # complete: the result cache takes over from here
    return joint, records
