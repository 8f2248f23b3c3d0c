"""Fault-injection deployments: many randomized tests, one configuration.

A *deployment* (paper §2) fixes the execution scale (number of MPI
processes), the fault pattern (number of errors per test, target
region), and the number of tests.  Running one yields a
:class:`CampaignResult`: outcome rates (success / SDC / failure), the
joint distribution of (outcome, contaminated-process count), the
dynamic-instruction profile, and wall-clock fault-injection time — the
raw material for every model input and every figure of the paper.
"""

from __future__ import annotations

import sys
import time
from dataclasses import MISSING, dataclass, field, replace
from typing import Generator, Protocol

from repro.errors import ConfigurationError
from repro.fi.outcomes import Outcome, TrialRecord
from repro.fi.profile import InstructionProfile
from repro.fi.knobs import KNOBS, resolve
from repro.fi.scenarios import resolve_model
from repro.fi.tracer import Tracer, TracerMode
from repro.mpisim.runner import execute_spmd
from repro.obs import (
    CampaignFinished,
    CampaignStarted,
    ProfileScope,
    get_recorder,
)
from repro.obs.trace import (
    TraceContext,
    TraceScope,
    make_span,
    span_id_from,
    trace_id_from,
)
from repro.taint.region import Region
from repro.utils.validation import check_positive_int

__all__ = [
    "Deployment", "CampaignResult", "run_campaign", "run_one_trial",
    "AppProtocol",
]


def _key(tag: str, order: int, default=MISSING, *, omit_default: bool = False):
    """A result-identity field: ``tag=value`` in ``deployment_key``.

    ``order`` places the tag in the key string; ``omit_default`` leaves
    the tag out while the field holds its default, so keys that predate
    the field stay byte-identical (see :func:`repro.fi.cache.deployment_key`).
    """
    return field(default=default, metadata={
        "key": tag, "key_order": order, "omit_default": omit_default,
    })


#: An execution knob (a row of :data:`repro.fi.knobs.KNOBS`): never part
#: of the result identity.  None defers to the knob's env var/default.
_EXECUTION = {"execution": True}


class AppProtocol(Protocol):
    """What the campaign driver needs from an application."""

    name: str

    def program(self, rank: int, size: int, comm, fp) -> Generator:
        """The SPMD rank program (generator; see :mod:`repro.mpisim`)."""
        ...

    def verify(self, output: dict, reference: dict) -> bool:
        """The application's correctness checker (paper §2 'checkers')."""
        ...

    def cache_key(self) -> str:
        """Stable string identifying the app's parameters."""
        ...


@dataclass(frozen=True)
class Deployment:
    """One fault-injection configuration (paper: 'fault injection deployment').

    Every field is either part of the result identity (tagged for
    :func:`repro.fi.cache.deployment_key`) or an execution knob (a row
    of :data:`repro.fi.knobs.KNOBS`, validated and canonicalized by its
    row's parser).  ``ci_halfwidth`` and ``scenario`` are both: knobs
    that change which trials run or what each trial does.
    """

    nprocs: int = _key("p", 0)
    trials: int = _key("t", 1)
    n_errors: int = _key("e", 2, 1)
    region: Region | None = _key("r", 3, None)  # None = by candidate share
    target_rank: int | None = _key("tr", 4, None)  # None = uniform victim
    seed: int = _key("s", 5, 0)
    # scheduler runaway guard
    max_steps: int | None = _key("ms", 7, None, omit_default=True)
    # >1 = multi-bit fault pattern
    bits_per_error: int = _key("b", 6, 1, omit_default=True)
    jobs: int | None = field(default=None, metadata=_EXECUTION)
    lanes: int | None = field(default=None, metadata=_EXECUTION)
    checkpoint_every: int | None = field(default=None, metadata=_EXECUTION)
    ci_halfwidth: float | None = _key("ci", 8, None, omit_default=True)
    scenario: str | None = _key("sc", 9, None, omit_default=True)
    backend: str | None = field(default=None, metadata=_EXECUTION)

    def __post_init__(self) -> None:
        check_positive_int(self.nprocs, "nprocs")
        check_positive_int(self.trials, "trials")
        check_positive_int(self.n_errors, "n_errors")
        check_positive_int(self.bits_per_error, "bits_per_error")
        if self.n_errors > 1 and self.target_rank is None and self.nprocs > 1:
            raise ConfigurationError(
                "multi-error deployments on parallel executions must pin target_rank"
            )
        for knob in KNOBS:
            value = getattr(self, knob.name, None)
            if value is not None:
                # canonicalize eagerly (parameterless bit flips normalize
                # to None) so equal configurations compare equal and
                # derive identical cache/checkpoint identities
                object.__setattr__(self, knob.name, knob.parse(value))

    @property
    def effective_target_rank(self) -> int | None:
        """Serial multi-error emulation implicitly targets rank 0."""
        if self.target_rank is not None:
            return self.target_rank
        return 0 if self.n_errors > 1 else None


@dataclass
class CampaignResult:
    """Aggregated result of one deployment.

    ``joint`` maps ``(outcome, n_contaminated, activated)`` to trial
    counts — sufficient for outcome rates, propagation histograms, and
    the conditional success rates of the paper's Fig. 3.
    """

    app_name: str
    deployment: Deployment
    joint: dict[tuple[Outcome, int, bool], int]
    parallel_unique_fraction: float
    total_instructions: int
    candidate_instructions: int
    profile_time: float
    injection_time: float
    records: list[TrialRecord] = field(default_factory=list)

    # ------------------------------------------------------------------
    @property
    def n_trials(self) -> int:
        """Total fault-injection tests aggregated in this result."""
        return sum(self.joint.values())

    def outcome_count(self, outcome: Outcome) -> int:
        """Number of tests that ended with ``outcome``."""
        return sum(c for (o, _, _), c in self.joint.items() if o == outcome)

    def rate(self, outcome: Outcome) -> float:
        """Fraction of tests with ``outcome`` (the paper's FI result)."""
        n = self.n_trials
        return self.outcome_count(outcome) / n if n else float("nan")

    @property
    def success_rate(self) -> float:
        return self.rate(Outcome.SUCCESS)

    @property
    def sdc_rate(self) -> float:
        return self.rate(Outcome.SDC)

    @property
    def failure_rate(self) -> float:
        return self.rate(Outcome.FAILURE)

    # ------------------------------------------------------------------
    def propagation_counts(self) -> dict[int, int]:
        """Trials per contaminated-process count (activated trials only)."""
        out: dict[int, int] = {}
        for (_, ncont, activated), c in self.joint.items():
            if activated and ncont >= 1:
                out[ncont] = out.get(ncont, 0) + c
        return out

    def success_rate_given_contaminated(self, n: int) -> float | None:
        """Success rate among activated trials with ``n`` ranks contaminated.

        Returns None when no such trial occurred (the paper's "missing
        bars" in Fig. 3).
        """
        total = succ = 0
        for (o, ncont, activated), c in self.joint.items():
            if activated and ncont == n:
                total += c
                if o == Outcome.SUCCESS:
                    succ += c
        return succ / total if total else None

    def activation_rate(self) -> float:
        """Share of tests whose planned flips all actually fired."""
        n = self.n_trials
        act = sum(c for (_, _, a), c in self.joint.items() if a)
        return act / n if n else float("nan")


def run_one_trial(
    app: AppProtocol,
    deployment: Deployment,
    profile: InstructionProfile,
    reference: dict,
    trial: int,
    obs,
) -> TrialRecord:
    """Execute fault-injection test ``trial`` of ``deployment``.

    Dispatches to the deployment's fault-scenario family
    (:mod:`repro.fi.scenarios`; ``None`` = the default transient bit
    flips).  Every family guarantees that per-trial decisions depend
    only on ``(deployment.seed, trial)`` via
    :func:`~repro.utils.rng.trial_seed`, so trials can run in any order
    — or in any process — and produce identical records.  Both the
    serial campaign loop and the parallel workers
    (:mod:`repro.engine`) call this one function.
    """
    model = resolve_model(deployment.scenario)
    return model.run_trial(app, deployment, profile, reference, trial, obs)


def run_campaign(
    app: AppProtocol,
    deployment: Deployment,
    keep_records: bool = False,
    jobs: int | None = None,
    lanes: int | None = None,
    checkpoint_every: int | None = None,
    resume: bool | None = None,
    ci_halfwidth: float | None = None,
    scenario: str | None = None,
    backend: str | None = None,
) -> CampaignResult:
    """Run a full fault-injection deployment for ``app``.

    A fault-free profiling pass first records the reference output and
    the per-rank dynamic-instruction profile; trial execution is then
    handed to the campaign engine (:mod:`repro.engine`), which samples
    an injection plan per trial from the profile and re-executes the
    application with the tracer armed.  Crashes
    (:class:`FaultActivatedError`), hangs (deadlocks) and communicator
    breakdown caused by fault-perturbed control flow are classified as
    ``FAILURE``.

    ``jobs`` > 1 fans the trials out over a spawn-safe worker pool; the
    result — including the ``joint`` distribution the disk cache
    persists — is bit-identical to the serial path for any worker
    count.  ``lanes=N`` batches N trials into one lane-vectorized pass
    through the application (see ``docs/performance.md``) — records,
    events, and provenance stay bit-identical to ``lanes=1``, and the
    knob composes freely with ``jobs`` and checkpoint/resume.
    ``checkpoint_every=N`` persists completed trial chunks as
    they finish, and ``resume=True`` recovers an interrupted campaign's
    durable chunks and re-runs only the missing ones — still
    bit-identical to an uninterrupted serial run (see ``docs/engine.md``).

    ``ci_halfwidth=H`` switches the deployment to adaptive precision
    targeting: ``deployment.trials`` becomes a *cap*, and trials stop as
    soon as every outcome rate's 95% Wilson half-width is at or below H
    (see ``docs/adaptive.md``) — still bit-identical for any ``jobs``
    and across interrupt/resume.

    ``scenario`` selects the fault-scenario family executed per trial
    (``"bitflip"`` — the default — ``"rankkill"``, ``"msgcorrupt"``;
    see ``docs/scenarios.md``).  Scenarios compose with every knob
    above, except that only the bit-flip family supports lane batching
    — other families fall back to the scalar path with a one-line
    warning.

    ``backend`` pins *where* chunks execute — ``"inline"``,
    ``"process"``, or ``"distributed:host:port"`` (a controller socket
    that warm worker processes connect to; see ``docs/distributed.md``)
    — overriding the jobs-based auto-selection.  Another pure execution
    knob: results stay bit-identical across backends, worker counts and
    worker churn.
    """
    deployment, execution = resolve(
        deployment, jobs=jobs, lanes=lanes, checkpoint_every=checkpoint_every,
        resume=resume, ci_halfwidth=ci_halfwidth, scenario=scenario,
        backend=backend,
    )
    obs = get_recorder()
    model = resolve_model(deployment.scenario)
    if execution.lanes > 1 and not model.supports_lanes:
        print(
            f"repro: warning: scenario {model.name!r} does not support "
            f"lane batching; running trials on the scalar path",
            file=sys.stderr,
        )
        execution = replace(execution, lanes=1)
    if execution.lanes > 1 and obs.enabled and obs.profiling:
        # profiling meters per-trial op counts and time, which a shared
        # lane pass cannot attribute
        execution = replace(execution, lanes=1)
    if execution.resume and execution.checkpoint_every is None:
        from repro.engine.checkpoint import DEFAULT_CHECKPOINT_EVERY

        execution = replace(execution, checkpoint_every=DEFAULT_CHECKPOINT_EVERY)
    # the recorder accumulates across campaigns, so the profiler scopes
    # this campaign's span/op deltas (emitted as one CampaignProfile)
    prof_scope = (
        ProfileScope(obs) if obs.enabled and obs.profiling else None
    )
    # Like the profiler, tracing scopes this campaign's slice of the
    # recorder's cumulative span list.  Trace/span ids hash logical
    # identity only (app cache key + deployment key), never the clock,
    # so the same deployment traces to the same ids in every run.
    tracing = obs.enabled and obs.tracing
    trace_scope = None
    prev_trace_ctx = obs.trace_ctx
    if tracing:
        from repro.fi.cache import deployment_key  # circular at import time

        trace_id = trace_id_from(app.cache_key(), deployment_key(deployment))
        trace_ctx = TraceContext(trace_id, span_id_from(trace_id, "campaign"))
        obs.trace_ctx = trace_ctx
        trace_scope = TraceScope(obs)
        campaign_w0 = time.time()
        campaign_p0 = time.perf_counter()
    obs.emit(CampaignStarted(
        app=app.name, nprocs=deployment.nprocs, trials=deployment.trials,
        n_errors=deployment.n_errors, seed=deployment.seed,
    ))
    try:
        with obs.span("campaign"):
            t0 = time.perf_counter()
            prof_w0 = time.time() if tracing else 0.0
            with obs.span("profile"):
                profile_tracer = Tracer(TracerMode.PROFILE)
                outputs = execute_spmd(
                    app.program, deployment.nprocs, sink=profile_tracer,
                    max_steps=deployment.max_steps,
                )
            reference = outputs[0]
            if reference is None:
                raise ConfigurationError(
                    f"app {app.name!r} returned no output at rank 0"
                )
            profile: InstructionProfile = profile_tracer.profile
            profile_time = time.perf_counter() - t0
            if tracing:
                obs.add_trace_span(make_span(
                    "profile", "phase", trace_ctx.derive("phase", "profile"),
                    trace_ctx.span_id, prof_w0, profile_time,
                ))

            t1 = time.perf_counter()
            # imported lazily: the engine imports this module in turn
            if deployment.ci_halfwidth is not None:
                from repro.engine.adaptive import run_adaptive_trials

                joint, records = run_adaptive_trials(
                    app, deployment, profile, reference, execution,
                    target=deployment.ci_halfwidth, keep_records=keep_records,
                )
            else:
                from repro.engine import run_trials

                joint, records = run_trials(
                    app, deployment, profile, reference, execution,
                    keep_records=keep_records,
                )
            injection_time = time.perf_counter() - t1
    finally:
        obs.trace_ctx = prev_trace_ctx

    if prof_scope is not None:
        # after the campaign span closes, so the delta includes its total
        obs.emit(prof_scope.to_event(app.name))
    if tracing:
        # the campaign span closes the tree; emitted as one event so
        # sinks can route it (obs.configure sends it to the timeline
        # sidecar, never the main trace)
        obs.add_trace_span(make_span(
            f"campaign {app.name}", "campaign", trace_ctx, "",
            campaign_w0, time.perf_counter() - campaign_p0,
            args={"app": app.name, "nprocs": deployment.nprocs,
                  "trials": deployment.trials, "seed": deployment.seed},
        ))
        obs.emit(trace_scope.to_event(app.name, trace_id))
    result = CampaignResult(
        app_name=app.name,
        deployment=deployment,
        joint=joint,
        parallel_unique_fraction=profile.parallel_unique_fraction(),
        total_instructions=profile.total_instructions(),
        candidate_instructions=sum(profile.candidates(r) for r in profile.ranks),
        profile_time=profile_time,
        injection_time=injection_time,
        records=records,
    )
    obs.emit(CampaignFinished(
        app=app.name, trials=result.n_trials,
        success_rate=result.success_rate, sdc_rate=result.sdc_rate,
        failure_rate=result.failure_rate,
        profile_time=profile_time, injection_time=injection_time,
    ))
    return result
