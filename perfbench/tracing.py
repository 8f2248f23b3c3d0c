"""Out-of-package span tracer for the per-layer benchmark run.

Wraps public entry points of ``repro.taint``, ``repro.mpisim``,
``repro.fi``, ``repro.engine``, ``repro.obs``, ``repro.model`` and the
experiment builders by rebinding module and class attributes, so the
program itself carries no benchmark code.  Every wrapped call is a span
with a start, an end and a parent; a span's *self time* is its duration
minus the time its child spans cover.

Spans of coarse calls (campaigns, trials, scheduler runs, chunks,
checkpoint writes) are kept in memory and written out at the end.
Per-operation calls (taint ops, collapse checks, instruction
accounting, event emission) happen millions of times per run, so they
are folded into per-name ``(count, self seconds)`` totals at the
boundary instead of being stored one by one.
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter
from typing import Callable

#: FPOps public elementwise ops (``taint.op_*``, ``taint.lane_op_*``).
ELEMENTWISE_OPS = (
    "add", "sub", "mul", "div", "minimum", "maximum", "neg", "abs", "sqrt",
    "exp", "log", "sin", "cos", "reciprocal", "where", "greater", "less",
)
#: FPOps public reductions (``taint.reduce_*``, ``taint.lane_op_*``);
#: ``max``/``min`` are the passive (non-candidate) reductions.
REDUCTION_OPS = ("sum", "dot", "norm2", "max", "min", "csr_matvec", "segment_sum")
P2P_CALLS = ("send", "recv", "sendrecv")
COLLECTIVE_CALLS = (
    "barrier", "bcast", "reduce", "allreduce", "gather", "allgather",
    "scatter", "alltoall",
)

#: span name -> layer, for layer self-time shares and attribution.
LAYER_OF = {
    "taint.collapse": "taint", "taint.op": "taint", "taint.reduce": "taint",
    "taint.lane_op": "taint", "taint.lane_compare": "taint",
    "mpisim.execute_spmd": "mpisim", "mpisim.run": "mpisim",
    "mpisim.reduce_payloads": "mpisim",
    "fi.sample_plan": "fi", "fi.account": "fi", "fi.trial": "fi",
    "fi.lane_block": "fi", "fi.cache": "fi", "fi.campaign": "fi",
    "engine.chunk": "engine", "engine.fold": "engine",
    "engine.checkpoint_write": "engine", "engine.store_put": "engine",
    "obs.emit": "obs", "obs.provenance": "obs",
    "model.predict": "model",
    "experiments.unique_fraction": "experiments",
}


class SpanTracer:
    """Span stack, per-name totals and the kept span list of one run."""

    def __init__(self) -> None:
        #: open frames: ``[child seconds, kept-span id of nearest kept ancestor]``
        self._stack: list[list] = []
        #: name -> ``[calls, self seconds]``
        self.totals: dict[str, list] = {}
        self.counters: Counter = Counter()
        #: kept spans: ``(id, name, start, end, parent id or None)``
        self.spans: list[tuple] = []
        #: seconds covered by top-level spans (no enclosing span)
        self.top_level_s = 0.0
        #: run_campaign wall time bucketed by campaign role
        self.buckets: Counter = Counter()

    # ------------------------------------------------------------------
    def wrap(
        self,
        fn: Callable,
        name: "str | Callable[..., str]",
        keep: bool = False,
        after: "Callable[[tuple, object, float], None] | None" = None,
    ) -> Callable:
        """Return ``fn`` wrapped in a span.

        ``name`` may be a function of the call's arguments (to split one
        entry point by receiver type); ``after(args, result, duration)``
        runs once a span that returned normally closes, for counters
        read off the call.
        """
        stack, totals, spans, clock = self._stack, self.totals, self.spans, perf_counter
        dynamic = callable(name)

        def traced(*args, **kwargs):
            span_name = name(*args) if dynamic else name
            parent_kid = stack[-1][1] if stack else None
            kid = len(spans) if keep else parent_kid
            if keep:
                spans.append(None)  # reserve the id; filled on close
            frame = [0.0, kid]
            stack.append(frame)
            ok = False
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                t1 = clock()
                stack.pop()
                duration = t1 - t0
                entry = totals.get(span_name)
                if entry is None:
                    entry = totals[span_name] = [0, 0.0]
                entry[0] += 1
                entry[1] += duration - frame[0]
                if stack:
                    stack[-1][0] += duration
                else:
                    self.top_level_s += duration
                if keep:
                    spans[kid] = (kid, span_name, t0, t1, parent_kid)
                if ok and after is not None:
                    after(args, result, duration)

        traced.__wrapped__ = fn
        return traced

    def count(self, fn: Callable, name: str) -> Callable:
        """Return ``fn`` wrapped in a call counter (no clock reads)."""
        counters = self.counters

        def counted(*args, **kwargs):
            counters[name] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    # ------------------------------------------------------------------
    def self_s(self, *names: str) -> float:
        return sum(self.totals.get(n, (0, 0.0))[1] for n in names)

    def calls(self, *names: str) -> int:
        return sum(self.totals.get(n, (0, 0.0))[0] for n in names)

    def layer_self_s(self, layer: str) -> float:
        return sum(v[1] for n, v in self.totals.items() if LAYER_OF.get(n) == layer)

    def write_spans(self, path: Path) -> None:
        """Write kept spans as JSON lines (times relative to the first span)."""
        kept = [s for s in self.spans if s is not None]
        origin = min((s[2] for s in kept), default=0.0)
        with open(path, "w") as fh:
            for kid, name, t0, t1, parent in kept:
                fh.write(json.dumps({
                    "id": kid, "name": name, "start": t0 - origin,
                    "end": t1 - origin, "parent": parent,
                }) + "\n")


def patch_function(module, attr: str, make: Callable) -> None:
    """Rebind ``module.attr`` wherever a loaded ``repro`` module holds it.

    Modules import functions by name (``from x import f``), so the
    wrapper must replace every binding of the original object, not
    just the defining one.
    """
    original = getattr(module, attr)
    wrapped = make(original)
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
            continue
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, wrapped)


def patch_method(cls, attr: str, make: Callable) -> None:
    raw = cls.__dict__[attr]
    if isinstance(raw, classmethod):
        setattr(cls, attr, classmethod(make(raw.__func__)))
    else:
        setattr(cls, attr, make(raw))


def campaign_role(deployment) -> str:
    """The ``experiments.*`` bucket a ``run_campaign`` call belongs to."""
    from repro.taint.region import Region

    if deployment.region is Region.PARALLEL_UNIQUE:
        return "unique"
    if deployment.nprocs == 1:
        return "serial_multi" if deployment.n_errors >= 2 else "serial_single"
    return "small_scale"


def install(tracer: SpanTracer) -> None:
    """Wrap every traced entry point for the rest of this process."""
    import repro.engine.chunks as chunks
    import repro.experiments.common as common
    import repro.fi.cache as cache
    import repro.fi.campaign as campaign
    import repro.fi.lanes as lanes
    import repro.fi.plan as plan
    import repro.mpisim.collectives as collectives
    import repro.mpisim.runner as runner
    import repro.obs.provenance as provenance
    import repro.taint.tarray as tarray
    from repro.engine.aggregate import ChunkAggregator
    from repro.engine.checkpoint import CheckpointStore
    from repro.engine.store import LocalDirStore
    from repro.fi.tracer import Tracer
    from repro.model.predictor import ResiliencePredictor
    from repro.mpisim.communicator import Communicator
    from repro.mpisim.scheduler import Scheduler
    from repro.obs.recorder import Recorder
    from repro.taint.laneops import LaneFPOps
    from repro.taint.ops import FPOps

    t = tracer
    counters = t.counters

    # taint -------------------------------------------------------------
    def on_collapse(args, result, _d):
        if result:
            counters["taint.collapse_reshared"] += 1

    patch_function(tarray, "arrays_equal",
                   lambda f: t.wrap(f, "taint.collapse", after=on_collapse))
    patch_function(tarray, "lane_rows_differ",
                   lambda f: t.wrap(f, "taint.lane_compare"))
    patch_method(tarray.TArray, "batched",
                 lambda f: t.wrap(f, "taint.lane_compare"))

    def op_name(scalar: str):
        return lambda self, *a: "taint.lane_op" if isinstance(self, LaneFPOps) else scalar

    for op in ELEMENTWISE_OPS:
        patch_method(FPOps, op, lambda f: t.wrap(f, op_name("taint.op")))
    for op in REDUCTION_OPS:
        patch_method(FPOps, op, lambda f: t.wrap(f, op_name("taint.reduce")))
    for op in ELEMENTWISE_OPS + REDUCTION_OPS:
        if op in LaneFPOps.__dict__:  # lane overrides of public ops
            patch_method(LaneFPOps, op, lambda f: t.wrap(f, "taint.lane_op"))

    # mpisim ------------------------------------------------------------
    def on_run(args, _result, _d):
        counters["mpisim.steps"] += args[0].steps

    patch_function(runner, "execute_spmd",
                   lambda f: t.wrap(f, "mpisim.execute_spmd", keep=True))
    patch_method(Scheduler, "run",
                 lambda f: t.wrap(f, "mpisim.run", keep=True, after=on_run))
    patch_function(collectives, "reduce_payloads",
                   lambda f: t.wrap(f, "mpisim.reduce_payloads"))
    for call in P2P_CALLS:
        patch_method(Communicator, call, lambda f: t.count(f, "mpisim.p2p_calls"))
    for call in COLLECTIVE_CALLS:
        patch_method(Communicator, call,
                     lambda f: t.count(f, "mpisim.collective_calls"))

    # fi ----------------------------------------------------------------
    def on_block(args, _result, _d):
        counters["fi.lane_block_lanes"] += args[5] - args[4]

    def eject(f):
        def counted(self, lanes_, reason):
            before = len(self.ejected)
            try:
                return f(self, lanes_, reason)
            finally:
                counters["fi.lane_ejects"] += len(self.ejected) - before

        return counted

    def on_campaign(args, _result, duration):
        t.buckets[campaign_role(args[1])] += duration

    patch_function(plan, "sample_plan", lambda f: t.wrap(f, "fi.sample_plan"))
    patch_method(Tracer, "account", lambda f: t.wrap(f, "fi.account"))
    patch_method(lanes.BatchTracer, "account", lambda f: t.wrap(f, "fi.account"))
    patch_method(lanes.BatchTracer, "eject", eject)
    patch_function(campaign, "run_one_trial",
                   lambda f: t.wrap(f, "fi.trial", keep=True))
    patch_function(lanes, "run_lane_block",
                   lambda f: t.wrap(f, "fi.lane_block", keep=True, after=on_block))
    patch_function(cache, "cached_campaign",
                   lambda f: t.wrap(f, "fi.cache", keep=True))
    patch_function(campaign, "run_campaign",
                   lambda f: t.wrap(f, "fi.campaign", keep=True, after=on_campaign))

    # engine ------------------------------------------------------------
    def on_checkpoint(_args, result, _d):
        counters["engine.checkpoint_bytes"] += result[1]

    patch_function(chunks, "execute_chunk",
                   lambda f: t.wrap(f, "engine.chunk", keep=True))
    patch_method(ChunkAggregator, "add", lambda f: t.wrap(f, "engine.fold"))
    patch_method(CheckpointStore, "write",
                 lambda f: t.wrap(f, "engine.checkpoint_write", keep=True,
                                  after=on_checkpoint))
    patch_method(LocalDirStore, "put", lambda f: t.wrap(f, "engine.store_put"))

    # obs ---------------------------------------------------------------
    def emit(f):
        traced = t.wrap(f, "obs.emit")

        def dispatch(self, event):
            # a disabled recorder drops the event on its first test;
            # only events that reach sinks count as recorded
            return traced(self, event) if self.enabled else f(self, event)

        return dispatch

    patch_method(Recorder, "emit", emit)
    patch_function(provenance, "build_trial_provenance",
                   lambda f: t.wrap(f, "obs.provenance"))

    # model + experiments -----------------------------------------------
    patch_method(ResiliencePredictor, "predict",
                 lambda f: t.wrap(f, "model.predict", keep=True))

    def on_fraction(_args, _result, duration):
        t.buckets["profile_only"] += duration

    patch_function(common, "unique_fraction_stats",
                   lambda f: t.wrap(f, "experiments.unique_fraction", keep=True,
                                    after=on_fraction))


def layer_metrics(t: SpanTracer, window_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced workload iteration."""
    c = t.counters
    checks = t.calls("taint.collapse")
    lanes_run = c["fi.lane_block_lanes"]
    m = {
        "taint.collapse_checks": checks,
        "taint.collapse_self_s": t.self_s("taint.collapse"),
        "taint.collapse_reshare_ratio": c["taint.collapse_reshared"] / checks if checks else 0.0,
        "taint.op_calls": t.calls("taint.op"),
        "taint.op_self_s": t.self_s("taint.op"),
        "taint.reduce_calls": t.calls("taint.reduce"),
        "taint.reduce_self_s": t.self_s("taint.reduce"),
        "taint.lane_op_calls": t.calls("taint.lane_op"),
        "taint.lane_op_self_s": t.self_s("taint.lane_op"),
        "taint.lane_compare_calls": t.calls("taint.lane_compare"),
        "taint.lane_compare_self_s": t.self_s("taint.lane_compare"),
        "taint.self_share": t.layer_self_s("taint") / window_s,
        "mpisim.runs": t.calls("mpisim.run"),
        "mpisim.steps": c["mpisim.steps"],
        "mpisim.self_s": t.layer_self_s("mpisim"),
        "mpisim.self_share": t.layer_self_s("mpisim") / window_s,
        "mpisim.p2p_calls": c["mpisim.p2p_calls"],
        "mpisim.collective_calls": c["mpisim.collective_calls"],
        "mpisim.reduce_payloads_self_s": t.self_s("mpisim.reduce_payloads"),
        "fi.plans": t.calls("fi.sample_plan"),
        "fi.sample_plan_self_s": t.self_s("fi.sample_plan"),
        "fi.account_calls": t.calls("fi.account"),
        "fi.account_self_s": t.self_s("fi.account"),
        "fi.scalar_trials": t.calls("fi.trial"),
        "fi.lane_blocks": t.calls("fi.lane_block"),
        "fi.lane_eject_ratio": c["fi.lane_ejects"] / lanes_run if lanes_run else 0.0,
        "fi.cache_self_s": t.self_s("fi.cache"),
        "engine.chunks": t.calls("engine.chunk"),
        "engine.fold_self_s": t.self_s("engine.fold"),
        "engine.checkpoint_writes": t.calls("engine.checkpoint_write"),
        "engine.checkpoint_write_self_s": t.self_s("engine.checkpoint_write"),
        "engine.checkpoint_bytes": c["engine.checkpoint_bytes"],
        "engine.store_put_self_s": t.self_s("engine.store_put"),
        "obs.events": t.calls("obs.emit"),
        "obs.emit_self_s": t.self_s("obs.emit"),
        "obs.provenance_self_s": t.self_s("obs.provenance"),
        "model.predict_self_s": t.self_s("model.predict"),
        "bench.unattributed_share": max(0.0, window_s - t.top_level_s) / window_s,
    }
    for role in ("serial_multi", "serial_single", "small_scale", "unique", "profile_only"):
        m[f"experiments.{role}_s"] = t.buckets[role]
    return m
