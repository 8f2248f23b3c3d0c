"""Collective-operation semantics over TArray / plain payloads.

Reductions over TArrays compute the golden and faulty paths with the
*same association order* (a single stacked numpy reduce per path), so
divergence of a reduced value reflects only genuinely different inputs,
never rounding noise between the two paths.  A diverged contribution
whose effect cancels in the reduction (absorbed by rounding) yields a
clean result — and therefore, per the value-based contamination model,
does *not* contaminate the receiving ranks.

Lane-batched payloads (:mod:`repro.taint.laneops`) reduce the same way
per lane: the per-rank lane stacks are stacked along a new rank axis at
position 1 and reduced over it.  Each lane's ``(P,) + shape`` slab then
has the golden stack's own memory layout, so numpy reduces it in the
same association order — pairwise along a contiguous rank axis from
P = 8 up — and every lane gets exactly the bits its scalar trial would
have.  (A leading rank axis would not do: the lane stack would then be
summed rank by rank in sequence while the golden sums pairwise.)
"""

from __future__ import annotations

from typing import Any, Sequence

import numpy as np

from repro.errors import CommunicatorError
from repro.taint.tarray import TArray

__all__ = ["reduce_payloads", "payload_diverged", "payload_lane_divergence"]

_NUMPY_REDUCERS = {"sum": np.sum, "prod": np.prod, "max": np.max, "min": np.min}

_PYTHON_REDUCERS = {
    "sum": sum,
    "prod": lambda xs: int(np.prod(list(xs))) if all(isinstance(x, int) for x in xs) else float(np.prod(list(xs))),
    "max": max,
    "min": min,
}


def reduce_payloads(payloads: Sequence[Any], op: str) -> Any:
    """Reduce one payload per rank into a single result.

    TArray payloads reduce on both value paths; uniform plain payloads
    (ints/floats) reduce with Python semantics.
    """
    if not payloads:
        raise CommunicatorError("cannot reduce an empty payload list")
    if all(isinstance(p, TArray) for p in payloads):
        reducer = _NUMPY_REDUCERS[op]
        golden = reducer(np.stack([p.golden for p in payloads]), axis=0)
        lane_sets = [p.lanes for p in payloads if p.lanes is not None]
        if lane_sets:
            ls0 = lane_sets[0]
            k = ls0.k
            fstack = reducer(np.stack([
                p.lanes.fstack if p.lanes is not None
                else np.broadcast_to(p.faulty, (k,) + p.faulty.shape)
                for p in payloads
            ], axis=1), axis=1)
            gstack = None
            if any(ls.gstack is not None for ls in lane_sets):
                gstack = reducer(np.stack([
                    p.lanes.gstack
                    if p.lanes is not None and p.lanes.gstack is not None
                    else np.broadcast_to(p.golden, (k,) + p.golden.shape)
                    for p in payloads
                ], axis=1), axis=1)
            return TArray.batched(golden, fstack, gstack, ls0.tracer)
        if not any(p.diverged for p in payloads):
            return TArray(golden)
        faulty = reducer(np.stack([p.faulty for p in payloads]), axis=0)
        return TArray(golden, faulty)
    if any(isinstance(p, TArray) for p in payloads):
        raise CommunicatorError("reduction payloads mix TArray and plain values")
    return _PYTHON_REDUCERS[op](payloads)


def payload_diverged(payload: Any) -> bool:
    """Does ``payload`` (possibly nested) carry any diverged TArray?"""
    if isinstance(payload, TArray):
        return payload.diverged
    if isinstance(payload, dict):
        return any(payload_diverged(v) for v in payload.values())
    if isinstance(payload, (list, tuple)):
        return any(payload_diverged(v) for v in payload)
    return False


def payload_lane_divergence(payload: Any) -> list[int]:
    """Lanes for which ``payload`` carries any diverged shadow row.

    The per-lane analogue of :func:`payload_diverged`: lane ``i`` is
    listed exactly when a scalar run of trial ``i`` would have delivered
    a diverged payload here.  Divergence flags are cached per TArray at
    construction, so this is a cheap union.
    """
    lanes: set[int] = set()
    _collect_lane_divergence(payload, lanes)
    return sorted(lanes)


def _collect_lane_divergence(payload: Any, lanes: set[int]) -> None:
    if isinstance(payload, TArray):
        if payload.lanes is not None:
            ls = payload.lanes
            if ls.div.any():
                lanes.update(int(i) for i in np.nonzero(ls.div)[0])
    elif isinstance(payload, dict):
        for v in payload.values():
            _collect_lane_divergence(v, lanes)
    elif isinstance(payload, (list, tuple)):
        for v in payload:
            _collect_lane_divergence(v, lanes)
