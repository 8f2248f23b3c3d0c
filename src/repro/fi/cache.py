"""Disk cache for campaign results.

Campaigns are deterministic given (app configuration, deployment), so
their aggregate results can be cached and shared across experiment
harnesses and repeated benchmark runs.  The cache stores only the
aggregate joint distribution and profile summary — everything
downstream analyses consume — as JSON under ``REPRO_CACHE_DIR``
(default ``.repro-cache/`` in the working directory).

Persistence goes through the :class:`~repro.engine.store.ResultStore`
abstraction (a :class:`~repro.engine.store.LocalDirStore` rooted at
:func:`cache_dir`), the same layer the engine's checkpoint store uses —
one place owns atomic write-then-rename and corrupt-entry deletion.
The on-disk layout is unchanged from the pre-store versions.

Set ``REPRO_CACHE=0`` to disable, e.g. while modifying the substrate.
"""

from __future__ import annotations

import enum
import hashlib
import json
import os
from dataclasses import fields
from pathlib import Path
from typing import TYPE_CHECKING

from repro.fi.campaign import (
    AppProtocol,
    CampaignResult,
    Deployment,
    run_campaign,
)
from repro.fi.knobs import resolve
from repro.fi.outcomes import Outcome
from repro.obs import CacheCorrupt, CacheHit, CacheMiss, CacheWrite, get_recorder

if TYPE_CHECKING:
    from repro.engine.store import ResultStore

__all__ = [
    "cached_campaign", "cache_dir", "cache_enabled", "deployment_key",
    "load_unique_fraction_stats",
    "store_unique_fraction",
]

_CACHE_VERSION = "v1"


def cache_enabled() -> bool:
    """Is disk caching active? (disable with ``REPRO_CACHE=0``)."""
    return os.environ.get("REPRO_CACHE", "1") != "0"


def cache_dir() -> Path:
    """Cache directory (``REPRO_CACHE_DIR``, default ``.repro-cache``)."""
    return Path(os.environ.get("REPRO_CACHE_DIR", ".repro-cache"))


#: Identity fields of :class:`Deployment`, in key-string order.
_KEY_FIELDS = sorted(
    (f for f in fields(Deployment) if "key" in f.metadata),
    key=lambda f: f.metadata["key_order"],
)


def deployment_key(deployment: Deployment) -> str:
    """Stable identity string for a deployment's *result*.

    Derived from the field metadata of :class:`Deployment`: one
    ``tag=value`` per identity field, in key order, with fields marked
    ``omit_default`` left out while at their default (so keys that
    predate such a field stay valid).  Execution knobs — ``jobs``,
    ``lanes``, ``checkpoint_every``, ``backend`` — carry no tag: the
    same string keys both the result cache and the engine's checkpoint
    store (:mod:`repro.engine.checkpoint`), so a campaign interrupted
    under one worker count can resume under another.
    """
    parts = []
    for f in _KEY_FIELDS:
        value = getattr(deployment, f.name)
        if f.metadata["omit_default"] and value == f.default:
            continue
        if isinstance(value, enum.Enum):
            value = value.value
        parts.append(f"{f.metadata['key']}={value}")
    return ",".join(parts)


def _store() -> "ResultStore":
    # local import: repro.engine imports this module during package init
    # (checkpoint keying), so the reverse import must not run at load time
    from repro.engine.store import LocalDirStore

    return LocalDirStore(cache_dir())


def _cache_key(app: AppProtocol, deployment: Deployment) -> str:
    key = f"{_CACHE_VERSION}|{app.cache_key()}|{deployment_key(deployment)}"
    digest = hashlib.sha256(key.encode()).hexdigest()[:24]
    return f"{app.name}-{digest}.json"


def _serialize(result: CampaignResult) -> dict:
    return {
        "version": _CACHE_VERSION,
        "app_name": result.app_name,
        "joint": [
            [outcome.value, ncont, activated, count]
            for (outcome, ncont, activated), count in sorted(
                result.joint.items(), key=lambda kv: (kv[0][0].value, kv[0][1], kv[0][2])
            )
        ],
        "parallel_unique_fraction": result.parallel_unique_fraction,
        "total_instructions": result.total_instructions,
        "candidate_instructions": result.candidate_instructions,
        "profile_time": result.profile_time,
        "injection_time": result.injection_time,
    }


def _deserialize(blob: dict, deployment: Deployment) -> CampaignResult:
    joint = {
        (Outcome(o), int(n), bool(a)): int(c) for o, n, a, c in blob["joint"]
    }
    return CampaignResult(
        app_name=blob["app_name"],
        deployment=deployment,
        joint=joint,
        parallel_unique_fraction=blob["parallel_unique_fraction"],
        total_instructions=blob["total_instructions"],
        candidate_instructions=blob["candidate_instructions"],
        profile_time=blob["profile_time"],
        injection_time=blob["injection_time"],
    )


# ----------------------------------------------------------------------
# parallel-unique profile fractions (one fault-free run per (app, p))
# ----------------------------------------------------------------------
_FRACTIONS_KEY = "unique_fractions.json"


def _fraction_key(app: AppProtocol, nprocs: int) -> str:
    return f"{_CACHE_VERSION}|{app.cache_key()}|p={nprocs}"


def _read_fractions(store: "ResultStore") -> dict:
    raw = store.get(_FRACTIONS_KEY)
    if raw is None:
        return {}
    try:
        blob = json.loads(raw)
    except (json.JSONDecodeError, UnicodeDecodeError):
        store.delete(_FRACTIONS_KEY)  # corrupt: recompute and rewrite
        return {}
    return blob if isinstance(blob, dict) else {}


def load_unique_fraction_stats(
    app: AppProtocol, nprocs: int
) -> tuple[float, int] | None:
    """Cached ``(fraction, candidate_instructions)`` for ``(app, nprocs)``.

    The candidate count is the denominator behind the fraction, needed
    for confidence intervals on the share.  Legacy bare-float cache
    entries (pre-count schema) return None so callers re-profile once
    and rewrite the entry in the current format.
    """
    if not cache_enabled():
        return None
    value = _read_fractions(_store()).get(_fraction_key(app, nprocs))
    if isinstance(value, dict) and "fraction" in value:
        return float(value["fraction"]), int(value.get("candidates", 0))
    return None


def store_unique_fraction(
    app: AppProtocol, nprocs: int, value: float, candidates: int = 0
) -> None:
    """Persist a measured parallel-unique fraction (atomic rewrite)."""
    if not cache_enabled():
        return
    store = _store()
    blob = _read_fractions(store)
    blob[_fraction_key(app, nprocs)] = {
        "fraction": float(value), "candidates": int(candidates),
    }
    store.put(_FRACTIONS_KEY, json.dumps(blob, sort_keys=True).encode())


def cached_campaign(app: AppProtocol, deployment: Deployment) -> CampaignResult:
    """Run (or load) a campaign; results persist across processes.

    A cache file that no longer parses as JSON (truncated by a killed
    process, disk corruption) is deleted immediately and the campaign
    recomputed; a :class:`~repro.obs.CacheCorrupt` event records the
    incident.  Hits, misses and writes are counted with byte sizes when
    observability is enabled.
    """
    # pin the effective precision target and fault scenario before
    # keying: both change what the trials execute, so they must never
    # share a cache entry (or checkpoint identity) with other settings.
    # The resolved execution knobs are handed on as arguments, so
    # run_campaign does not read their env vars a second time.
    deployment, execution = resolve(deployment)
    knobs = vars(execution)
    if not cache_enabled():
        return run_campaign(app, deployment, **knobs)
    obs = get_recorder()
    store = _store()
    key = _cache_key(app, deployment)
    path = store.describe(key)
    raw = store.get(key)
    if raw is not None:
        try:
            text = raw.decode()
            blob = json.loads(text)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            # delete-and-recompute: never leave a known-bad file behind
            store.delete(key)
            if obs.enabled:
                obs.counter("cache.corrupt")
                obs.emit(CacheCorrupt(path=path, reason=str(exc)))
        else:
            try:
                if blob.get("version") == _CACHE_VERSION:
                    result = _deserialize(blob, deployment)
                    if obs.enabled:
                        obs.counter("cache.hits")
                        obs.counter("cache.hit_bytes", len(text))
                        obs.emit(CacheHit(path=path, size_bytes=len(text)))
                    return result
            except (KeyError, ValueError, TypeError):
                pass  # stale schema: recompute below (overwrites entry)
    if obs.enabled:
        obs.counter("cache.misses")
        obs.emit(CacheMiss(path=path))
    result = run_campaign(app, deployment, **knobs)
    payload = json.dumps(_serialize(result))
    size = store.put(key, payload.encode())
    if obs.enabled:
        obs.counter("cache.writes")
        obs.counter("cache.write_bytes", size)
        obs.emit(CacheWrite(path=path, size_bytes=size))
    return result
