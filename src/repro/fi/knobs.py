"""The execution knobs: one table for env parsing, precedence and the CLI.

Every knob of a campaign's execution is one :class:`Knob` row of
:data:`KNOBS`.  The row names the knob's ``Deployment`` field (and
``run_campaign`` keyword), its environment variable, its one parser —
which validates and canonicalizes, and is called by
``Deployment.__post_init__``, the environment reader and the
experiments CLI alike — its default, and its CLI flag.  ``identity``
marks the knobs that change which trials run or what each trial does
(the precision target and the fault scenario): :func:`resolve` pins
those into the deployment before cache keys or checkpoint identities
are derived.  The others only change how and where trials execute, so
results are bit-identical across their values; they travel to the
engine as one :class:`Execution`.

Precedence is the same for every knob: call argument >
``Deployment`` field > environment variable > default.  A malformed
environment value warns once on stderr and falls back to the default
rather than aborting an otherwise valid run (:func:`env_value`).

Adding a knob means adding one row here, its ``Deployment`` field (and,
for an execution knob, its :class:`Execution` field), and its row in
the "Execution knobs" table of ``docs/engine.md``.
"""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Any, Callable

from repro.errors import ConfigurationError
from repro.fi.scenarios import canonical_scenario
from repro.utils.validation import check_positive_int

if TYPE_CHECKING:  # the campaign module imports this one
    from repro.fi.campaign import Deployment

__all__ = [
    "Knob", "KNOBS", "Execution", "env_value", "positive_int", "resolve",
]


def positive_int(name: str) -> Callable[[Any], int]:
    """Parser for a positive integer setting called ``name``."""

    def parse(value: Any) -> int:
        if isinstance(value, str):
            try:
                value = int(value)
            except ValueError:
                raise ConfigurationError(
                    f"{name} must be a positive integer, got {value!r}"
                ) from None
        return check_positive_int(value, name)

    return parse


def _switch(value: Any) -> bool:
    return str(value).strip().lower() not in ("0", "", "false", "no")


def _halfwidth(value: Any) -> float:
    try:
        value = float(value)
    except (TypeError, ValueError):
        raise ConfigurationError(
            f"ci_halfwidth must be a number in (0, 0.5), got {value!r}"
        ) from None
    if not 0.0 < value < 0.5:
        raise ConfigurationError(f"ci_halfwidth must be in (0, 0.5), got {value}")
    return value


def _backend(value: Any) -> str | None:
    # lazy: the engine package imports the campaign module in turn, and
    # `import repro` must not load the engine
    from repro.engine.backends import canonical_backend

    return canonical_backend(value)


@dataclass(frozen=True)
class Knob:
    """One execution knob (see the module docstring)."""

    name: str
    env: str
    #: validates and canonicalizes a value (argument, field, env string
    #: or CLI string); raises ConfigurationError
    parse: Callable[[Any], Any]
    default: Any
    flag: str
    #: CLI metavar; None makes the flag an on/off switch
    metavar: str | None
    help: str
    #: part of the result identity (cache key, checkpoint identity)
    identity: bool = False


KNOBS: tuple[Knob, ...] = (
    Knob(
        "jobs", "REPRO_JOBS", positive_int("jobs"), 1, "--jobs", "N",
        "worker processes per campaign (default: $REPRO_JOBS or 1). "
        "Results are bit-identical for any N; see docs/performance.md",
    ),
    Knob(
        "lanes", "REPRO_LANES", positive_int("lanes"), 1, "--lanes", "N",
        "fault-injection trials batched per lane-vectorized pass through "
        "the application (default: $REPRO_LANES or 1). Results are "
        "bit-identical for any N; see docs/performance.md",
    ),
    Knob(
        "checkpoint_every", "REPRO_CHECKPOINT_EVERY",
        positive_int("checkpoint_every"), None, "--checkpoint-every", "N",
        "persist campaign progress every N trials; an interrupted run can "
        "then be resumed with --resume (default: $REPRO_CHECKPOINT_EVERY "
        "or off; see docs/engine.md)",
    ),
    Knob(
        "resume", "REPRO_RESUME", _switch, False, "--resume", None,
        "resume interrupted campaigns from their checkpoints, re-running "
        "only the missing trials (default: $REPRO_RESUME or off)",
    ),
    Knob(
        "ci_halfwidth", "REPRO_CI_HALFWIDTH", _halfwidth, None,
        "--ci-halfwidth", "H",
        "adaptive precision target in (0, 0.5): stop each deployment once "
        "every outcome rate's 95%% Wilson half-width is <= H, with --trials "
        "as the cap (e.g. 0.05 for ±5 pp; see docs/adaptive.md). Default: "
        "$REPRO_CI_HALFWIDTH or fixed-N",
        identity=True,
    ),
    Knob(
        "scenario", "REPRO_SCENARIO", canonical_scenario, None, "--scenario",
        "NAME[:k=v,...]",
        "fault-scenario family injected per trial: bitflip (default), "
        "rankkill (fail-stop a rank; rank=R pins the victim), or msgcorrupt "
        "(flip a bit in a message in transit; bit=B pins the bit). See "
        "docs/scenarios.md. Default: $REPRO_SCENARIO or bitflip",
        identity=True,
    ),
    Knob(
        "backend", "REPRO_BACKEND", _backend, None, "--backend", "SPEC",
        "execution backend for every campaign: inline, process, or "
        "distributed:host:port (a controller socket that repro-worker "
        "processes connect to; port 0 binds ephemerally — see "
        "docs/distributed.md). Results are bit-identical across backends. "
        "Default: $REPRO_BACKEND or auto-select from --jobs",
    ),
)


def env_value(env: str, parse: Callable[[Any], Any], default: Any) -> Any:
    """``parse($env)``, or ``default`` when unset, blank or malformed.

    A malformed value warns once on stderr and falls back to
    ``default`` rather than aborting an otherwise valid run.
    """
    raw = os.environ.get(env)
    if raw is None or not raw.strip():
        return default
    try:
        return parse(raw)
    except ConfigurationError as exc:
        fallback = "" if default is None else f", using {default}"
        print(
            f"repro: warning: malformed {env}={raw!r} ({exc}); "
            f"ignoring {env}{fallback}",
            file=sys.stderr,
        )
        return default


@dataclass(frozen=True)
class Execution:
    """The resolved execution knobs of one campaign.

    None of them is part of the result identity: records, events and
    provenance are bit-identical for any combination.
    ``checkpoint_every`` None means no checkpointing.
    """

    jobs: int
    lanes: int
    checkpoint_every: int | None
    resume: bool
    backend: str | None


def resolve(
    deployment: "Deployment", **args: Any
) -> tuple["Deployment", Execution]:
    """Resolve every knob: ``(deployment, Execution)``.

    Precedence per knob: keyword argument > ``Deployment`` field >
    environment variable > default.  The identity knobs are pinned into
    the returned deployment (the same object when nothing changed), so
    cache keys and checkpoint identities derived from it agree with what
    runs; the execution knobs come back as one :class:`Execution`.
    """
    unknown = set(args) - {knob.name for knob in KNOBS}
    if unknown:
        raise TypeError(f"unknown execution knob(s): {', '.join(sorted(unknown))}")
    values = {}
    for knob in KNOBS:
        arg = args.get(knob.name)
        current = getattr(deployment, knob.name, None)
        if arg is not None:
            values[knob.name] = knob.parse(arg)
        elif current is not None:
            values[knob.name] = current  # canonicalized at construction
        else:
            values[knob.name] = env_value(knob.env, knob.parse, knob.default)
    pinned = {knob.name: values.pop(knob.name) for knob in KNOBS if knob.identity}
    if any(getattr(deployment, name) != value for name, value in pinned.items()):
        deployment = replace(deployment, **pinned)
    return deployment, Execution(**values)
