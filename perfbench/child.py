"""One workload iteration in a fresh process (spawned by ``run.py``).

Usage: ``python3 perfbench/child.py --workload NAME --seed N --out DIR
--spawned T [--trace] [--lanes K]``

``--spawned`` is the parent's ``time.monotonic()`` just before the
spawn (the clock is system-wide on Linux), so ``setup_s`` covers
interpreter start, ``import repro``, ``get_app`` and creating the fresh
cache and output directories — everything up to the first campaign
call.  During the timed window a sampler times a fixed loop every
``SAMPLE_EVERY_S`` seconds (see :class:`SpeedSampler`).  Prints one JSON
object on stdout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import signal
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Trials per deployment of ``predict-ft`` (every serial, small-scale
#: and unique campaign of the predictor).
PREDICT_TRIALS = 6
#: Trials per ground-truth campaign of ``measure-p64``.
MEASURE_TRIALS = 8
#: Trials per campaign of ``lanes-small``: six 32-lane blocks, each
#: block one checkpointed chunk.
LANES_TRIALS = 192
LANES = 32
CHECKPOINT_EVERY = 32

#: Speed sampler: every ``SAMPLE_EVERY_S`` of the timed window, a
#: SIGALRM handler times ``SAMPLE_LOOP`` rounds of a fixed interpreter
#: loop that touches no ``repro`` code (about 0.2 ms, so 1% of the
#: window).  The median sample tells ``run.py`` how fast the machine ran
#: the iteration.
SAMPLE_LOOP = 3000
SAMPLE_EVERY_S = 0.02

#: Apps of each workload; each workload makes one campaign call per app
#: (``predict-ft``'s one call builds the whole FT predictor).
APPS = {
    "predict-ft": ("ft",),
    "measure-p64": ("cg", "mg"),
    "lanes-small": ("cg", "mg", "minife"),
}
WORKLOADS = tuple(APPS)


def short_digest(blob: bytes) -> str:
    return hashlib.sha256(blob).hexdigest()[:16]


def joint_digest(result) -> str:
    """Digest of a campaign's ``joint``: content and insertion order."""
    rows = [[o.value, n, a, c] for (o, n, a), c in result.joint.items()]
    return short_digest(json.dumps(rows).encode())


def check_campaign(result, trials: int) -> list[str]:
    """Invariants every campaign guarantees, whatever the seed."""
    problems = []
    if sum(result.joint.values()) != trials:
        problems.append(f"joint counts sum to {sum(result.joint.values())}, not {trials}")
    for name in ("success_rate", "sdc_rate", "failure_rate"):
        rate = getattr(result, name)
        if not 0.0 <= rate <= 1.0:
            problems.append(f"{name}={rate} outside [0, 1]")
    return problems


class Iteration:
    """Outputs of one workload iteration: digests, trials, problems."""

    def __init__(self) -> None:
        self.parts: dict[str, str] = {}
        self.trials = 0
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def campaign(self, label: str, run) -> None:
        """Run one campaign call; an exception or broken invariant fails it."""
        self.attempted += 1
        try:
            problems = run()
        except Exception as exc:  # noqa: BLE001 — counted, reported, run goes on
            problems = [f"raised {type(exc).__name__}: {exc}"]
        if problems:
            self.failed += 1
            self.problems.extend(f"{label}: {p}" for p in problems)


# ----------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------
def isolate(out: Path) -> None:
    """Fresh cache/output directories and a pinned ``REPRO_*`` environment.

    A warm cache or an ambient knob (trial count, lanes, jobs, resume,
    precision target, scenario, backend, telemetry port) must never skip
    or reshape the measured work, so every ``REPRO_*`` variable is
    cleared and the ones with a safe explicit value are pinned.
    """
    (out / "cache").mkdir(parents=True)
    (out / "obs").mkdir()
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    os.environ.update({
        "REPRO_CACHE": "1",
        "REPRO_CACHE_DIR": str(out / "cache"),
        "REPRO_JOBS": "1",
        "REPRO_LANES": "1",
        "REPRO_RESUME": "0",
    })


def setup(workload: str):
    """Resolve the workload's apps (the last step before the first call)."""
    from repro import get_app

    return {name: get_app(name) for name in APPS[workload]}


def predict_ft(it: Iteration, apps, seed: int, out: Path, lanes: int) -> None:
    """Full predictor for FT, p=4 -> p=64, scalar path, recorder off."""
    import repro.experiments.common as common
    from repro.fi.cache import deployment_key

    captured = []
    inner = common.cached_campaign

    def capture(app, deployment):
        result = inner(app, deployment)
        captured.append(result)
        return result

    def run():
        common.cached_campaign = capture
        try:
            predictor = common.build_predictor(
                "ft", small_nprocs=4, target_nprocs=64,
                trials=PREDICT_TRIALS, seed=seed, jobs=1,
            )
            predicted = predictor.predict(64)
        finally:
            common.cached_campaign = inner
        problems = []
        for result in captured:
            it.parts[f"joint {deployment_key(result.deployment)}"] = joint_digest(result)
            it.trials += result.n_trials
            problems += check_campaign(result, result.deployment.trials)
        rates = [predicted.success, predicted.sdc, predicted.failure]
        if not all(0.0 <= r <= 1.0 for r in rates):
            problems.append(f"predicted rates {rates} outside [0, 1]")
        it.parts["predicted"] = short_digest(json.dumps([repr(float(r)) for r in rates]).encode())
        keys = sorted(p.relative_to(out / "cache").as_posix()
                      for p in (out / "cache").rglob("*") if p.is_file())
        it.parts["cache_keys"] = short_digest(json.dumps(keys).encode())
        return problems

    it.campaign("predict ft", run)


def measure_p64(it: Iteration, apps, seed: int, out: Path, lanes: int) -> None:
    """Ground-truth single-error campaigns of CG and MG at p=64."""
    from repro.experiments.common import measured_campaign

    for name, app in apps.items():
        def run(app=app, name=name):
            result = measured_campaign(app, 64, MEASURE_TRIALS, seed=seed, jobs=1)
            it.parts[f"joint {name}"] = joint_digest(result)
            it.trials += result.n_trials
            return check_campaign(result, MEASURE_TRIALS)

        it.campaign(f"measure {name} p=64", run)


def lanes_small(it: Iteration, apps, seed: int, out: Path, lanes: int) -> None:
    """Lane-batched, checkpointed, recorded campaigns at p=8."""
    from repro import Deployment, obs, run_campaign

    trace = out / "obs" / "trace.jsonl"
    recorder = obs.configure(trace_path=trace)  # provenance sidecar on
    try:
        for name, app in apps.items():
            def run(app=app, name=name):
                result = run_campaign(
                    app, Deployment(nprocs=8, trials=LANES_TRIALS, seed=seed),
                    jobs=1, lanes=lanes, checkpoint_every=CHECKPOINT_EVERY,
                )
                it.parts[f"joint {name}"] = joint_digest(result)
                it.trials += result.n_trials
                return check_campaign(result, LANES_TRIALS)

            it.campaign(f"lanes {name} p=8", run)
    finally:
        recorder.close()
        obs.reset()
    sidecar = obs.provenance_path(trace)
    data = sidecar.read_bytes() if sidecar.exists() else b""
    it.parts["provenance"] = short_digest(data)
    lines = data.count(b"\n")
    if lines != it.trials:
        # the sidecar is shared by the three campaigns: fail them all
        it.failed = it.attempted
        it.problems.append(f"provenance sidecar has {lines} lines for {it.trials} trials")


RUNNERS = {"predict-ft": predict_ft, "measure-p64": measure_p64, "lanes-small": lanes_small}
DEFAULT_LANES = {"predict-ft": 1, "measure-p64": 1, "lanes-small": LANES}


class SpeedSampler:
    """Times the fixed loop on every SIGALRM while the context is open.

    A shared host changes how fast it runs a vCPU for seconds to minutes
    at a time.  Samples spread over the whole window see the same
    slowdowns as the workload, which endpoint probes miss.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []

    def sample(self, *_) -> None:
        t0 = time.perf_counter()
        total = 0
        for i in range(SAMPLE_LOOP):
            total += i * i
        self.samples.append(time.perf_counter() - t0)

    def __enter__(self) -> "SpeedSampler":
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.sample()  # at least one sample, however short the window

    def median(self) -> float:
        return sorted(self.samples)[len(self.samples) // 2]


def dir_bytes(path: Path, pattern: str = "*") -> int:
    return sum(p.stat().st_size for p in path.rglob(pattern) if p.is_file())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--spawned", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--lanes", type=int, default=None,
                        help="override the workload's lane count (pinning uses 1)")
    args = parser.parse_args(argv)

    isolate(args.out)
    sys.path.insert(0, str(SRC))
    import numpy
    import repro

    if not Path(repro.__file__).resolve().is_relative_to(SRC):
        print(f"perfbench: imported repro from {repro.__file__}, not {SRC}",
              file=sys.stderr)
        return 3
    apps = setup(args.workload)
    first_call = time.monotonic()
    setup_s = first_call - args.spawned

    tracer = None
    if args.trace:
        from tracing import SpanTracer, install, layer_metrics

        tracer = SpanTracer()
        install(tracer)

    it = Iteration()
    lanes = args.lanes if args.lanes is not None else DEFAULT_LANES[args.workload]
    with SpeedSampler() as sampler:
        window_t0 = time.perf_counter()
        RUNNERS[args.workload](it, apps, args.seed, args.out, lanes)
        window_s = time.perf_counter() - window_t0

    out_bytes = dir_bytes(args.out)
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "traced": args.trace,
        "lanes": lanes,
        "setup_s": setup_s,
        "window_s": window_s,
        "probe_s": sampler.median(),
        "probe_samples": len(sampler.samples),
        "trials": it.trials,
        "attempted": it.attempted,
        "failed": it.failed,
        "problems": it.problems,
        "parts": it.parts,
        "digest": short_digest(json.dumps(it.parts, sort_keys=True).encode()),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "output_bytes": out_bytes,
        "numpy": numpy.__version__,
    }
    if tracer is not None:
        per_trial = 1.0 / it.trials if it.trials else 0.0
        layers = layer_metrics(tracer, window_s)
        layers["obs.provenance_bytes_per_trial"] = (
            dir_bytes(args.out / "obs", "*.provenance.jsonl") * per_trial
        )
        layers["obs.trace_bytes_per_trial"] = (
            dir_bytes(args.out / "obs", "trace.jsonl") * per_trial
        )
        result["layers"] = layers
        tracer.write_spans(args.out / "spans.jsonl")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
