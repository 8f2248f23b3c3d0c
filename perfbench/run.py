"""Repository benchmark: one closed-loop client per workload.

Usage::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs workload iterations back to back, each in a fresh process
(``child.py``; one campaign at a time, ``jobs=1``), for about ``S``
seconds and at least three iterations.  Every iteration gets an empty
cache and output directory and a pinned ``REPRO_*`` environment.  With
``--trace 0`` the end-to-end metrics are medians over the iterations;
with ``--trace 1`` traced and untraced iterations alternate, and the
per-layer metrics are medians over the traced ones.

Throughput is scaled to a reference machine speed: each iteration's
``probe_s`` (the median time of a fixed loop sampled throughout its
window, see ``child.SpeedSampler``) over ``REFERENCE_PROBE_S`` says how
much slower than the reference the machine ran that iteration.  The raw
figures stay in the record.

Iteration ``k`` runs the inputs of ``input_seed(seed, k)`` (a traced
run gives both iterations of a pair the same inputs), so a run's median
spans several input sets rather than one.  Every iteration's outputs
are digested (each campaign's ``joint`` with its insertion order, plus
the workload's own artifacts) and compared with the digests pinned in
``expected.json`` for its input seed; for an unpinned input seed the
benchmark checks the invariants the code guarantees and that every
iteration with that input seed, traced or not, produced the same
digests.

The last stdout line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the full record, stamped
with machine and source provenance, goes to
``.perfbench-out/<workload>-seed<N>-trace<T>/record.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

from child import APPS, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
EXPECTED = HERE / "expected.json"
MANIFEST = ROOT / "BENCHMARK.json"

#: Iterations a run always makes, whatever ``--seconds`` says: the
#: medians need at least three samples (two traced ones per traced run).
MIN_UNTRACED = 3
MIN_TRACED = 2
#: The speed sampler's median on the reference machine, a 2-vCPU Xeon
#: at 2.1 GHz (it read 0.15-0.26 ms there).  ``ref_trials_per_s`` reads
#: as if every iteration had run at that speed.
REFERENCE_PROBE_S = 0.0002
#: Input seeds per run, and their spacing.  Seeds 1 and 1 + SUBSEED_STRIDE
#: give unrelated trial mixes; with the same inputs in every iteration,
#: one seed's mix could read 15% slower than another's in every run.
SUBSEEDS = 10
SUBSEED_STRIDE = 100_003
#: Wall-clock budget of one run; a child still running at the end is
#: killed and its campaigns count as failed.
HARD_LIMIT_S = 170.0


def input_seed(seed: int, index: int) -> int:
    """The inputs of a run's ``index``-th iteration (or pair)."""
    return seed + SUBSEED_STRIDE * (index % SUBSEEDS)


def child_env() -> dict[str, str]:
    """The parent's environment minus ``REPRO_*``, single-threaded BLAS."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update({"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
                "MKL_NUM_THREADS": "1"})
    return env


def run_child(workload: str, seed: int, out: Path, traced: bool,
              timeout: float, lanes: int | None = None) -> dict:
    """One iteration in a fresh process; a failed child yields a stub."""
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload,
           "--seed", str(seed), "--out", str(out)]
    if traced:
        cmd.append("--trace")
    if lanes is not None:
        cmd += ["--lanes", str(lanes)]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            cmd + ["--spawned", repr(spawned)], env=child_env(),
            stdout=subprocess.PIPE, text=True, timeout=max(timeout, 1.0),
        )
    except subprocess.TimeoutExpired:
        problem = f"child timed out after {timeout:.0f} s"
    else:
        lines = proc.stdout.strip().splitlines()
        if proc.returncode == 0 and lines:
            return json.loads(lines[-1])
        problem = f"child exited with code {proc.returncode}"
    return {"seed": seed, "traced": traced, "crashed": True, "problems": [problem],
            "attempted": len(APPS[workload]), "failed": len(APPS[workload]),
            "wall_s": time.monotonic() - spawned}


def source_stamp() -> dict:
    """Git commit when available, and a digest of the package sources."""
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        ).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return {"git_commit": commit, "source_sha256": digest.hexdigest()}


def slowdown(r: dict) -> float:
    """How much slower than the reference the iteration's machine ran."""
    return r["probe_s"] / REFERENCE_PROBE_S


def check(workload: str, results: list[dict]) -> tuple[bool, list[str]]:
    """Compare every iteration's digests with the pinned or first ones.

    Returns ``(verified, problems)``: ``verified`` is False when some
    iteration's input seed is not pinned.  An iteration whose digests
    mismatch has all its campaigns marked failed.
    """
    pinned = json.loads(EXPECTED.read_text())["digests"].get(workload, {})
    first: dict[int, dict] = {}
    verified = True
    problems = []
    for i, r in enumerate(results):
        problems += [f"iteration {i}: {p}" for p in r["problems"]]
        if r.get("crashed"):
            continue
        reference = pinned.get(str(r["seed"]))
        if reference is None:
            verified = False
            reference = first.setdefault(r["seed"], r["parts"])
        if r["parts"] == reference:
            continue
        differing = sorted(k for k in set(r["parts"]) | set(reference)
                           if r["parts"].get(k) != reference.get(k))
        shown = ", ".join(differing[:3]) + (", ..." if len(differing) > 3 else "")
        problems.append(f"iteration {i}: {len(differing)} digest(s) differ from "
                        f"{'pinned' if str(r['seed']) in pinned else 'an earlier iteration'}"
                        f" (input seed {r['seed']}): {shown}")
        r["failed"] = r["attempted"]
    return verified, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SIGTERM raises SystemExit inside subprocess.run, which then kills
    # and reaps the running iteration instead of orphaning it
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no package at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    start = time.monotonic()
    out_root = ROOT / ".perfbench-out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out_root, ignore_errors=True)
    out_root.mkdir(parents=True)

    results: list[dict] = []
    while True:
        traced = bool(args.trace) and len(results) % 2 == 1
        index = len(results) // 2 if args.trace else len(results)
        remaining = HARD_LIMIT_S - (time.monotonic() - start)
        r = run_child(args.workload, input_seed(args.seed, index),
                      out_root / f"iter{len(results)}", traced, remaining)
        results.append(r)
        print(f"perfbench: {args.workload} iteration {len(results) - 1}"
              f"{' traced' if traced else ''}: "
              + (f"{r['trials']} trials in {r['window_s']:.2f} s"
                 if not r.get("crashed") else r["problems"][0]),
              file=sys.stderr)
        if r.get("crashed") and not any(not x.get("crashed") for x in results):
            break  # the program does not run at all: no result to report
        elapsed = time.monotonic() - start
        n_untraced = sum(not x["traced"] for x in results)
        n_traced = len(results) - n_untraced
        enough = n_untraced >= MIN_UNTRACED and (not args.trace or n_traced >= MIN_TRACED)
        # a traced run alternates, so its next step is a pair
        step = (2 if args.trace else 1) * elapsed / len(results)
        if (enough and elapsed + step > args.seconds) or elapsed + step > HARD_LIMIT_S - 10:
            break

    done = [r for r in results if not r.get("crashed")]
    plain = [r for r in done if not r["traced"]]
    traced_runs = [r for r in done if r["traced"]]
    if not plain or (args.trace and not traced_runs):
        print("perfbench: too few iterations completed to report", file=sys.stderr)
        return 1
    verified, problems = check(args.workload, results)
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)

    if args.trace:
        values = {n: median(r["layers"][n] for r in traced_runs)
                  for n in traced_runs[0]["layers"]}
        values["bench.trace_overhead"] = (
            median(r["window_s"] / slowdown(r) for r in traced_runs)
            / median(r["window_s"] / slowdown(r) for r in plain) - 1.0
        )
    else:
        values = {
            "ref_trials_per_s": median(
                r["trials"] / r["window_s"] * slowdown(r) for r in plain
            ),
            "setup_s": median(r["setup_s"] for r in plain),
            "peak_rss_mb": median(r["peak_rss_mb"] for r in plain),
            "output_bytes_per_trial": median(
                r["output_bytes"] / max(r["trials"], 1) for r in plain
            ),
            "campaign_ok_ratio": (attempted - failed) / attempted,
        }
    declared = json.loads(MANIFEST.read_text())["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}

    correct = failed == 0 and not problems
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(),
        "python": platform.python_version(), "numpy": done[0]["numpy"],
        "machine": platform.machine(), **source_stamp(),
        "digests": "verified" if verified else "unverified (input seeds not all pinned)",
        "correct": correct, "problems": problems,
        "attempted": attempted, "failed": failed, "metrics": metrics,
        "raw": {
            "trials_per_s": median(r["trials"] / r["window_s"] for r in plain),
            "probe_s": median(r["probe_s"] for r in done),
        },
        "iterations": results,
    }
    (out_root / "record.json").write_text(json.dumps(record, indent=1))
    for p in problems:
        print(f"perfbench: {p}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
