"""Regenerate ``expected.json``: output digests for the pinned seeds.

Usage: ``python3 perfbench/pin.py``

Every input seed a run of a pinned seed can use (``SUBSEEDS`` of them,
see ``run.input_seed``) is pinned.  Digests come from the scalar inline
path (``lanes=1``, ``jobs=1``), whatever lane count a workload measures
with, so a lane-batched run must reproduce the scalar results bit for
bit to pass the check.  The dev seed is for day-to-day runs; the
held-out seed is kept for confirming a performance claim on inputs the
change was not tuned on.
"""

from __future__ import annotations

import json
import shutil
import sys

from child import WORKLOADS
from run import EXPECTED, ROOT, SUBSEEDS, input_seed, run_child

SEEDS = {"dev": 1, "held_out": 1009}


def main() -> int:
    out_root = ROOT / ".perfbench-out" / "pin"
    shutil.rmtree(out_root, ignore_errors=True)
    digests: dict[str, dict[str, dict]] = {}
    for workload in WORKLOADS:
        for seed in [input_seed(s, k) for s in SEEDS.values() for k in range(SUBSEEDS)]:
            r = run_child(workload, seed, out_root / f"{workload}-seed{seed}",
                          traced=False, timeout=900, lanes=1)
            if r.get("crashed") or r["failed"] or r["problems"]:
                print(f"pin: {workload} seed {seed} failed: {r['problems']}",
                      file=sys.stderr)
                return 1
            digests.setdefault(workload, {})[str(seed)] = r["parts"]
            print(f"pin: {workload} seed {seed}: {r['digest']}", file=sys.stderr)
    EXPECTED.write_text(json.dumps({"seeds": SEEDS, "digests": digests}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
