"""Lane-vectorized shadow execution: scalar parity and the lanes knob.

The hard guarantee under test: ``run_campaign(..., lanes=N)`` is
bit-identical to ``lanes=1`` — joint content *and* insertion order,
records, events (minus wall-clock fields), and provenance bytes — for
any lane count, any worker count, and any interruption-and-resume
pattern in between (see docs/performance.md, "Lane vectorization").
Apps are module-level classes so ``spawn`` workers can unpickle them.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

import repro.fi.lanes as lanes_mod
from repro import get_app, obs
from repro.fi.cache import deployment_key
from repro.fi.campaign import Deployment, run_campaign
from repro.fi.knobs import resolve
from repro.fi.lanes import BatchTracer
from repro.fi.plan import InjectionPlan, PlannedFlip
from repro.mpisim.collectives import reduce_payloads
from repro.obs import provenance_path
from repro.taint.laneops import LaneFPOps
from repro.taint.region import Region
from repro.taint.tarray import TArray
from repro.taint.tracer_api import Operand


class LaneApp:
    """Distributed dot product with reductions and an allreduce.

    Exercises elementwise ops, a sequential-decomposition reduction
    (injection sites inside ``dot``), and collective taint spread — the
    paths where lane batching must reproduce scalar bits exactly.
    """

    name = "laneapp"

    def __init__(self, n=64, tol=1e-9):
        self.n = n
        self.tol = tol

    def program(self, rank, size, comm, fp):
        chunk = self.n // size
        x = fp.asarray(np.linspace(1.0, 2.0, chunk) + rank)
        y = fp.mul(x, x)
        local = fp.dot(x, y)
        total = yield comm.allreduce(local, op="sum")
        if rank == 0:
            return {"total": total.value}
        return None

    def verify(self, output, reference):
        got, ref = output["total"], reference["total"]
        if not (np.isfinite(got) and np.isfinite(ref)):
            return False
        return abs(got - ref) <= self.tol * abs(ref)

    def cache_key(self):
        return f"laneapp(n={self.n},tol={self.tol})"


class BranchyApp(LaneApp):
    """Reads ``.value`` mid-program: diverged lanes must eject cleanly."""

    name = "branchy"

    def program(self, rank, size, comm, fp):
        chunk = self.n // size
        x = fp.asarray(np.linspace(1.0, 2.0, chunk) + rank)
        local = fp.dot(x, x)
        total = yield comm.allreduce(local, op="sum")
        # Control-flow read: any lane whose value diverged from golden
        # leaves the shared path here and replays on the scalar path.
        if total.value > 0:
            z = fp.add(x, x)
        else:
            z = fp.sub(x, x)
        final = yield comm.allreduce(fp.sum(z), op="sum")
        if rank == 0:
            return {"total": final.value}
        return None

    def cache_key(self):
        return f"branchy(n={self.n},tol={self.tol})"


def _strip_times(line: str) -> dict:
    event = json.loads(line)
    for key in ("ts", "duration_s", "profile_time", "injection_time"):
        event.pop(key, None)
    return event


def _run_traced(app, deployment, tmp_path, tag, *, lanes, jobs=1):
    """One campaign with a JSONL trace; returns (result, events, prov)."""
    trace = tmp_path / f"{tag}.jsonl"
    previous = obs.get_recorder()
    rec = obs.configure(trace_path=trace)
    try:
        result = run_campaign(
            app, deployment, keep_records=True, jobs=jobs, lanes=lanes
        )
    finally:
        rec.close()
        obs.set_recorder(previous)
    events = [_strip_times(line) for line in trace.read_text().splitlines()]
    prov = provenance_path(trace).read_bytes()
    return result, events, prov


class TestScalarParity:
    """lanes=N must be indistinguishable from lanes=1 in every output."""

    @pytest.mark.parametrize("lanes", [2, 8, 32])
    def test_records_joint_events_provenance_identical(self, tmp_path, lanes):
        app = LaneApp()
        dep = Deployment(nprocs=2, trials=24, seed=9)
        base, ev1, pv1 = _run_traced(app, dep, tmp_path, "scalar", lanes=1)
        got, ev, pv = _run_traced(app, dep, tmp_path, f"l{lanes}", lanes=lanes)
        assert got.joint == base.joint
        assert list(got.joint) == list(base.joint)
        assert got.records == base.records
        assert ev == ev1
        assert pv == pv1

    def test_lanes_compose_with_jobs(self, tmp_path):
        app = LaneApp()
        dep = Deployment(nprocs=2, trials=20, seed=4)
        base = run_campaign(app, dep, keep_records=True, jobs=1, lanes=1)
        got = run_campaign(
            app, dep, keep_records=True, jobs=2, lanes=4, checkpoint_every=5
        )
        assert got.joint == base.joint
        assert list(got.joint) == list(base.joint)
        assert got.records == base.records

    def test_lane_trailing_block_shorter_than_lanes(self):
        """Trial count not divisible by lanes: the short tail still runs."""
        app = LaneApp()
        dep = Deployment(nprocs=2, trials=7, seed=2)
        base = run_campaign(app, dep, keep_records=True, jobs=1, lanes=1)
        got = run_campaign(app, dep, keep_records=True, jobs=1, lanes=4)
        assert got.records == base.records


class TestScalarParityOnRealApps:
    """The parity contract on the shipped apps, past the toy LaneApp.

    ``nprocs=8`` is the smallest rank count at which numpy sums an
    allreduce's rank axis pairwise rather than in sequence.
    """

    @pytest.mark.parametrize("name", ["cg", "minife"])
    def test_nprocs8_lanes32_records_match_scalar(self, name):
        dep = Deployment(nprocs=8, trials=64, seed=1)
        base = run_campaign(get_app(name), dep, keep_records=True, jobs=1,
                            lanes=1)
        got = run_campaign(get_app(name), dep, keep_records=True, jobs=1,
                           lanes=32)
        assert got.records == base.records
        assert list(got.joint) == list(base.joint)

    def test_mg_lane_flips_reach_every_rank_like_scalar(self):
        """Trials 96 and 118 inject into a halo sum whose lane stack is
        not lane-major; at lanes=32 the flips used to be lost, leaving
        one contaminated rank where the scalar path reports four."""
        dep = Deployment(nprocs=4, trials=128, seed=1)
        base = run_campaign(get_app("mg"), dep, keep_records=True, jobs=1,
                            lanes=1)
        got = run_campaign(get_app("mg"), dep, keep_records=True, jobs=1,
                           lanes=32)
        assert [got.records[t].n_contaminated for t in (96, 118)] == [4, 4]
        assert got.records == base.records


class TestLaneBitParity:
    """Op-level checks of the invariants the campaign tests rely on."""

    def test_flip_lands_in_a_stack_that_is_not_lane_major(self):
        flip = PlannedFlip(0, Region.COMMON, 5, Operand.OUT, 62)
        batch = BatchTracer([InjectionPlan((flip,)), InjectionPlan(())])
        fp = LaneFPOps(batch, 0, batch)
        g = np.arange(1.0, 9.0).reshape(2, 4)
        f = np.stack([g, g])
        f[1, 0, 0] = -1.0  # lane 1 diverged, so the input carries lanes
        # rows interleaved in memory (axis 1 outermost), as a
        # concatenate of a broadcast row and a lane stack lays them out
        interleaved = np.ascontiguousarray(f.transpose(1, 0, 2)).transpose(1, 0, 2)
        x = TArray.batched(g, interleaved, tracer=batch)
        out = fp.add(x, x)
        assert out.lanes.div.tolist() == [True, True]
        assert out.lanes.fstack[0].flat[5] != out.golden.flat[5]
        assert batch.contaminated_ranks(0) == {0}

    @pytest.mark.parametrize("nprocs", [8, 16, 64])
    @pytest.mark.parametrize("shape", [(), (1,), (3,)])
    def test_allreduce_rounds_each_lane_like_its_scalar_trial(
        self, nprocs, shape
    ):
        rng = np.random.default_rng(nprocs + 100 * len(shape))
        k = 4
        for _ in range(20):
            goldens, stacks = [], []
            for _ in range(nprocs):
                g = rng.standard_normal(shape) * 10.0 ** rng.integers(-4, 5)
                f = np.repeat(g[np.newaxis], k, axis=0)
                # lane 0 stays clean everywhere; the others each diverge
                # on a random subset of ranks
                for lane in range(1, k):
                    if rng.random() < 0.3:
                        f[lane] = g * (1.0 + rng.standard_normal(shape))
                goldens.append(g)
                stacks.append(f)
            payloads = [
                TArray.batched(g, f) for g, f in zip(goldens, stacks)
            ]
            out = reduce_payloads(payloads, "sum")
            for lane in range(k):
                scalar = reduce_payloads(
                    [TArray(g, f[lane]) for g, f in zip(goldens, stacks)],
                    "sum",
                )
                row = (
                    out.faulty if out.lanes is None else out.lanes.fstack[lane]
                )
                assert row.tobytes() == scalar.faulty.tobytes()
                lane_div = False if out.lanes is None else out.lanes.div[lane]
                assert lane_div == scalar.diverged


class TestInterruptResume:
    def test_resume_matches_uninterrupted_scalar(self, monkeypatch):
        app = LaneApp()
        dep = Deployment(nprocs=2, trials=24, seed=9)
        clean = run_campaign(app, dep, keep_records=True, jobs=1, lanes=1)

        real = lanes_mod.run_lane_block
        calls = {"n": 0}

        def interrupted(*args, **kwargs):
            calls["n"] += 1
            if calls["n"] > 2:  # two blocks = one checkpointed chunk
                raise KeyboardInterrupt
            return real(*args, **kwargs)

        monkeypatch.setattr(lanes_mod, "run_lane_block", interrupted)
        with pytest.raises(KeyboardInterrupt):
            run_campaign(app, dep, keep_records=True, jobs=1, lanes=4,
                         checkpoint_every=8)
        monkeypatch.setattr(lanes_mod, "run_lane_block", real)

        resumed = run_campaign(app, dep, keep_records=True, jobs=1, lanes=4,
                               checkpoint_every=8, resume=True)
        assert resumed.joint == clean.joint
        assert list(resumed.joint) == list(clean.joint)
        assert resumed.records == clean.records

    def test_resume_under_different_lane_count(self, monkeypatch):
        """Lane count is an execution knob: a checkpoint written under
        one value resumes under any other (chunk layout is pinned at
        first write and lanes-invariant)."""
        app = LaneApp()
        dep = Deployment(nprocs=2, trials=24, seed=9)
        clean = run_campaign(app, dep, keep_records=True, jobs=1, lanes=1)

        real = lanes_mod.run_lane_block
        calls = {"n": 0}

        def interrupted(*args, **kwargs):
            calls["n"] += 1
            if calls["n"] > 1:
                raise KeyboardInterrupt
            return real(*args, **kwargs)

        monkeypatch.setattr(lanes_mod, "run_lane_block", interrupted)
        with pytest.raises(KeyboardInterrupt):
            run_campaign(app, dep, keep_records=True, jobs=1, lanes=8,
                         checkpoint_every=8)
        monkeypatch.setattr(lanes_mod, "run_lane_block", real)

        resumed = run_campaign(app, dep, keep_records=True, jobs=1, lanes=3,
                               checkpoint_every=8, resume=True)
        assert resumed.records == clean.records


class TestEjection:
    def test_branchy_app_ejects_and_stays_identical(self, monkeypatch):
        app = BranchyApp()
        dep = Deployment(nprocs=2, trials=24, seed=9)
        base = run_campaign(app, dep, keep_records=True, jobs=1, lanes=1)

        ejections = []
        real = lanes_mod.BatchTracer.eject

        def spying(self, lanes, reason):
            ejections.extend(lanes)
            return real(self, lanes, reason)

        monkeypatch.setattr(lanes_mod.BatchTracer, "eject", spying)
        got = run_campaign(app, dep, keep_records=True, jobs=1, lanes=8)
        assert ejections, "control-flow read never ejected a lane"
        assert got.joint == base.joint
        assert got.records == base.records


class TestLanesKnob:
    def test_malformed_env_falls_back_to_one(self, monkeypatch, capsys):
        dep = Deployment(nprocs=1, trials=1)
        monkeypatch.setenv("REPRO_LANES", "many")
        assert resolve(dep)[1].lanes == 1
        assert "REPRO_LANES" in capsys.readouterr().err
        monkeypatch.setenv("REPRO_LANES", "0")
        assert resolve(dep)[1].lanes == 1

    def test_cache_key_excludes_lanes(self):
        dep = Deployment(nprocs=2, trials=10, seed=5)
        batched = Deployment(nprocs=2, trials=10, seed=5, lanes=32)
        assert deployment_key(dep) == deployment_key(batched)

    def test_profiling_stays_per_trial(self):
        """Candidate-instruction counts come from scalar profiling runs
        regardless of the lane count (profiling forces lanes=1)."""
        app = LaneApp()
        dep = Deployment(nprocs=2, trials=8, seed=3)
        base = run_campaign(app, dep, jobs=1, lanes=1)
        got = run_campaign(app, dep, jobs=1, lanes=8)
        assert got.total_instructions == base.total_instructions
        assert got.candidate_instructions == base.candidate_instructions


class TestDataMovementDtypes:
    """scatter/concatenate/stack preserve non-default dtypes."""

    def test_scatter_keeps_float32(self):
        values = TArray(np.ones(3, dtype=np.float32))
        out = TArray.scatter(values, np.array([0, 2, 4]), 6)
        assert out.golden.dtype == np.float32

    def test_concatenate_keeps_float32(self):
        parts = [TArray(np.ones(2, dtype=np.float32)) for _ in range(2)]
        out = TArray.concatenate(parts)
        assert out.golden.dtype == np.float32

    def test_stack_keeps_float32(self):
        parts = [TArray(np.ones(2, dtype=np.float32)) for _ in range(2)]
        out = TArray.stack(parts)
        assert out.golden.dtype == np.float32
