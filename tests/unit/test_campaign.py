"""Tests for the campaign driver and the disk cache."""

import json

import numpy as np
import pytest

from repro import obs
from repro.errors import ConfigurationError, SimulatedCrashError
from repro.fi.cache import cached_campaign
from repro.fi.campaign import CampaignResult, Deployment, run_campaign
from repro.fi.outcomes import Outcome


class TinyApp:
    """A deliberately simple SPMD app: distributed dot product.

    The checker accepts relative deviations below ``tol``.
    """

    name = "tiny"

    def __init__(self, n=64, tol=1e-9, crash_on_nan=False):
        self.n = n
        self.tol = tol
        self.crash_on_nan = crash_on_nan

    def program(self, rank, size, comm, fp):
        chunk = self.n // size
        x = fp.asarray(np.linspace(1.0, 2.0, chunk) + rank)
        local = fp.dot(x, x)
        if self.crash_on_nan:
            # amplification squares corrupted magnitudes into overflow
            amp = fp.mul(local, local)
            amp = fp.mul(amp, amp)
            if not np.isfinite(amp.value):
                raise SimulatedCrashError("overflow detected")
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
        return f"tiny(n={self.n},tol={self.tol},crash={self.crash_on_nan})"


class TestDeployment:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            Deployment(nprocs=0, trials=10)
        with pytest.raises(ConfigurationError):
            Deployment(nprocs=4, trials=0)
        with pytest.raises(ConfigurationError):
            Deployment(nprocs=4, trials=10, n_errors=2)  # needs target_rank

    def test_multi_error_serial_defaults_to_rank0(self):
        dep = Deployment(nprocs=1, trials=5, n_errors=3)
        assert dep.effective_target_rank == 0


class TestRunCampaign:
    def test_rates_sum_to_one(self):
        res = run_campaign(TinyApp(), Deployment(nprocs=4, trials=40, seed=1))
        assert res.n_trials == 40
        assert res.success_rate + res.sdc_rate + res.failure_rate == pytest.approx(1.0)

    def test_deterministic_under_seed(self):
        a = run_campaign(TinyApp(), Deployment(nprocs=2, trials=30, seed=5))
        b = run_campaign(TinyApp(), Deployment(nprocs=2, trials=30, seed=5))
        assert a.joint == b.joint

    def test_different_seeds_differ(self):
        a = run_campaign(TinyApp(), Deployment(nprocs=2, trials=60, seed=1))
        b = run_campaign(TinyApp(), Deployment(nprocs=2, trials=60, seed=2))
        assert a.joint != b.joint  # overwhelmingly likely

    def test_propagation_counts_within_bounds(self):
        res = run_campaign(TinyApp(), Deployment(nprocs=4, trials=50, seed=3))
        assert all(1 <= n <= 4 for n in res.propagation_counts())

    def test_crash_classified_as_failure(self):
        res = run_campaign(
            TinyApp(crash_on_nan=True), Deployment(nprocs=2, trials=120, seed=7)
        )
        # exponent flips regularly produce inf/nan in the dot product
        assert res.failure_rate > 0

    def test_records_kept_on_request(self):
        res = run_campaign(
            TinyApp(), Deployment(nprocs=1, trials=10, seed=0), keep_records=True
        )
        assert len(res.records) == 10

    def test_conditional_success_rate(self):
        res = run_campaign(TinyApp(), Deployment(nprocs=4, trials=60, seed=9))
        for n in range(1, 5):
            rate = res.success_rate_given_contaminated(n)
            assert rate is None or 0.0 <= rate <= 1.0

    def test_serial_multi_error_campaign(self):
        res = run_campaign(
            TinyApp(), Deployment(nprocs=1, trials=30, n_errors=5, seed=2)
        )
        assert res.n_trials == 30
        # all five flips hit rank 0; contamination is exactly one process
        assert set(res.propagation_counts()) <= {1}

    def test_activation_rate(self):
        res = run_campaign(TinyApp(), Deployment(nprocs=2, trials=20, seed=4))
        assert 0.0 <= res.activation_rate() <= 1.0


class TestCampaignObservability:
    """Per-trial events must match the CampaignResult aggregates."""

    def _run_traced(self, deployment, app=None):
        mem = obs.MemorySink()
        with obs.recording(obs.Recorder([mem])) as rec:
            result = run_campaign(app or TinyApp(), deployment)
        return result, mem, rec

    def test_trial_events_match_joint(self):
        res, mem, _ = self._run_traced(Deployment(nprocs=2, trials=40, seed=1))
        trials = mem.of(obs.TrialFinished)
        assert len(trials) == res.n_trials == 40
        for outcome in Outcome:
            emitted = sum(1 for e in trials if e.outcome == outcome.value)
            assert emitted == res.outcome_count(outcome)
        # contamination spread per trial replays the joint distribution
        spread = sorted(e.n_contaminated for e in trials)
        expected = sorted(
            n for (_, n, _), c in res.joint.items() for _ in range(c)
        )
        assert spread == expected

    def test_campaign_start_finish_events(self):
        res, mem, _ = self._run_traced(Deployment(nprocs=2, trials=10, seed=2))
        (started,) = mem.of(obs.CampaignStarted)
        assert (started.app, started.nprocs, started.trials) == ("tiny", 2, 10)
        (finished,) = mem.of(obs.CampaignFinished)
        assert finished.success_rate == pytest.approx(res.success_rate)
        assert finished.sdc_rate == pytest.approx(res.sdc_rate)

    def test_fault_injected_events_match_activation(self):
        res, mem, _ = self._run_traced(Deployment(nprocs=1, trials=15, seed=3))
        injected = mem.of(obs.FaultInjected)
        # single-error deployment: one fired flip per activated trial
        activated_trials = sum(
            c for (_, _, act), c in res.joint.items() if act
        )
        assert len(injected) == activated_trials
        assert all(e.rank == 0 for e in injected)

    def test_span_totals_nest(self):
        _, _, rec = self._run_traced(Deployment(nprocs=1, trials=5, seed=0))
        assert rec.span_totals["campaign"][0] == 1
        assert rec.span_totals["campaign/profile"][0] == 1
        assert rec.span_totals["campaign/trial"][0] == 5
        assert rec.span_totals["campaign/trial/inject"][0] == 5
        # children are contained in their parent's wall-clock
        assert rec.span_totals["campaign/trial"][1] <= rec.span_totals["campaign"][1]

    def test_metrics_counters(self):
        res, _, rec = self._run_traced(Deployment(nprocs=2, trials=10, seed=4))
        by_outcome = {
            o: rec.counters.get(f"campaign.trials.{o.value}", 0) for o in Outcome
        }
        assert by_outcome == {o: res.outcome_count(o) for o in Outcome}
        # both ranks performed candidate FP work
        assert rec.counters["fp.add.rank0"] > 0
        assert rec.counters["fp.add.rank1"] > 0
        assert len(rec.histograms["taint.contamination_spread"]) == 10

    def test_disabled_recorder_emits_nothing(self):
        mem = obs.MemorySink()
        with obs.recording(obs.Recorder([mem], enabled=False)) as rec:
            run_campaign(TinyApp(), Deployment(nprocs=1, trials=5, seed=0))
        assert mem.events == []
        assert rec.counters == {}
        assert rec.span_totals == {}

    def test_instrumentation_does_not_change_results(self):
        dep = Deployment(nprocs=2, trials=20, seed=6)
        plain = run_campaign(TinyApp(), dep)
        traced, _, _ = self._run_traced(dep)
        assert traced.joint == plain.joint


class TestCache:
    def test_roundtrip(self, tmp_cache):
        app = TinyApp()
        dep = Deployment(nprocs=2, trials=25, seed=11)
        first = cached_campaign(app, dep)
        files = list(tmp_cache.glob("*.json"))
        assert len(files) == 1
        second = cached_campaign(app, dep)
        assert second.joint == first.joint
        assert second.parallel_unique_fraction == first.parallel_unique_fraction

    def test_cache_disabled(self, tmp_cache, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE", "0")
        cached_campaign(TinyApp(), Deployment(nprocs=1, trials=5, seed=0))
        assert list(tmp_cache.glob("*.json")) == []

    def test_corrupt_entry_recomputed(self, tmp_cache):
        app = TinyApp()
        dep = Deployment(nprocs=1, trials=5, seed=0)
        cached_campaign(app, dep)
        (path,) = tmp_cache.glob("*.json")
        path.write_text("{ not json")
        res = cached_campaign(app, dep)
        assert res.n_trials == 5
        assert json.loads(path.read_text())["app_name"] == "tiny"

    def test_truncated_entry_deleted_and_recomputed(self, tmp_cache):
        app = TinyApp()
        dep = Deployment(nprocs=1, trials=5, seed=0)
        cached_campaign(app, dep)
        (path,) = tmp_cache.glob("*.json")
        path.write_text(path.read_text()[:40])  # truncated mid-write
        mem = obs.MemorySink()
        with obs.recording(obs.Recorder([mem])):
            res = cached_campaign(app, dep)
        assert res.n_trials == 5
        (corrupt,) = mem.of(obs.CacheCorrupt)
        assert corrupt.path == str(path)
        assert mem.of(obs.CacheMiss) and mem.of(obs.CacheWrite)
        # the rewritten entry is valid again and served as a hit
        with obs.recording(obs.Recorder([mem])):
            cached_campaign(app, dep)
        (hit,) = mem.of(obs.CacheHit)
        assert hit.size_bytes == path.stat().st_size

    def test_hit_and_miss_events(self, tmp_cache):
        app = TinyApp()
        dep = Deployment(nprocs=1, trials=5, seed=3)
        mem = obs.MemorySink()
        with obs.recording(obs.Recorder([mem])) as rec:
            cached_campaign(app, dep)   # miss + write
            cached_campaign(app, dep)   # hit
        assert len(mem.of(obs.CacheMiss)) == 1
        assert len(mem.of(obs.CacheWrite)) == 1
        assert len(mem.of(obs.CacheHit)) == 1
        assert rec.counters["cache.hits"] == 1
        assert rec.counters["cache.hit_bytes"] > 0

    def test_distinct_deployments_distinct_entries(self, tmp_cache):
        app = TinyApp()
        cached_campaign(app, Deployment(nprocs=1, trials=5, seed=0))
        cached_campaign(app, Deployment(nprocs=1, trials=5, seed=1))
        assert len(list(tmp_cache.glob("*.json"))) == 2

    def test_max_steps_changes_the_key(self):
        from repro.fi.cache import deployment_key

        base = Deployment(nprocs=2, trials=10, seed=0)
        guarded = Deployment(nprocs=2, trials=10, seed=0, max_steps=500)
        assert deployment_key(base) != deployment_key(guarded)
        # ... but keys without the guard keep their historical form, so
        # entries cached before the field existed are still served
        assert ",ms=" not in deployment_key(base)
        assert deployment_key(guarded).endswith(",ms=500")

    def test_jobs_not_part_of_the_key(self):
        from repro.fi.cache import deployment_key

        a = Deployment(nprocs=2, trials=10, seed=0, jobs=4)
        b = Deployment(nprocs=2, trials=10, seed=0, jobs=1)
        assert deployment_key(a) == deployment_key(b)

    def test_multibit_pattern_has_its_own_entry(self, tmp_cache):
        app = TinyApp()
        single = cached_campaign(app, Deployment(nprocs=1, trials=20, seed=0))
        double = cached_campaign(
            app, Deployment(nprocs=1, trials=20, seed=0, bits_per_error=2)
        )
        assert len(list(tmp_cache.glob("*.json"))) == 2
        # a 2-bit fault is at least as damaging on average
        assert double.success_rate <= single.success_rate + 0.2


class TestMultiBitCampaign:
    def test_two_bit_faults_fire_both_flips(self):
        res = run_campaign(
            TinyApp(), Deployment(nprocs=1, trials=30, seed=1, bits_per_error=2)
        )
        assert res.activation_rate() == 1.0

    def test_validation(self):
        import pytest as _pt

        with _pt.raises(Exception):
            Deployment(nprocs=1, trials=1, bits_per_error=0)


class TestCampaignResultAccessors:
    def test_rate_nan_when_empty(self):
        res = CampaignResult(
            app_name="x",
            deployment=Deployment(nprocs=1, trials=1),
            joint={},
            parallel_unique_fraction=0.0,
            total_instructions=0,
            candidate_instructions=0,
            profile_time=0.0,
            injection_time=0.0,
        )
        assert np.isnan(res.success_rate)

    def test_outcome_count(self):
        res = CampaignResult(
            app_name="x",
            deployment=Deployment(nprocs=2, trials=3),
            joint={
                (Outcome.SUCCESS, 1, True): 2,
                (Outcome.SDC, 2, True): 1,
            },
            parallel_unique_fraction=0.0,
            total_instructions=0,
            candidate_instructions=0,
            profile_time=0.0,
            injection_time=0.0,
        )
        assert res.outcome_count(Outcome.SUCCESS) == 2
        assert res.success_rate == pytest.approx(2 / 3)
        assert res.propagation_counts() == {1: 2, 2: 1}
