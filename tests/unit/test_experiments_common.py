"""Unit tests for experiment orchestration helpers."""

import json

import pytest

from repro.apps import get_app
from repro.experiments import common
from repro.experiments.common import (
    build_predictor,
    measured_campaign,
    serial_sample_results,
    small_campaign,
    unique_campaign,
    unique_fraction,
)
from repro.fi.cache import (
    cache_dir,
    load_unique_fraction_stats,
    store_unique_fraction,
)
from repro.model.predictor import extrapolate_unique_fraction
from repro.taint.region import Region

TRIALS = 10


class TestDefaultTrials:
    def test_arg_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRIALS", "50")
        assert common.default_trials(7) == 7

    def test_env_honoured(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRIALS", "42")
        assert common.default_trials() == 42

    def test_malformed_env_falls_back_with_warning(self, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_TRIALS", "lots")
        assert common.default_trials() == 300
        err = capsys.readouterr().err
        assert err.count("\n") == 1  # exactly one warning line
        assert "REPRO_TRIALS" in err and "'lots'" in err and "300" in err

    def test_well_formed_env_warns_nothing(self, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_TRIALS", "25")
        common.default_trials()
        assert capsys.readouterr().err == ""


class TestPublicSurface:
    def test_unique_campaign_exported(self):
        assert "unique_campaign" in common.__all__

    def test_every_all_name_resolves(self):
        # a stale __all__ entry would break `from ... import *` for users
        for name in common.__all__:
            assert callable(getattr(common, name)), name


class TestCampaignBuilders:
    def test_seed_roles_are_independent(self):
        app = get_app("mg")
        small = small_campaign(app, 2, TRIALS, seed=0)
        measured = measured_campaign(app, 2, TRIALS, seed=0)
        # same scale+trials but different roles -> different seed streams
        assert small.deployment.seed != measured.deployment.seed

    def test_serial_samples_are_serial_common_region(self):
        app = get_app("mg")
        out = serial_sample_results(app, target_nprocs=4, n_samples=2,
                                    trials=TRIALS, seed=0)
        assert set(out) == {1, 4}
        for fi in out.values():
            assert fi.n_trials == TRIALS

    def test_unique_campaign_targets_unique_region(self):
        app = get_app("cg")
        res = unique_campaign(app, 2, TRIALS, seed=0)
        assert res.deployment.region is Region.PARALLEL_UNIQUE

    def test_build_predictor_threads_lanes(self, monkeypatch):
        # lanes reach every deployment the predictor builds and, as an
        # execution knob, change none of its inputs or predictions
        monkeypatch.setenv("REPRO_CACHE", "0")
        scalar = build_predictor("mg", 2, 4, trials=TRIALS, lanes=1)
        batched = build_predictor("mg", 2, 4, trials=TRIALS, lanes=4)
        assert batched.inputs.small_campaign.deployment.lanes == 4
        assert batched.inputs.small_campaign.joint == scalar.inputs.small_campaign.joint
        for name in ("serial_samples", "unique_result", "unique_fractions",
                     "serial_probe"):
            assert getattr(batched.inputs, name) == getattr(scalar.inputs, name)
        assert batched.predict(4) == scalar.predict(4)

    def test_unique_fraction_monotone_for_cg(self):
        app = get_app("cg")
        assert unique_fraction(app, 2) < unique_fraction(app, 8)

    def test_build_predictor_skips_unique_term_for_mg(self):
        predictor = build_predictor("mg", small_nprocs=2, target_nprocs=4,
                                    trials=TRIALS)
        assert predictor.inputs.unique_result is None
        assert predictor.inputs.unique_fractions[2] == 0.0

    def test_build_predictor_includes_unique_term_for_ft(self):
        predictor = build_predictor("ft", small_nprocs=2, target_nprocs=4,
                                    trials=TRIALS)
        assert predictor.inputs.unique_result is not None

    def test_predict_triple_is_distribution(self):
        predictor = build_predictor("ft", small_nprocs=2, target_nprocs=4,
                                    trials=TRIALS)
        fi = predictor.predict(4)
        assert fi.success + fi.sdc + fi.failure == pytest.approx(1.0)


class TestFractionPersistence:
    """unique_fraction results survive process restarts via the disk cache."""

    @pytest.fixture(autouse=True)
    def _clear_memory_cache(self):
        saved = dict(common._fraction_cache)
        common._fraction_cache.clear()
        yield
        common._fraction_cache.clear()
        common._fraction_cache.update(saved)

    def test_fraction_written_to_disk(self):
        app = get_app("cg")
        value = unique_fraction(app, 2)
        path = cache_dir() / "unique_fractions.json"
        assert path.is_file()
        entries = json.loads(path.read_text()).values()
        match = [e for e in entries if e["fraction"] == value]
        assert match and match[0]["candidates"] > 0

    def test_fresh_process_reads_disk_not_reprofiles(self):
        """Simulated restart: empty memory cache, poisoned disk entry.

        The sentinel coming back proves the value was served from disk
        (a re-profile would have produced the true fraction instead).
        """
        app = get_app("cg")
        unique_fraction(app, 2)
        store_unique_fraction(app, 2, 0.123456)
        common._fraction_cache.clear()
        assert unique_fraction(app, 2) == 0.123456

    def test_corrupt_fraction_file_recomputed(self):
        app = get_app("cg")
        true_value = unique_fraction(app, 2)
        path = cache_dir() / "unique_fractions.json"
        path.write_text("{ not json")
        common._fraction_cache.clear()
        assert unique_fraction(app, 2) == true_value

    def test_disabled_cache_skips_disk(self, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE", "0")
        app = get_app("cg")
        unique_fraction(app, 2)
        assert load_unique_fraction_stats(app, 2) is None
        assert not (cache_dir() / "unique_fractions.json").exists()


class TestExtrapolationEdgeCases:
    def test_serial_only_point_ignored(self):
        # p=1 has no parallel-unique computation by definition
        assert extrapolate_unique_fraction({1: 0.0}, 64) == 0.0

    def test_mixed_points_prefer_fit(self):
        val = extrapolate_unique_fraction({1: 0.0, 4: 0.1, 8: 0.2}, 16)
        assert val == pytest.approx(0.3, abs=1e-9)  # fit over p>1 points
