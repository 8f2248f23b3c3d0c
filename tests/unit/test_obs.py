"""Tests for the observability layer (recorder, sinks, events, report)."""

import io
import json

import pytest

from repro import obs
from repro.obs.events import SpanEnd, TrialFinished, event_from_dict
from repro.obs.report import render_metrics_summary, render_trace_report
from repro.obs.sinks import JsonlSink, MemorySink, ProgressSink, load_trace


class FakeClock:
    """Deterministic monotonic clock advanced by hand."""

    def __init__(self, start=0.0):
        self.now = start

    def __call__(self):
        return self.now

    def tick(self, dt):
        self.now += dt


class TestRecorder:
    def test_counters_accumulate(self):
        rec = obs.Recorder(enabled=True)
        rec.counter("x")
        rec.counter("x", 4)
        rec.counter("y", 2.5)
        assert rec.counters == {"x": 5, "y": 2.5}

    def test_gauges_last_write_wins(self):
        rec = obs.Recorder(enabled=True)
        rec.gauge("campaign.trials_done", 3)
        rec.gauge("campaign.trials_done", 9)
        assert rec.gauges == {"campaign.trials_done": 9}

    def test_gauges_noop_while_disabled(self):
        rec = obs.Recorder(enabled=False)
        rec.gauge("g", 1)
        assert rec.gauges == {}

    def test_histograms_accumulate(self):
        rec = obs.Recorder(enabled=True)
        rec.observe("h", 1)
        rec.observe("h", 3)
        assert rec.histograms == {"h": [1, 3]}

    def test_histogram_stats_match_samples_through_absorb(self):
        worker = obs.Recorder(enabled=True)
        for value in (0.1, -2.5, 7, 0.2):
            worker.observe("h", value)
        parent = obs.Recorder(enabled=True)
        parent.observe("h", 3)
        parent.absorb(worker.snapshot())
        parent.absorb(obs.ObsSnapshot(histograms={"empty": []}))
        for name, values in parent.histograms.items():
            expected = (len(values), sum(values),
                        min(values, default=None), max(values, default=None))
            assert parent.histogram_stats[name] == expected
        assert set(parent.histogram_stats) == {"h", "empty"}

    def test_span_nesting_builds_paths(self):
        clock = FakeClock()
        rec = obs.Recorder(enabled=True, clock=clock)
        with rec.span("campaign"):
            clock.tick(1.0)
            for _ in range(2):
                with rec.span("trial"):
                    clock.tick(0.25)
                    with rec.span("inject"):
                        clock.tick(0.5)
        assert rec.span_totals["campaign"] == [1, pytest.approx(2.5)]
        assert rec.span_totals["campaign/trial"] == [2, pytest.approx(1.5)]
        assert rec.span_totals["campaign/trial/inject"] == [2, pytest.approx(1.0)]

    def test_span_emits_events(self):
        mem = MemorySink()
        rec = obs.Recorder([mem])
        with rec.span("a"):
            with rec.span("b"):
                pass
        paths = [e.path for e in mem.of(SpanEnd)]
        assert paths == ["a/b", "a"]  # inner closes first

    def test_span_rejects_slash(self):
        rec = obs.Recorder(enabled=True)
        with pytest.raises(ValueError):
            with rec.span("a/b"):
                pass

    def test_disabled_recorder_records_nothing(self):
        mem = MemorySink()
        rec = obs.Recorder([mem], enabled=False)
        rec.counter("x")
        rec.observe("h", 1)
        with rec.span("s"):
            pass
        rec.emit(TrialFinished(trial=0, outcome="success",
                               n_contaminated=1, activated=True, duration_s=0.1))
        assert rec.counters == {}
        assert rec.histograms == {}
        assert rec.span_totals == {}
        assert mem.events == []

    def test_sinks_imply_enabled(self):
        assert obs.Recorder([MemorySink()]).enabled
        assert not obs.Recorder().enabled

    def test_recording_installs_and_restores(self):
        outer = obs.get_recorder()
        rec = obs.Recorder(enabled=True)
        with obs.recording(rec):
            assert obs.get_recorder() is rec
        assert obs.get_recorder() is outer


class TestEvents:
    def test_round_trip_through_dict(self):
        event = TrialFinished(trial=7, outcome="sdc", n_contaminated=3,
                              activated=True, duration_s=0.5)
        blob = event.to_dict()
        assert blob["type"] == "trial_finished"
        assert event_from_dict(blob) == event

    def test_unknown_type_skipped(self):
        assert event_from_dict({"type": "from_the_future", "x": 1}) is None

    def test_extra_keys_ignored(self):
        blob = SpanEnd(path="a", duration_s=1.0).to_dict()
        blob["ts"] = 123.0
        assert event_from_dict(blob) == SpanEnd(path="a", duration_s=1.0)


class TestJsonlSink:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        sink = JsonlSink(path)
        events = [
            obs.CampaignStarted(app="cg", nprocs=2, trials=3, n_errors=1, seed=0),
            TrialFinished(trial=0, outcome="success", n_contaminated=1,
                          activated=True, duration_s=0.1),
            SpanEnd(path="campaign", duration_s=1.5),
        ]
        for e in events:
            sink.write(e)
        sink.close()
        assert load_trace(path) == events

    def test_lines_carry_timestamps(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        sink = JsonlSink(path, clock=lambda: 42.0)
        sink.write(SpanEnd(path="x", duration_s=0.0))
        sink.close()
        (line,) = path.read_text().splitlines()
        assert json.loads(line)["ts"] == 42.0

    def test_truncated_final_line_tolerated(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        sink = JsonlSink(path)
        sink.write(SpanEnd(path="x", duration_s=0.0))
        sink.close()
        with path.open("a") as fh:
            fh.write('{"type": "trial_fin')  # killed mid-write
        assert len(load_trace(path)) == 1

    def test_write_after_close_raises(self, tmp_path):
        sink = JsonlSink(tmp_path / "t.jsonl")
        sink.close()
        with pytest.raises(RuntimeError):
            sink.write(SpanEnd(path="x", duration_s=0.0))


def _trial(i, outcome="success"):
    return TrialFinished(trial=i, outcome=outcome, n_contaminated=1,
                         activated=True, duration_s=0.01)


class TestProgressSink:
    def test_throttles_repaints(self):
        clock = FakeClock()
        stream = io.StringIO()
        sink = ProgressSink(stream=stream, min_interval=1.0, clock=clock)
        sink.write(obs.CampaignStarted(app="a", nprocs=1, trials=100,
                                       n_errors=1, seed=0))
        for i in range(50):
            clock.tick(0.01)  # 50 trials in 0.5s: inside one interval
            sink.write(_trial(i))
        assert sink.paints == 1  # first paint at -inf threshold, rest throttled

    def test_final_trial_always_paints(self):
        clock = FakeClock()
        stream = io.StringIO()
        sink = ProgressSink(stream=stream, min_interval=1000.0, clock=clock)
        sink.write(obs.CampaignStarted(app="a", nprocs=1, trials=3,
                                       n_errors=1, seed=0))
        for i in range(3):
            clock.tick(0.1)
            sink.write(_trial(i, "sdc" if i == 0 else "success"))
        out = stream.getvalue()
        assert "trial 3/3" in out
        assert out.endswith("\n")
        assert "sdc=33.3%" in out
        assert "10 trials/s" in out

    def test_close_finishes_line_midway(self):
        clock = FakeClock()
        stream = io.StringIO()
        sink = ProgressSink(stream=stream, min_interval=1000.0, clock=clock)
        sink.write(obs.CampaignStarted(app="a", nprocs=1, trials=10,
                                       n_errors=1, seed=0))
        clock.tick(1.0)
        sink.write(_trial(0))
        sink.close()
        assert stream.getvalue().endswith("\n")


class TestReport:
    def test_trace_report_tables(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        sink = JsonlSink(path)
        sink.write(SpanEnd(path="campaign", duration_s=2.0))
        for i in range(4):
            sink.write(SpanEnd(path="campaign/trial", duration_s=0.5))
            sink.write(_trial(i, "sdc" if i == 0 else "success"))
        sink.close()
        report = render_trace_report(path)
        assert "campaign/trial" in report
        assert "Trial outcomes (4 trials)" in report
        assert "sdc" in report and "success" in report

    def test_empty_trace_report(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert "no known events" in render_trace_report(path)

    def test_metrics_summary(self):
        rec = obs.Recorder(enabled=True)
        rec.counter("cache.hits", 3)
        rec.observe("taint.contamination_spread", 2)
        with rec.span("campaign"):
            pass
        summary = render_metrics_summary(rec)
        assert "cache.hits" in summary
        assert "taint.contamination_spread" in summary
        assert "campaign" in summary

    def test_metrics_summary_includes_gauges(self):
        rec = obs.Recorder(enabled=True)
        rec.gauge("campaign.trials_done", 7)
        summary = render_metrics_summary(rec)
        assert "Gauges" in summary and "campaign.trials_done" in summary

    def test_metrics_summary_empty(self):
        assert "no metrics" in render_metrics_summary(obs.Recorder(enabled=True))


class TestSchedulerObservability:
    def test_deadlock_event_names_blocked_ranks(self):
        from repro.errors import DeadlockError
        from repro.mpisim.runner import execute_spmd

        def prog(rank, size, comm, fp):
            if rank == 0:
                yield comm.recv(source=1, tag=9)
            return None

        mem = MemorySink()
        with obs.recording(obs.Recorder([mem])):
            with pytest.raises(DeadlockError):
                execute_spmd(prog, 2)
        (event,) = mem.of(obs.SchedulerDeadlock)
        assert event.blocked_ranks == [0]
        assert "recv(source=1, tag=9)" in event.pending_ops[0]

    def test_step_counter_and_blocked_gauge(self):
        from repro.mpisim.runner import execute_spmd

        def prog(rank, size, comm, fp):
            total = yield comm.allreduce(rank, op="sum")
            return total

        with obs.recording(obs.Recorder(enabled=True)) as rec:
            assert execute_spmd(prog, 4) == [6, 6, 6, 6]
        assert rec.counters["scheduler.steps"] >= 8  # 2 resumptions x 4 ranks
        assert rec.counters["scheduler.runs"] == 1
        # all four ranks were parked in the allreduce when the queue drained
        assert 4 in rec.histograms["scheduler.blocked_ranks"]


class TestConfigure:
    def test_configure_installs_and_close(self, tmp_path):
        previous = obs.get_recorder()
        try:
            rec = obs.configure(trace_path=tmp_path / "t.jsonl")
            assert obs.get_recorder() is rec
            assert rec.enabled
            rec.close()
        finally:
            obs.set_recorder(previous)

    def test_metrics_only_has_no_sinks(self):
        previous = obs.get_recorder()
        try:
            rec = obs.configure(metrics=True)
            assert rec.enabled and rec.sinks == []
        finally:
            obs.set_recorder(previous)

    def test_default_recorder_is_disabled(self):
        assert not obs.get_recorder().enabled

class TestSnapshotAbsorb:
    """Edge cases of the worker-aggregation snapshot/absorb cycle."""

    def test_absorb_empty_snapshot_is_identity(self):
        rec = obs.Recorder(enabled=True)
        rec.counter("x", 2)
        rec.observe("h", 1.0)
        with rec.span("s"):
            pass
        before = (dict(rec.counters),
                  {k: list(v) for k, v in rec.histograms.items()},
                  {k: list(v) for k, v in rec.span_totals.items()})
        rec.absorb(obs.ObsSnapshot())
        assert (rec.counters, rec.histograms, rec.span_totals) == before

    def test_nested_span_prefix_composes_paths(self):
        worker = obs.Recorder(enabled=True, span_prefix=("campaign", "chunk"))
        with worker.span("trial"):
            with worker.span("inject"):
                pass
        parent = obs.Recorder(enabled=True)
        parent.absorb(worker.snapshot())
        assert set(parent.span_totals) == {
            "campaign/chunk/trial", "campaign/chunk/trial/inject",
        }

    def test_absorb_after_reset_goes_to_new_recorder(self):
        worker = obs.Recorder(enabled=True)
        worker.counter("trials", 5)
        snap = worker.snapshot()
        first = obs.Recorder(enabled=True)
        with obs.recording(first):
            obs.reset()
            fresh = obs.get_recorder()
            # the default reset() recorder is disabled: absorb is a no-op
            fresh.absorb(snap)
            assert fresh.counters == {}
            replacement = obs.Recorder(enabled=True)
            obs.set_recorder(replacement)
            obs.get_recorder().absorb(snap)
            assert replacement.counters == {"trials": 5}
        assert first.counters == {}  # never touched after the reset

    def test_absorb_reemits_events_in_order(self):
        mem_worker = MemorySink()
        worker = obs.Recorder([mem_worker])
        for i in range(3):
            worker.emit(_trial(i))
        mem_parent = MemorySink()
        parent = obs.Recorder([mem_parent])
        parent.absorb(worker.snapshot(events=mem_worker.events))
        assert [e.trial for e in mem_parent.of(TrialFinished)] == [0, 1, 2]


class TestLoadTraceSkips:
    def test_partial_trailing_line_skipped_with_message(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        sink = JsonlSink(path)
        sink.write(_trial(0))
        sink.close()
        with path.open("a") as fh:
            fh.write('{"type": "trial_fin')  # interrupted mid-write
        messages = []
        events = load_trace(path, on_skip=messages.append)
        assert len(events) == 1
        assert len(messages) == 1 and ":2:" in messages[0]

    def test_no_callback_still_tolerates_corruption(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text('not json at all\n')
        assert load_trace(path) == []
