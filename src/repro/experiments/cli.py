"""Command-line entry point: ``python -m repro.experiments <name>``.

Besides the experiment harnesses, the CLI wires the observability layer
(:mod:`repro.obs`) into every run:

* ``--trace-out PATH`` writes a JSONL event trace of the run;
* ``--progress`` paints a throttled live progress line on stderr (with
  a wall-clock ETA once a rate is established);
* ``--metrics-summary`` prints counters/histograms/span totals at exit;
* ``--serve-obs PORT`` (or ``$REPRO_OBS_PORT``) serves live telemetry —
  ``/metrics``, ``/events``, and an auto-refreshing dashboard at ``/`` —
  while the run executes (see docs/observability.md);
* ``--profile`` turns on the deterministic hot-path profiler;
* ``obs-report PATH`` renders a previously written trace into per-phase
  time/throughput and outcome tables;
* ``obs-profile PATH`` renders the per-(phase, op, rank) hot-path
  attribution recorded by ``--profile``;
* ``--timeline`` turns on causal tracing (deterministic W3C-style
  trace/span ids over campaign → wave → chunk → trial → checkpoint);
* ``obs-timeline PATH`` reports worker utilization from a traced run and
  exports Chrome (Perfetto-loadable) and OTLP-shaped JSON timelines.

The execution knobs — ``--jobs``, ``--lanes``, ``--checkpoint-every``,
``--resume``, ``--ci-halfwidth``, ``--scenario`` and ``--backend`` — are
generated from the table in :mod:`repro.fi.knobs` and relayed to every
campaign through their ``REPRO_*`` environment variables (see the
"Execution knobs" table in docs/engine.md).
"""

from __future__ import annotations

import argparse
import importlib
import os
import sys
import time
from pathlib import Path

from repro.errors import ConfigurationError
from repro.experiments import EXPERIMENTS

__all__ = ["main"]


class _SkipCounter:
    """Deduplicates ``load_trace`` partial-line warnings per file.

    ``load_trace`` calls ``on_skip`` once per undecodable line with a
    ``{path}:{lineno}: ...`` message; a heavily truncated file would
    spray hundreds of identical warnings.  This callable tallies them
    and :meth:`flush` prints one summary line per file instead.
    """

    def __init__(self, prog: str):
        self._prog = prog
        self._counts: dict[str, int] = {}

    def __call__(self, message: str) -> None:
        path = message.rsplit(":", 2)[0]
        self._counts[path] = self._counts.get(path, 0) + 1

    def flush(self) -> None:
        for path, n in self._counts.items():
            noun = "line" if n == 1 else "lines"
            print(
                f"{self._prog}: warning: {path}: skipped {n} "
                f"partial/corrupt {noun}",
                file=sys.stderr,
            )
        self._counts.clear()


def _obs_report(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-experiments obs-report",
        description="Render a JSONL observability trace into summary tables.",
    )
    parser.add_argument("path", help="trace file written with --trace-out")
    args = parser.parse_args(argv)
    from repro.obs import load_trace, render_trace_report

    skips = _SkipCounter("obs-report")
    try:
        events = load_trace(args.path, on_skip=skips)
    except (FileNotFoundError, IsADirectoryError):
        print(f"obs-report: no such trace file: {args.path}", file=sys.stderr)
        return 2
    skips.flush()
    if not events:
        print(
            f"obs-report: trace {args.path} contains no decodable events",
            file=sys.stderr,
        )
        return 1
    print(render_trace_report(args.path))
    return 0


def _obs_dashboard(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-experiments obs-dashboard",
        description="Build a self-contained HTML dashboard from a JSONL "
                    "trace (and its sibling *.provenance.jsonl, if present).",
    )
    parser.add_argument("path", help="trace file written with --trace-out")
    parser.add_argument(
        "-o", "--out", metavar="HTML", default=None,
        help="output path (default: <trace>.dashboard.html)",
    )
    args = parser.parse_args(argv)
    from repro.obs.dashboard import write_dashboard

    skips = _SkipCounter("obs-dashboard")
    try:
        out = write_dashboard(args.path, out_path=args.out, on_skip=skips)
    except (FileNotFoundError, IsADirectoryError):
        print(f"obs-dashboard: no such trace file: {args.path}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"obs-dashboard: {exc}", file=sys.stderr)
        return 1
    finally:
        skips.flush()
    print(f"dashboard written to {out}")
    return 0


def _obs_profile(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-experiments obs-profile",
        description="Report the hot-path profile recorded in a JSONL trace "
                    "(write one by running an experiment with --profile "
                    "--trace-out PATH).",
    )
    parser.add_argument("path", help="trace file written with --trace-out")
    parser.add_argument(
        "--svg", metavar="OUT", default=None,
        help="also write the merged span-tree flamegraph SVG to OUT",
    )
    args = parser.parse_args(argv)
    from repro.obs import load_trace
    from repro.obs.profiler import (
        merge_profile_events,
        profiles_of,
        render_profile_report,
        render_profile_svg,
    )

    skips = _SkipCounter("obs-profile")
    try:
        events = load_trace(args.path, on_skip=skips)
    except (FileNotFoundError, IsADirectoryError):
        print(f"obs-profile: no such trace file: {args.path}", file=sys.stderr)
        return 2
    skips.flush()
    profiles = profiles_of(events)
    if not profiles:
        print(
            f"obs-profile: trace {args.path} has no campaign_profile events "
            f"(rerun the experiment with --profile)",
            file=sys.stderr,
        )
        return 1
    # write the artifact before printing: the report may die on a closed
    # stdout pipe (`obs-profile ... | head`) and the SVG should survive
    if args.svg:
        render_profile_svg(merge_profile_events(profiles)).save(args.svg)
        print(f"flamegraph written to {args.svg}")
    print("\n\n".join(render_profile_report(event) for event in profiles))
    return 0


def _obs_timeline(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-experiments obs-timeline",
        description="Report worker utilization and export span timelines "
                    "from a traced run (write one with --timeline "
                    "--trace-out PATH).",
    )
    parser.add_argument("path", help="trace file written with --trace-out")
    parser.add_argument(
        "--chrome", metavar="OUT", default=None,
        help="write a Chrome trace-event JSON timeline to OUT (load it in "
             "Perfetto or chrome://tracing)",
    )
    parser.add_argument(
        "--otlp", metavar="OUT", default=None,
        help="write an OTLP-shaped JSON span dump to OUT",
    )
    parser.add_argument(
        "--svg", metavar="OUT", default=None,
        help="also write the worker-timeline swimlane SVG to OUT",
    )
    args = parser.parse_args(argv)
    import json

    from repro.obs import load_trace
    from repro.obs.timeline import (
        chrome_trace,
        otlp_trace,
        render_timeline_report,
        spans_of,
        timeline_path,
        timeline_swimlane_svg,
        validate_chrome_trace,
    )

    skips = _SkipCounter("obs-timeline")
    try:
        events = load_trace(args.path, on_skip=skips)
    except (FileNotFoundError, IsADirectoryError):
        print(f"obs-timeline: no such trace file: {args.path}", file=sys.stderr)
        return 2
    sidecar = timeline_path(args.path)
    if sidecar != Path(args.path) and sidecar.exists():
        events.extend(load_trace(sidecar, on_skip=skips))
    skips.flush()
    spans = spans_of(events)
    if not spans:
        print(
            f"obs-timeline: trace {args.path} has no campaign_trace spans "
            f"(rerun the experiment with --timeline --trace-out)",
            file=sys.stderr,
        )
        return 1
    # write artifacts before printing: the report may die on a closed
    # stdout pipe (`obs-timeline ... | head`) and the exports should survive
    if args.chrome:
        blob = chrome_trace(spans)
        validate_chrome_trace(blob)
        with open(args.chrome, "w") as fh:
            json.dump(blob, fh)
        print(f"chrome trace written to {args.chrome}")
    if args.otlp:
        with open(args.otlp, "w") as fh:
            json.dump(otlp_trace(spans), fh)
        print(f"otlp spans written to {args.otlp}")
    if args.svg:
        timeline_swimlane_svg(spans).save(args.svg)
        print(f"swimlane written to {args.svg}")
    print(render_timeline_report(spans))
    return 0


def _port(value) -> int:
    try:
        port = int(value)
    except ValueError:
        raise ConfigurationError(f"port must be an integer, got {value!r}") from None
    if not 0 <= port <= 65535:
        raise ConfigurationError(f"port must be in [0, 65535], got {port}")
    return port


def main(argv: list[str] | None = None) -> int:
    """Entry point for ``python -m repro.experiments`` / ``repro-experiments``."""
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    if argv[:1] == ["obs-report"]:
        return _obs_report(argv[1:])
    if argv[:1] == ["obs-dashboard"]:
        return _obs_dashboard(argv[1:])
    if argv[:1] == ["obs-profile"]:
        return _obs_profile(argv[1:])
    if argv[:1] == ["obs-timeline"]:
        return _obs_timeline(argv[1:])

    from repro.fi.knobs import KNOBS, env_value

    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Regenerate the paper's tables and figures.",
        epilog="See also the 'obs-report PATH', 'obs-dashboard PATH', "
               "'obs-profile PATH' and 'obs-timeline PATH' subcommands, "
               "which render a trace written with --trace-out.",
    )
    parser.add_argument(
        "experiment",
        choices=EXPERIMENTS + ["all"],
        help="which table/figure to regenerate",
    )
    parser.add_argument(
        "--trials", type=int, default=None,
        help="fault-injection tests per deployment (default: $REPRO_TRIALS or 300; "
             "the paper uses 4000)",
    )
    parser.add_argument("--seed", type=int, default=0, help="master seed")
    for knob in KNOBS:
        parser.add_argument(
            knob.flag, dest=knob.name, default=None, help=knob.help,
            **({"action": "store_true"} if knob.metavar is None
               else {"metavar": knob.metavar}),
        )
    parser.add_argument(
        "--trace-out", metavar="PATH", default=None,
        help="write a JSONL observability trace (replay with obs-report)",
    )
    parser.add_argument(
        "--progress", action="store_true",
        help="live per-trial progress line on stderr",
    )
    parser.add_argument(
        "--metrics-summary", action="store_true",
        help="print counters, histograms and span totals after the run",
    )
    parser.add_argument(
        "--serve-obs", type=int, default=None, metavar="PORT",
        help="serve live telemetry on 127.0.0.1:PORT while the run "
             "executes (/metrics, /events, auto-refreshing dashboard at /; "
             "0 picks an ephemeral port). Default: $REPRO_OBS_PORT or off",
    )
    parser.add_argument(
        "--profile", action="store_true",
        help="attribute wall time and FP-instruction counts per (phase, "
             "op kind, rank); render with obs-profile or the dashboard",
    )
    parser.add_argument(
        "--timeline", action="store_true",
        help="record causal trace spans (campaign/wave/chunk/trial/"
             "checkpoint) to a *.timeline.jsonl sidecar next to "
             "--trace-out; render with obs-timeline or the dashboard",
    )
    parser.add_argument(
        "-q", "--quiet", action="store_true",
        help="suppress tables and per-experiment timing; errors still print",
    )
    args = parser.parse_args(argv)

    if args.quiet and args.progress:
        parser.error("--progress and --quiet are mutually exclusive")

    # Campaigns resolve every knob they are not handed from its env var
    # (repro.fi.knobs.resolve), so one env write per flag reaches every
    # deployment the experiment harnesses build.  Values relay in
    # canonical form; a canonical None (parameterless bit flips) relays
    # as given, so --scenario bitflip still overrides an inherited
    # $REPRO_SCENARIO.
    for knob in KNOBS:
        raw = getattr(args, knob.name)
        if raw is None:
            continue
        try:
            value = knob.parse(raw)
        except ConfigurationError as exc:
            parser.error(f"{knob.flag}: {exc}")
        os.environ[knob.env] = str(raw if value is None else value)

    if args.serve_obs is None:
        serve_port = env_value("REPRO_OBS_PORT", _port, None)
    else:
        try:
            serve_port = _port(args.serve_obs)
        except ConfigurationError as exc:
            parser.error(f"--serve-obs {exc}")

    recorder = previous = None
    server = None
    wants_obs = (
        args.trace_out or args.progress or args.metrics_summary
        or args.profile or args.timeline or serve_port is not None
    )
    if wants_obs:
        from repro import obs

        previous = obs.get_recorder()
        recorder = obs.configure(
            trace_path=args.trace_out,
            progress=args.progress,
            metrics=True,
            profile=args.profile,
            timeline=args.timeline,
        )
        if serve_port is not None:
            from repro.obs import start_live_server

            server = start_live_server(recorder, port=serve_port)
            print(
                f"repro: serving observability on {server.url}",
                file=sys.stderr,
            )

    names = EXPERIMENTS if args.experiment == "all" else [args.experiment]
    try:
        for name in names:
            module = importlib.import_module(f"repro.experiments.{name}")
            t0 = time.perf_counter()
            module.run(trials=args.trials, seed=args.seed, quiet=args.quiet)
            if not args.quiet:
                print(f"[{name} done in {time.perf_counter() - t0:.1f}s]\n")
    finally:
        if server is not None:
            server.close()
        if recorder is not None:
            from repro.obs import render_metrics_summary, set_recorder

            set_recorder(previous)
            recorder.close()
            if args.metrics_summary and not args.quiet:
                print(render_metrics_summary(recorder))
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
