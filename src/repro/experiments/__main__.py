"""CLI for the experiment harness.

Usage::

    python -m repro.experiments list
    python -m repro.experiments run fig18 [--scale 0.5] [--seed 1] [--workers 4]
    python -m repro.experiments run all   [--scale 0.25] [--workers 2]
    python -m repro.experiments run fig18 [--telemetry on]
    python -m repro.experiments bench [--quick] [--workers 4] [--output BENCH_PR14.json]
    python -m repro.experiments runtime
    python -m repro.experiments scenarios list
    python -m repro.experiments scenarios run [NAME ...] [--smoke] [--resume]
        [--schedule cells] [--max-attempts N] [--shard-deadline S]
        [--faults PLAN] [--telemetry on] [--profile DIR]
    python -m repro.experiments scenarios report --campaign NAME [--json]
    python -m repro.experiments telemetry {summary,spans,timeline} --campaign NAME

``--workers`` wins over the ``REPRO_WORKERS`` environment variable,
which sets the session default; results never depend on either.  One
worker pool, forked on first need, serves every figure/campaign cell of
a run.  ``--schedule`` (or ``REPRO_SCHEDULE``) picks where parallelism
sits: ``ensembles`` shards inside each cell/row, ``cells`` shards the
campaign's pending-cell list (or a panel's independent rows) across the
pool, and ``auto`` — the default — decides per workload; stores and
figures are byte-identical in every mode.  The ``runtime`` subcommand
prints the parallel configuration this machine and environment would
run with, one line per :mod:`repro.config` knob annotated with its
provenance (default / env / context / cli).  A malformed ``REPRO_*``
variable fails ``run``, ``bench`` and ``scenarios run`` before any
work starts, unless the matching flag overrides it.

``--telemetry on`` (or ``REPRO_TELEMETRY=on``) records span traces,
metrics, and structured events through :mod:`repro.obs`; campaigns also
write a ``telemetry.jsonl`` sidecar next to their store, which the
``telemetry`` subcommand reads back as a summary table, span tree, or
scheduler timeline.  Stores, manifests, and figures stay byte-identical
with telemetry on or off.  ``scenarios run --profile DIR`` additionally
dumps per-worker cProfile stats into ``DIR`` and prints the aggregated
hot-path table.

``scenarios run`` executes declarative evaluation campaigns
(:mod:`repro.scenarios`) into an append-only result store under
``results/<campaign>/``; an interrupted campaign continues with
``--resume``, skipping every completed cell, and ``scenarios report``
renders the stored accuracy comparison tables.  ``--max-attempts`` and
``--shard-deadline`` tune the executor's worker-loss/deadline
supervision; ``--faults`` (or ``REPRO_FAULTS``) injects a deterministic
fault plan for chaos testing — see :mod:`repro.faults`.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from repro.config import SCHEDULE_MODES
from repro.experiments.runner import (
    available_experiments,
    execution_scope,
    run_experiment,
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the paper's figures as text tables.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="list available experiments")
    runner = sub.add_parser("run", help="run one experiment (or 'all')")
    runner.add_argument("name", help="experiment name, e.g. fig18, or 'all'")
    runner.add_argument("--scale", type=float, default=1.0,
                        help="workload scale in (0, 1] (default 1.0)")
    runner.add_argument("--seed", type=int, default=None,
                        help="override the master seed")
    runner.add_argument("--workers", type=int, default=None,
                        help="shard ensembles over N worker processes "
                             "(results are identical for any N; overrides "
                             "the REPRO_WORKERS env default)")
    runner.add_argument("--schedule", choices=SCHEDULE_MODES,
                        default=None,
                        help="where parallelism sits: 'ensembles' shards "
                             "inside each panel row, 'cells' interleaves "
                             "independent rows across the pool, 'auto' "
                             "decides per panel.  Results are identical; "
                             "default comes from REPRO_SCHEDULE (else auto)")
    runner.add_argument("--telemetry", choices=("on", "off"), default=None,
                        help="record span traces, metrics, and events for "
                             "this run (figures stay byte-identical; "
                             "default comes from REPRO_TELEMETRY, else off)")
    sub.add_parser(
        "runtime",
        help="show the parallel runtime configuration for this "
             "machine/session, with each knob's provenance",
    )
    bench = sub.add_parser(
        "bench",
        help="time the vectorized hot paths against their reference loops",
    )
    bench.add_argument("--quick", action="store_true",
                       help="1/8-scale smoke-test mode (finishes in seconds)")
    bench.add_argument("--output", default=None,
                       help="JSON report path (default BENCH_PR14.json)")
    bench.add_argument("--seed", type=int, default=None,
                       help="override the benchmark workload seed")
    bench.add_argument("--workers", type=int, default=None,
                       help="also record workers=1 vs workers=N parallel-"
                            "scaling rows for the sharded ensemble engine")
    bench.add_argument("--telemetry", choices=("on", "off"), default=None,
                       help="run the suite with telemetry recording "
                            "enabled/disabled (the overhead row times both "
                            "regardless)")

    scenarios = sub.add_parser(
        "scenarios",
        help="declarative evaluation campaigns with a resumable store",
    )
    scen_sub = scenarios.add_subparsers(dest="scenarios_command", required=True)
    scen_sub.add_parser("list", help="list registered scenarios")
    scen_run = scen_sub.add_parser(
        "run", help="run a campaign (all scenarios unless names are given)"
    )
    scen_run.add_argument("names", nargs="*",
                          help="scenario names (default: every registered one)")
    scen_run.add_argument("--campaign", default=None,
                          help="campaign name / store directory (defaults to "
                               "'smoke' with --smoke, else 'full')")
    scen_run.add_argument("--smoke", action="store_true",
                          help="shrink workload sizes (never the grids) for "
                               "a fast deterministic end-to-end pass")
    scen_run.add_argument("--resume", action="store_true",
                          help="continue an interrupted campaign, skipping "
                               "completed cells (byte-identical store)")
    scen_run.add_argument("--results-dir", default="results",
                          help="store root directory (default results/)")
    scen_run.add_argument("--seed", type=int, default=None,
                          help="override the campaign master seed")
    scen_run.add_argument("--workers", type=int, default=None,
                          help="shard every cell ensemble over N workers "
                               "(results identical for any N)")
    scen_run.add_argument("--schedule", choices=SCHEDULE_MODES,
                          default=None,
                          help="'cells' shards the campaign's pending-cell "
                               "list across the pool, 'ensembles' "
                               "parallelises inside each cell, 'auto' picks "
                               "per campaign.  The store is byte-identical "
                               "either way; default from REPRO_SCHEDULE "
                               "(else auto)")
    scen_run.add_argument("--max-attempts", type=int, default=None,
                          help="per-shard retry budget for worker-loss/"
                               "deadline recovery (default 3; 1 disables "
                               "supervision)")
    scen_run.add_argument("--shard-deadline", type=float, default=None,
                          help="seconds a dispatched shard may run before "
                               "it is retried (default: no deadline)")
    scen_run.add_argument("--faults", default=None,
                          help="deterministic fault-injection plan, e.g. "
                               "'kill:shard=3,delay:shard=5:seconds=30' "
                               "(overrides REPRO_FAULTS; chaos testing only)")
    scen_run.add_argument("--telemetry", choices=("on", "off"), default=None,
                          help="record span traces/metrics/events and write "
                               "a telemetry.jsonl sidecar next to the store "
                               "(store stays byte-identical; default from "
                               "REPRO_TELEMETRY, else off)")
    scen_run.add_argument("--profile", default=None, metavar="DIR",
                          help="dump per-worker cProfile stats into DIR and "
                               "print the aggregated hot-path table after "
                               "the campaign")
    scen_report = scen_sub.add_parser(
        "report", help="render a stored campaign's comparison tables"
    )
    scen_report.add_argument("--campaign", required=True)
    scen_report.add_argument("--results-dir", default="results")
    scen_report.add_argument("--json", action="store_true",
                             help="emit the same aggregations as "
                                  "machine-readable JSON")

    telemetry = sub.add_parser(
        "telemetry",
        help="inspect a campaign's telemetry.jsonl sidecar",
    )
    telemetry.add_argument("view", choices=("summary", "spans", "timeline"),
                           help="'summary' aggregates spans/counters/gauges, "
                                "'spans' prints the span tree, 'timeline' "
                                "shows scheduler rounds and the critical "
                                "path")
    telemetry.add_argument("--campaign", required=True,
                           help="campaign whose sidecar to read")
    telemetry.add_argument("--results-dir", default="results",
                           help="store root directory (default results/)")
    args = parser.parse_args(argv)

    if args.command == "list":
        for name in available_experiments():
            print(name)
        return 0

    if args.command == "runtime":
        return _runtime_main()

    if args.command == "telemetry":
        return _telemetry_main(args)

    if args.command == "bench":
        from repro.experiments.bench import main as bench_main

        bench_argv = []
        if args.quick:
            bench_argv.append("--quick")
        if args.output is not None:
            bench_argv.extend(["--output", args.output])
        if args.seed is not None:
            bench_argv.extend(["--seed", str(args.seed)])
        if args.workers is not None:
            bench_argv.extend(["--workers", str(args.workers)])
        with execution_scope(telemetry=_on_off(args.telemetry)):
            return bench_main(bench_argv)

    if args.command == "scenarios":
        return _scenarios_main(args)

    names = available_experiments() if args.name == "all" else [args.name]
    # One scope keeps one pool alive across *all* requested figures —
    # the fork cost is paid once per session, not per figure (and not
    # per panel cell).  Outputs are identical.
    with execution_scope(workers=args.workers, schedule=args.schedule,
                         telemetry=_on_off(args.telemetry)):
        for name in names:
            start = time.perf_counter()
            panels = run_experiment(name, scale=args.scale, seed=args.seed)
            elapsed = time.perf_counter() - start
            for panel in panels:
                print(panel.render())
                print()
            print(f"[{name}] completed in {elapsed:.1f}s\n")
    return 0


def _on_off(flag: str | None) -> bool | None:
    """An ``on``/``off`` flag as a bool; None (unset) defers to the env."""
    return None if flag is None else flag == "on"


def _runtime_main() -> int:
    """The ``runtime`` subcommand: every knob plus its provenance.

    Each line reads ``knob: value [source] (ENV=...)`` — the source is
    where the effective value came from (``default``, ``env``,
    ``context``, or ``cli``), so a surprising setting is traceable to
    the environment variable or scope that set it.
    """
    from repro import config
    from repro.parallel import (
        pool_start_method,
        sharing_enabled,
        suggested_workers,
    )

    config.resolve_all()  # a malformed variable fails before any output
    print(f"cpu_count:          {os.cpu_count()}")
    print(f"suggested_workers:  {suggested_workers()}")
    print(f"pool_start_method:  {pool_start_method()}")
    print(f"trace_sharing:      {'on' if sharing_enabled() else 'off'} "
          f"[default]")
    for knob in config.KNOBS:
        print(f"{knob.name + ':':<20}{config.describe(knob.name)}")
    return 0


def _telemetry_main(args) -> int:
    """The ``telemetry`` subcommand: read back a campaign's sidecar."""
    from repro.obs.report import (
        load_runs,
        render_spans,
        render_summary,
        render_timeline,
    )

    path = os.path.join(args.results_dir, args.campaign, "telemetry.jsonl")
    runs = load_runs(path)
    run = runs[-1]  # a resumed campaign appends; the last run is current
    if len(runs) > 1:
        print(f"({len(runs)} runs recorded; showing the most recent)\n")
    renderer = {
        "summary": render_summary,
        "spans": render_spans,
        "timeline": render_timeline,
    }[args.view]
    print(renderer(run))
    return 0


def _scenarios_main(args) -> int:
    """The ``scenarios`` subcommand family (lazy import: heavy package)."""
    from repro.scenarios import (
        ResultStore,
        available_scenarios,
        get_scenario,
        render_report,
        report_json,
        run_campaign,
    )

    if args.scenarios_command == "list":
        for name in available_scenarios():
            scenario = get_scenario(name)
            n_cells = len(scenario.cells())
            print(f"{name:<24} {n_cells:>3} cells  {scenario.description}")
        return 0

    if args.scenarios_command == "report":
        import json

        store = ResultStore(os.path.join(args.results_dir, args.campaign))
        if args.json:
            print(json.dumps(report_json(store), indent=2, sort_keys=True))
        else:
            print(render_report(store))
        return 0

    import contextlib

    campaign = args.campaign or ("smoke" if args.smoke else "full")
    kwargs = {}
    if args.seed is not None:
        kwargs["seed"] = args.seed
    if args.max_attempts is not None or args.shard_deadline is not None:
        from repro.parallel import RetryPolicy, get_retry_policy

        current = get_retry_policy()
        kwargs["retry"] = RetryPolicy(
            max_attempts=(
                args.max_attempts if args.max_attempts is not None
                else current.max_attempts
            ),
            shard_deadline=args.shard_deadline,
        )
    if args.profile is not None:
        import repro.obs as obs

        profile_scope = obs.profiling(args.profile)
    else:
        profile_scope = contextlib.nullcontext()
    start = time.perf_counter()
    # --faults scopes a plan (and shard numbering) to this one campaign;
    # without it any REPRO_FAULTS session plan applies as-is.
    with profile_scope, \
            execution_scope(workers=args.workers, schedule=args.schedule,
                            telemetry=_on_off(args.telemetry),
                            faults=args.faults):
        summary = run_campaign(
            args.names or None,
            campaign=campaign,
            results_dir=args.results_dir,
            smoke=args.smoke,
            resume=args.resume,
            **kwargs,
        )
    elapsed = time.perf_counter() - start
    print(summary.render())
    print(f"completed in {elapsed:.1f}s")
    if args.profile is not None:
        from repro.obs.profile import render_profile

        print()
        print(render_profile(args.profile))
    return 0


if __name__ == "__main__":
    from repro.errors import ReproError

    try:
        sys.exit(main())
    except ReproError as exc:  # a user error: one line, not a traceback
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(2)
    except BrokenPipeError:  # e.g. `... | head`: not an error of ours
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(0)
