"""Declarative figure panels: SweepSpec and the generic panel runner.

Every paper figure is some sweep — a grid of x values (sampling rates,
thresholds ``eps``, spectral exponents ``beta``) crossed with one or more
plotted curves.  Before this module each ``fig*.py`` hand-rolled that
loop, which meant the sharded engine built in :mod:`repro.parallel`
never touched the paper reproduction itself.  A figure module now
*declares* its panels::

    def build_specs(*, scale=1.0, seed=MASTER_SEED):
        trace = eval_trace(scale, seed)
        return [SweepSpec(
            panel_id="figNN",
            title="sampled mean vs rate",
            x_name="rate",
            x_values=tuple(float(r) for r in rates),
            trace=trace,
            n_instances=instances(15, scale),
            seed=seed,
            series=(
                EnsembleSeries("systematic",
                               lambda r: SystematicSampler.from_rate(r, offset=None),
                               tag="sys", round_to=4),
            ),
        )]

    run = make_run(build_specs)

and :func:`run_panel` executes it: every :class:`EnsembleSeries` cell is
a Monte-Carlo ensemble routed through
:func:`repro.core.variance.instance_means` — hence through the sharded
executor and the zero-copy trace protocol — and seeded from the same
``stream_for`` label grammar (``"<panel_id>:<tag>:<x>"``) the hand-rolled
loops used, so declaring a sweep changes nothing about its numbers.
``workers=N`` therefore accelerates every figure while staying
bit-identical to ``workers=1``.

Series variants, composable within one spec:

* :class:`EnsembleSeries` — statistic of an instance-mean ensemble per x
  (the paper's bread and butter; engine-routed).
* :class:`CellSeries` — arbitrary per-cell value ``fn(ctx, x)``.
* :class:`RowGroup` — several columns produced by one shared evaluation
  per x (for cells that must consume one RNG stream jointly).
* :class:`DerivedSeries` — computed from the already-evaluated row.
* :class:`ColumnSeries` — a precomputed column (closed-form figures that
  evaluate a whole curve in one vectorized call).

Specs whose rows are independent pure functions of their labels can set
``parallel_rows=True``: rows are then dispatched across the worker pool
(fork start method only — the spec rides to workers via inherited
memory, not pickling), which parallelises even figures with no
Monte-Carlo ensemble, e.g. per-``beta`` trace synthesis + estimation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.core.variance import instance_means
from repro.errors import ParameterError
from repro.experiments.config import MASTER_SEED
from repro.experiments.runner import ExperimentResult
from repro.parallel.executor import (
    default_workers,
    pool_start_method,
    resolve_schedule,
    resolve_workers,
    run_shards,
)
from repro.parallel.runtime import active_runtime
from repro.utils.once import warn_once
from repro.utils.rng import stream_for


def _median(means: np.ndarray) -> float:
    """Default ensemble statistic: the paper's 'typical instance' view."""
    return float(np.median(means))


def _round(value, round_to):
    if round_to is None:
        return value
    return round(float(value), round_to)


@dataclass(frozen=True)
class SweepContext:
    """What a cell evaluation may depend on: workload, seeds, sizing.

    The seed-stream helpers reproduce the label grammar the hand-rolled
    figure loops used (``"<panel_id>:<tag>:<x>"``; tagless cells collapse
    to ``"<panel_id>:<x>"``), so every cell's randomness is a pure
    function of its coordinates — the property that makes rows
    shard-safe and ``workers=N`` bit-identical.
    """

    panel_id: str
    seed: int
    trace: object = None
    n_instances: int = 0

    def stream(self, tag: str | None = None, x=None) -> np.random.Generator:
        """Named RNG stream for one cell (or one row when ``tag`` is None)."""
        parts = [self.panel_id]
        if tag is not None:
            parts.append(str(tag))
        if x is not None:
            parts.append(str(x))
        return stream_for(":".join(parts), self.seed)

    def instance_means(self, sampler, tag: str | None, x) -> np.ndarray:
        """Engine-routed Monte-Carlo ensemble for one cell."""
        if self.trace is None:
            raise ParameterError(
                f"panel {self.panel_id!r} declares no trace but an ensemble "
                "cell asked for one"
            )
        return instance_means(
            sampler, self.trace, self.n_instances, self.stream(tag, x)
        )

    def median_means(self, sampler, tag: str | None, x) -> float:
        """Median instance mean — the figures' default cell statistic."""
        return _median(self.instance_means(sampler, tag, x))


# ------------------------------------------------------------- series kinds
#: Default for ``EnsembleSeries.tag``: use the series name.  ``None`` means
#: a *tagless* stream (label ``"<panel_id>:<x>"``) — some original figure
#: loops seeded that way and the labels are part of their outputs.
SERIES_NAME = "__series-name__"


@dataclass(frozen=True)
class EnsembleSeries:
    """Statistic of a sampling-instance ensemble at each x.

    ``sampler`` maps x to the technique under test; the ensemble runs
    through :func:`repro.core.variance.instance_means`, i.e. through the
    sharded engine and the zero-copy trace protocol.  ``tag`` names the
    seed stream (defaults to the series name; ``None`` for a tagless
    stream).
    """

    name: str
    sampler: Callable
    statistic: Callable[[np.ndarray], float] = _median
    tag: str | None = SERIES_NAME
    round_to: int | None = None


@dataclass(frozen=True)
class CellSeries:
    """Arbitrary per-cell value: ``fn(ctx, x) -> float``."""

    name: str
    fn: Callable
    round_to: int | None = None


@dataclass(frozen=True)
class RowGroup:
    """Several columns from one shared per-x evaluation.

    ``fn(ctx, x)`` returns a mapping containing at least ``names``; use
    this when sibling columns must draw from a single RNG stream in a
    fixed order (e.g. paired variance comparisons).
    """

    names: tuple
    fn: Callable
    round_to: int | None = None


@dataclass(frozen=True)
class DerivedSeries:
    """Column computed from the row evaluated so far: ``fn(ctx, x, row)``."""

    name: str
    fn: Callable
    round_to: int | None = None


@dataclass(frozen=True)
class ColumnSeries:
    """A precomputed column, for closed-form curves evaluated in bulk."""

    name: str
    values: Sequence


SeriesSpec = (EnsembleSeries, CellSeries, RowGroup, DerivedSeries, ColumnSeries)


# ------------------------------------------------------------------- spec
@dataclass(frozen=True)
class SweepSpec:
    """One figure panel: an x grid crossed with declarative series.

    ``notes`` is either a static sequence of strings or a callable
    ``(ctx, columns) -> list[str]`` evaluated on the finished table.
    ``parallel_rows`` marks rows as independent pure functions of their
    seed labels, letting the runner shard the x grid itself.
    """

    panel_id: str
    title: str
    x_name: str
    x_values: tuple
    series: tuple
    trace: object = None
    n_instances: int = 0
    seed: int = MASTER_SEED
    notes: object = ()
    parallel_rows: bool = False

    def __post_init__(self) -> None:
        if not self.x_values:
            raise ParameterError(f"panel {self.panel_id!r} has an empty x grid")
        if not self.series:
            raise ParameterError(f"panel {self.panel_id!r} declares no series")
        for s in self.series:
            if not isinstance(s, SeriesSpec):
                raise ParameterError(
                    f"panel {self.panel_id!r}: {s!r} is not a series spec"
                )
            if isinstance(s, ColumnSeries) and len(s.values) != len(self.x_values):
                raise ParameterError(
                    f"panel {self.panel_id!r}: column {s.name!r} has "
                    f"{len(s.values)} values for {len(self.x_values)} x points"
                )

    def column_names(self) -> list[str]:
        names: list[str] = []
        for s in self.series:
            names.extend(s.names if isinstance(s, RowGroup) else (s.name,))
        return names

    def context(self) -> SweepContext:
        return SweepContext(
            panel_id=self.panel_id,
            seed=self.seed,
            trace=self.trace,
            n_instances=self.n_instances,
        )


# ------------------------------------------------------------------ runner
#: Spec/context pair visible to forked row workers (``parallel_rows``).
#: Set immediately before the pool forks; fork children inherit it, so
#: closures inside specs never need to be picklable.
_ACTIVE: tuple | None = None


def _eval_row(spec: SweepSpec, ctx: SweepContext, index: int) -> dict:
    """All column values at one x, in declared series order."""
    x = spec.x_values[index]
    row: dict = {}
    for s in spec.series:
        if isinstance(s, ColumnSeries):
            row[s.name] = s.values[index]
        elif isinstance(s, EnsembleSeries):
            tag = s.name if s.tag is SERIES_NAME else s.tag
            means = ctx.instance_means(s.sampler(x), tag, x)
            row[s.name] = _round(s.statistic(means), s.round_to)
        elif isinstance(s, CellSeries):
            row[s.name] = _round(s.fn(ctx, x), s.round_to)
        elif isinstance(s, RowGroup):
            out = s.fn(ctx, x)
            for name in s.names:
                row[name] = _round(out[name], s.round_to)
        else:  # DerivedSeries
            row[s.name] = _round(s.fn(ctx, x, row), s.round_to)
    return row


def _row_worker(index: int) -> dict:
    """Shard worker for ``parallel_rows``: evaluate one row in-place.

    Runs with the engine forced serial — a forked pool worker is
    daemonic and must not open nested pools; rows marked parallel are
    cheap per-cell anyway (that is why they parallelise by row).
    """
    spec, ctx = _ACTIVE
    with default_workers(1):
        return _eval_row(spec, ctx, index)


def _has_ensembles(spec: SweepSpec) -> bool:
    return any(isinstance(s, (EnsembleSeries, RowGroup)) for s in spec.series)


#: ``warn_once`` key for the parallel-rows serial-fallback diagnostic.
ROW_FALLBACK_KEY = "sweeps.row-fallback"


def _warn_row_fallback(reason: str) -> None:
    """One-time diagnostic naming why parallel rows are running serially.

    Mirrors the executor's pool-failure warning: a user who asked for
    ``workers=N`` on a ``parallel_rows`` figure must be able to tell a
    silently-serial session from a parallel one.
    """
    warn_once(
        ROW_FALLBACK_KEY,
        f"repro.experiments.sweeps: parallel_rows requested but {reason}; "
        "rows will run serially in this session (results are identical, "
        "only slower)",
        stacklevel=4,
    )


def _interleavable(spec: SweepSpec) -> bool:
    """Rows the planner may interleave without a declaration.

    :class:`EnsembleSeries` cells are pure functions of their
    ``(tag, x)`` seed streams, :class:`ColumnSeries` rows are
    precomputed, and :class:`DerivedSeries` only read the row built so
    far — so a spec made of nothing else has independent rows by
    construction.  :class:`CellSeries`/:class:`RowGroup` run arbitrary
    callables against the shared context; those specs interleave only
    when they declare ``parallel_rows`` themselves.
    """
    return _has_ensembles(spec) and all(
        isinstance(s, (EnsembleSeries, ColumnSeries, DerivedSeries))
        for s in spec.series
    )


def _rows_interleave(spec: SweepSpec, n: int, n_workers: int) -> bool:
    """Should this panel shard its x grid across the pool?

    ``parallel_rows`` specs without inner ensembles always do (the PR 3
    contract — row sharding is their only parallelism).  Ensemble-bearing
    panels with independent rows have *two* available layouts, so the
    campaign scheduler's session mode decides, same knob as
    ``run_campaign``: ``cells`` interleaves rows, ``ensembles`` shards
    inside each row, and ``auto`` interleaves exactly when the per-row
    ensembles are too narrow to cover the pool but the x grid is wide
    enough to.  Either layout is bit-identical: rows are pure functions
    of their seed labels.
    """
    if n <= 1 or n_workers <= 1:
        return False
    if spec.parallel_rows and not _has_ensembles(spec):
        return True
    if not (spec.parallel_rows or _interleavable(spec)):
        return False
    mode = resolve_schedule(None)
    if mode == "cells":
        return True
    if mode == "ensembles":
        return False
    return n >= n_workers and spec.n_instances < n_workers


def _eval_rows(spec: SweepSpec, ctx: SweepContext) -> list[dict]:
    global _ACTIVE
    n = len(spec.x_values)
    n_workers = resolve_workers(None)
    if _rows_interleave(spec, n, n_workers):
        if pool_start_method() != "fork":
            # Row workers receive the spec via fork inheritance; without
            # fork there is no transport, so the rows run serially —
            # loudly when the interleave was explicitly requested
            # (a declared parallel_rows spec or --schedule cells), and
            # quietly when "auto" merely would have preferred it.
            if spec.parallel_rows or resolve_schedule(None) == "cells":
                _warn_row_fallback(
                    f"the platform start method is {pool_start_method()!r} "
                    "(row specs travel to workers by fork inheritance)"
                )
        else:
            previous = _ACTIVE
            _ACTIVE = (spec, ctx)
            try:
                # Row workers read the spec from this module global via
                # fork inheritance, so they need a pool forked *now*: a
                # session pool that predates the global must not serve
                # them.  (Without a session pool the call forks its own.)
                runtime = active_runtime()
                if runtime is not None:
                    runtime.restart()
                return run_shards(
                    _row_worker, [(i,) for i in range(n)], workers=n_workers
                )
            finally:
                _ACTIVE = previous
    return [_eval_row(spec, ctx, i) for i in range(n)]


def run_panel(spec: SweepSpec, *, workers: int | None = None) -> ExperimentResult:
    """Execute one spec into the figure table it declares.

    ``workers`` routes every ensemble (and, for ``parallel_rows`` specs,
    the x grid itself) through the sharded engine for the duration of
    the panel; results are bit-identical for any worker count.
    """
    with default_workers(workers):
        ctx = spec.context()
        rows = _eval_rows(spec, ctx)
        columns = {
            name: [row[name] for row in rows] for name in spec.column_names()
        }
        notes = (
            list(spec.notes(ctx, columns))
            if callable(spec.notes)
            else list(spec.notes)
        )
        return ExperimentResult(
            experiment_id=spec.panel_id,
            title=spec.title,
            x_name=spec.x_name,
            x_values=list(spec.x_values),
            series=columns,
            notes=notes,
        )


def run_panels(specs, *, workers: int | None = None) -> list[ExperimentResult]:
    """Execute a figure's panels in order under one workers setting."""
    with default_workers(workers):
        return [run_panel(spec) for spec in specs]


def make_run(build_specs: Callable) -> Callable:
    """Standard ``run`` entry point for a spec-declared figure module.

    ``build_specs(scale=..., seed=...)`` returns the figure's specs (one
    or a sequence); the generated ``run`` accepts the harness signature
    ``run(scale, seed, workers=None)`` and executes them through
    :func:`run_panel`.
    """

    def run(
        scale: float = 1.0,
        seed: int = MASTER_SEED,
        *,
        workers: int | None = None,
    ) -> list[ExperimentResult]:
        specs = build_specs(scale=scale, seed=seed)
        if isinstance(specs, SweepSpec):
            specs = [specs]
        return run_panels(specs, workers=workers)

    run.build_specs = build_specs
    return run
