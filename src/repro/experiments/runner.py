"""Experiment result container, the ensemble-median helper, and the registry.

Figure panels themselves are declared as :class:`~repro.experiments.sweeps.SweepSpec`
objects and executed by :func:`repro.experiments.sweeps.run_panel`; this
module holds what every layer shares — the :class:`ExperimentResult`
table, the registry mapping figure names to modules, and
:func:`run_experiment`, the harness entry point that routes a figure run
through the sharded engine via the session ``workers`` default.
"""

from __future__ import annotations

import contextlib
import importlib
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from repro.core.base import Sampler
from repro.core.variance import instance_means
from repro.errors import ParameterError
from repro.utils.rng import stream_for
from repro.utils.tables import format_series_table


@dataclass(frozen=True)
class ExperimentResult:
    """One figure panel as a data table.

    Attributes
    ----------
    experiment_id:
        Paper figure id, e.g. ``"fig18a"``.
    title:
        Human-readable description.
    x_name / x_values:
        The x-axis of the original figure.
    series:
        One named column per plotted curve.
    notes:
        Free-form findings (fitted exponents, averages, ...), printed
        under the table.
    """

    experiment_id: str
    title: str
    x_name: str
    x_values: Sequence
    series: Mapping[str, Sequence]
    notes: list[str] = field(default_factory=list)

    def render(self) -> str:
        table = format_series_table(
            self.x_name,
            list(self.x_values),
            {k: list(v) for k, v in self.series.items()},
            title=f"[{self.experiment_id}] {self.title}",
        )
        if self.notes:
            table += "\n" + "\n".join(f"  note: {n}" for n in self.notes)
        return table


def median_instance_means(
    sampler: Sampler, process, n_instances: int, seed_label: str, seed: int
) -> float:
    """Median sampled mean across instances.

    The paper's 'sampled mean vs rate' curves show a *typical* sampling
    outcome.  The instance mean is unbiased for every technique, so the
    under-estimation phenomenon lives in the median (most instances miss
    the rare large values; a few overshoot hugely).
    """
    rng = stream_for(seed_label, seed)
    means = instance_means(sampler, process, n_instances, rng)
    return float(np.median(means))


@contextlib.contextmanager
def execution_scope(*, workers: int | None = None, schedule: str | None = None,
                    telemetry: bool | None = None, faults: str | None = None):
    """The run context every harness entry point shares.

    Figure runs, scenario campaigns and the bench each enter one scope.
    Inside it, one lazily forked worker pool serves every parallel
    region (an already active runtime is reused).  Each argument is one
    :mod:`repro.config` knob passed explicitly — ``workers`` (sharding
    default), ``schedule`` (``"cells"``, ``"ensembles"`` or ``"auto"``),
    ``telemetry`` (span/metric recording) and ``faults`` (a fault-plan
    string) — and ``None`` defers to the knob's ``REPRO_*`` variable.
    Every deferred knob is read before the scope yields, so a malformed
    variable fails the run before any work starts, while an explicit
    value beats a malformed one.  Results never depend on any knob: the
    scope is purely a wall-clock lever.
    """
    import repro.obs as obs
    from repro import config
    from repro.faults import fault_plan
    from repro.parallel import default_schedule, default_workers
    from repro.parallel.runtime import ensure_runtime

    passed = {"workers": workers, "schedule": schedule,
              "telemetry": telemetry, "faults": faults}
    config.resolve_all({name for name, v in passed.items() if v is not None})
    telemetry_scope = (
        obs.telemetry(telemetry) if telemetry is not None
        else contextlib.nullcontext()
    )
    faults_scope = (
        fault_plan(faults) if faults is not None else contextlib.nullcontext()
    )
    with faults_scope, ensure_runtime(), default_workers(workers), \
            default_schedule(schedule), telemetry_scope:
        yield


# ----------------------------------------------------------------- registry
#: Experiment name -> module path; every paper figure has an entry.
_REGISTRY: dict[str, str] = {
    f"fig{n:02d}": f"repro.experiments.fig{n:02d}"
    for n in (2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18,
              19, 20, 21, 22)
}


def available_experiments() -> list[str]:
    return sorted(_REGISTRY)


def run_experiment(
    name: str,
    *,
    scale: float = 1.0,
    seed: int | None = None,
    workers: int | None = None,
) -> list[ExperimentResult]:
    """Run one figure's experiment; returns its panels.

    ``workers`` routes every ensemble the experiment runs through the
    sharded engine (:mod:`repro.parallel`) for the duration of the run.
    Results are bit-identical to ``workers=1`` — parallelism is purely a
    wall-clock lever, so figure outputs never depend on the machine.
    Every parallel region of the run shares one lazily forked pool (the
    active runtime's, when one is open).
    """
    if name not in _REGISTRY:
        raise ParameterError(
            f"unknown experiment {name!r}; available: {available_experiments()}"
        )
    from repro.parallel import default_workers
    from repro.parallel.runtime import ensure_runtime

    module = importlib.import_module(_REGISTRY[name])
    kwargs = {"scale": scale}
    if seed is not None:
        kwargs["seed"] = seed
    with ensure_runtime(), default_workers(workers):
        results = module.run(**kwargs)
    if isinstance(results, ExperimentResult):
        return [results]
    return list(results)
