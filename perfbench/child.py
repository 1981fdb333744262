"""One workload iteration in a fresh interpreter (started by ``run.py``).

    python3 perfbench/child.py MODE WORKLOAD SEED WORKERS T0 WORKDIR OUT

``MODE`` is ``probe`` (import the entry modules, report the set-up time
and exit), ``run`` (the untraced iteration), ``trace`` (the same
iteration with the layer wrappers installed) or ``telemetry`` (``trace``
plus the program's own ``repro.obs`` telemetry, for pool health).
``T0`` is the parent's ``time.monotonic()`` just before it started this
process, so set-up time covers interpreter start-up as well as imports.
The result is written as JSON to ``OUT``.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import os
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def _knobs() -> dict:
    """The session value and source of every program knob."""
    import repro.obs as obs
    from repro import kernels, parallel
    from repro.parallel.runtime import runtime_mode_from_env

    def source(var):
        return "env" if os.environ.get(var) is not None else "default"

    return {
        "workers": {"value": parallel.get_default_workers(),
                    "source": parallel.workers_provenance()},
        "schedule": {"value": parallel.get_default_schedule(),
                     "source": parallel.schedule_provenance()},
        "runtime": {"value": runtime_mode_from_env(),
                    "source": source("REPRO_RUNTIME")},
        "prefetch": {"value": parallel.prefetch_backend_from_env(),
                     "source": source("REPRO_PREFETCH")},
        "kernels": {"value": kernels.kernels_enabled(),
                    "source": kernels.kernels_provenance()},
        "telemetry": {"value": obs.telemetry_enabled(),
                      "source": obs.telemetry_provenance()},
    }


def _versions() -> dict:
    import numpy
    import scipy
    from repro.parallel import pool_start_method

    return {"numpy": numpy.__version__, "scipy": scipy.__version__,
            "start_method": pool_start_method()}


def main(argv) -> int:
    mode, workload, seed, workers, t0, workdir, out = argv
    seed, workers, t0 = int(seed), int(workers), float(t0)
    workdir = Path(workdir)

    import workloads

    for module in workloads.ENTRY_MODULES[workload]:
        importlib.import_module(module)
    import_s = time.monotonic() - t0

    import repro

    src = Path(repro.__file__).resolve().parent.parent
    if src != (HERE.parent / "src").resolve():
        raise SystemExit(f"repro imported from {src}, not this checkout")
    result = {"import_s": import_s}
    if mode == "probe":
        Path(out).write_text(json.dumps(result))
        return 0

    import layers
    import repro.obs as obs
    import tracer as tracing

    wl = workloads.WORKLOADS[workload](seed, workdir, workers)
    tracer = None
    if mode == "run":
        # Guard: the end-to-end numbers are taken with nothing installed.
        wrapped = tracing.installed_wrappers(layers.LAYERS)
        if wrapped or obs.telemetry_enabled():
            raise SystemExit(f"untraced run is instrumented: {wrapped}")
        result["knobs"] = {"passed": wl.arguments, "session": _knobs()}
        result["versions"] = _versions()
    else:
        tracer = tracing.Tracer()
        tracer.install(layers.LAYERS, extra_namespaces=(workloads,))

    scope = obs.telemetry() if mode == "telemetry" else contextlib.nullcontext()
    with scope as collector:
        cpu0 = _cpu_s()
        if tracer is not None:
            tracer.recording = True
        start = time.perf_counter()
        output = wl.run()
        wall = time.perf_counter() - start
        if tracer is not None:
            tracer.recording = False
        cpu = _cpu_s() - cpu0

    result.update(wall_s=wall, cpu_s=cpu, peak_rss_mb=_peak_rss_mb(),
                  items=wl.items(output))
    if hasattr(wl, "digest"):
        result["digest"] = wl.digest(output)
    result["checks"] = [[name, bool(ok), str(detail)]
                        for name, ok, detail in wl.check(output)]
    if tracer is not None:
        values = layers.summarize(tracer.self_times(), tracer.counters, wall)
        if collector is not None:
            values.update(layers.telemetry_values(collector))
        result["layers"] = values
    Path(out).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(HERE))
    sys.exit(main(sys.argv[1:]))
