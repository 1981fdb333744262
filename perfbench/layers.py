"""The program's layers as the traced run sees them, and their metrics.

Each layer lists the public functions whose calls are its spans, as
``(module, attribute, measure)``: ``attribute`` is a function name or
``Class.method``, and ``measure(tracer, args, kwargs, result)`` (or None)
adds work counts for calls that are not nested in the same layer.
Layer names follow the package layout (``traffic.fgn`` is
``repro.traffic.fgn``); they are the names later changes cite.
"""

from __future__ import annotations

import os

FIGURES = [f"fig{n:02d}" for n in range(2, 23)]

HURST_ESTIMATORS = [
    ("repro.hurst.aggvar", "aggregated_variance_hurst"),
    ("repro.hurst.dfa", "dfa_hurst"),
    ("repro.hurst.periodogram", "periodogram_hurst"),
    ("repro.hurst.rs", "rs_hurst"),
    ("repro.hurst.wavelet", "wavelet_hurst"),
    ("repro.hurst.whittle", "local_whittle_hurst"),
    ("repro.hurst.whittle", "fgn_whittle_hurst"),
]


def _fgn(tracer, args, kwargs, result):
    tracer.count("traffic.fgn.calls", 1)
    tracer.count("traffic.fgn.points", int(kwargs.get("n", args[0] if args else 0)))


def _packets(tracer, args, kwargs, result):
    tracer.count("traffic.packetize.packets", len(result))


def _bss(tracer, args, kwargs, result):
    tracer.count("core.bss.calls", 1)
    tracer.count("core.bss.extra", result.n_extra)
    tracer.count("core.bss.base", result.n_base)


def _path_bytes(prefix):
    def measure(tracer, args, kwargs, result):
        path = kwargs.get("path", args[1] if prefix == "trace.write" else args[0])
        tracer.count(f"{prefix}.bytes", os.path.getsize(path))
    return measure


def _tasks(tracer, args, kwargs, result):
    tasks = kwargs.get("tasks", args[1] if len(args) > 1 else ())
    tracer.count("parallel.tasks", len(tasks) if hasattr(tasks, "__len__") else 0)


LAYERS: dict[str, list] = {
    "traffic.fgn": [
        ("repro.traffic.fgn", "fgn_davies_harte", _fgn),
        ("repro.traffic.fgn", "fgn_hosking", _fgn),
        ("repro.traffic.fgn", "fbm", _fgn),
    ],
    "traffic.onoff": [("repro.traffic.onoff", "OnOffModel.generate", None)],
    "traffic.copula": [("repro.traffic.copula", "ParetoLRDModel.generate", None)],
    "traffic.mginf": [("repro.traffic.mginf", "MGInfinityModel.generate", None)],
    "traffic.packetize": [("repro.traffic.arrivals", "packetize", _packets)],
    "core.bss": [("repro.core.bss", "BiasedSystematicSampler.sample", _bss)],
    "core.samplers": [
        ("repro.core.systematic", "SystematicSampler.sample", None),
        ("repro.core.stratified", "StratifiedSampler.sample", None),
        ("repro.core.simple_random", "SimpleRandomSampler.sample", None),
        ("repro.core.simple_random", "BernoulliSampler.sample", None),
        ("repro.core.adaptive", "AdaptiveRandomSampler.sample", None),
        ("repro.core.variance", "instance_means", None),
    ],
    "core.online": [
        ("repro.core.bss", "OnlineBSS.process", None),
        ("repro.core.streaming", "apply_sampler", None),
    ],
    "core.theory": [
        ("repro.core.snc", "snc_check", None),
        ("repro.core.snc", "snc_sweep", None),
        ("repro.core.variance", "compare_variances", None),
        ("repro.core.variance", "average_variance", None),
        ("repro.core.variance", "bss_variance_pair", None),
    ],
    "hurst": [("repro.hurst.registry", "estimate_hurst", None)]
    + [(module, name, None) for module, name in HURST_ESTIMATORS]
    + [("repro.hurst.confidence", "hurst_confidence_interval", None)],
    "queueing": [
        ("repro.queueing.simulation", "queue_occupancy", None),
        ("repro.queueing.simulation", "simulate_queue", None),
        ("repro.queueing.simulation", "tail_probabilities", None),
        ("repro.queueing.norros", "overflow_probability", None),
        ("repro.queueing.norros", "required_buffer", None),
        ("repro.queueing.norros", "required_capacity", None),
        ("repro.parallel.ensembles", "parallel_tail_probabilities", None),
        ("repro.parallel.streaming", "streamed_queue_tail_probabilities", None),
    ],
    "trace.write": [
        ("repro.trace.io", "write_trace", _path_bytes("trace.write")),
        ("repro.trace.io", "write_csv", _path_bytes("trace.write")),
        ("repro.trace.io", "write_binary", _path_bytes("trace.write")),
    ],
    "trace.read": [
        ("repro.trace.io", "read_trace", _path_bytes("trace.read")),
        ("repro.trace.io", "read_csv", _path_bytes("trace.read")),
        ("repro.trace.io", "read_binary", _path_bytes("trace.read")),
        ("repro.trace.io", "iter_trace_chunks", _path_bytes("trace.read")),
        ("repro.parallel.streaming", "streamed_trace_size_moments",
         _path_bytes("trace.read")),
    ],
    "trace.bin": [
        ("repro.trace.binning", "bin_bytes", None),
        ("repro.trace.binning", "bin_packets", None),
        ("repro.trace.binning", "bin_od_flow", None),
        ("repro.trace.binning", "RateBinner.bin", None),
    ],
    "parallel": [("repro.parallel.executor", "run_shards", _tasks)],
    "scenarios.campaign": [("repro.scenarios.campaign", "run_campaign", None)],
    "scenarios.cell": [("repro.scenarios.campaign", "evaluate_cell", None)],
    "scenarios.store": [("repro.scenarios.store", "ResultStore.append", None)],
    "experiments": [("repro.experiments.runner", "run_experiment", None)]
    + [(f"repro.experiments.{fig}", "run", None) for fig in FIGURES],
}

#: Layers whose self time is reported under another name than busy_s.
_BUSY_NAME = {
    "experiments": "experiments.self_s",
    "scenarios.store": "scenarios.store.append_s",
}

#: Filled from the run's telemetry (campaign at workers=2); 0 elsewhere.
TELEMETRY_METRICS = [
    ("parallel.pool_forks", "count", "lower"),
    ("parallel.pool_idle_fraction", "ratio", "lower"),
    ("parallel.round_imbalance", "ratio", "lower"),
    ("parallel.retries", "count", "lower"),
    ("parallel.worker_lost", "count", "lower"),
    ("scenarios.store.appends", "count", "lower"),
    ("scenarios.store.bytes", "bytes", "lower"),
]


def per_layer_metrics() -> list[tuple[str, str, str]]:
    """Every per-layer metric a traced run reports: (name, unit, better)."""
    metrics = [("import.s", "s", "lower")]
    for layer in LAYERS:
        metrics.append((_BUSY_NAME.get(layer, f"{layer}.busy_s"), "s", "lower"))
        metrics.append((f"{layer}.share", "ratio", "lower"))
    metrics += [
        ("traffic.fgn.calls", "count", "lower"),
        ("traffic.fgn.points", "count", "lower"),
        ("traffic.packetize.packets", "count", "lower"),
        ("core.bss.calls", "count", "lower"),
        ("core.bss.extra_kept_ratio", "ratio", "lower"),
        ("hurst.calls", "count", "lower"),
        ("hurst.failed", "count", "lower"),
        ("trace.write.mb_per_s", "MB/s", "higher"),
        ("trace.read.mb_per_s", "MB/s", "higher"),
        ("parallel.dispatch_s", "s", "lower"),
        ("parallel.tasks", "count", "lower"),
    ]
    metrics += TELEMETRY_METRICS
    metrics += [(f"experiments.{fig}.s", "s", "lower") for fig in FIGURES]
    metrics += [
        ("tracing.wall_s", "s", "lower"),
        ("tracing.untraced_wall_s", "s", "lower"),
        ("tracing.overhead_s", "s", "lower"),
        ("tracing.coverage", "ratio", "higher"),
        ("tracing.spans", "count", "lower"),
    ]
    return metrics


def summarize(spans_self, counters: dict, wall: float) -> dict:
    """Per-layer values from one traced run's spans and counters.

    ``spans_self`` is :meth:`Tracer.self_times` output; ``wall`` is the
    traced run's timed wall.  Only main-thread spans count: a reader
    thread's spans overlap the main-thread span that waits for them.
    """
    busy = dict.fromkeys(LAYERS, 0.0)
    covered = 0.0
    figures = dict.fromkeys(FIGURES, 0.0)
    dispatch = 0.0
    hurst_calls = hurst_failed = 0
    for span, self_s in spans_self:
        layer, name, start, end, parent, main, failed = span
        if not main:
            continue
        busy[layer] += self_s
        covered += self_s
        if layer == "experiments" and name.endswith(":run"):
            figures[name.split(":")[0].rsplit(".", 1)[1]] += end - start
        elif layer == "parallel" and (
                parent is None or spans_self[parent][0][0] != "parallel"):
            dispatch += end - start
        elif layer == "hurst" and not name.endswith("hurst_confidence_interval"):
            hurst_calls += 1
            hurst_failed += failed
    values = {}
    for layer, seconds in busy.items():
        values[_BUSY_NAME.get(layer, f"{layer}.busy_s")] = seconds
        values[f"{layer}.share"] = seconds / wall
    write_busy = busy["trace.write"]
    read_busy = busy["trace.read"]
    base = counters.get("core.bss.base", 0)
    values.update({
        "traffic.fgn.calls": counters.get("traffic.fgn.calls", 0),
        "traffic.fgn.points": counters.get("traffic.fgn.points", 0),
        "traffic.packetize.packets": counters.get("traffic.packetize.packets", 0),
        "core.bss.calls": counters.get("core.bss.calls", 0),
        "core.bss.extra_kept_ratio": (
            counters.get("core.bss.extra", 0) / base if base else 0.0
        ),
        "hurst.calls": hurst_calls,
        "hurst.failed": hurst_failed,
        "trace.write.mb_per_s": (
            counters.get("trace.write.bytes", 0) / 1e6 / write_busy
            if write_busy else 0.0
        ),
        "trace.read.mb_per_s": (
            counters.get("trace.read.bytes", 0) / 1e6 / read_busy
            if read_busy else 0.0
        ),
        "parallel.dispatch_s": dispatch,
        "parallel.tasks": counters.get("parallel.tasks", 0),
        "tracing.wall_s": wall,
        "tracing.coverage": covered / wall,
        "tracing.spans": len(spans_self),
    })
    values.update({f"experiments.{fig}.s": s for fig, s in figures.items()})
    for name, _, _ in TELEMETRY_METRICS:
        values.setdefault(name, 0)
    return values


def telemetry_values(collector) -> dict:
    """Pool and store health read back from a ``repro.obs`` collector."""
    counters, gauges = collector.counters, collector.gauges
    return {
        "parallel.pool_forks": counters.get("executor.pool_forks", 0),
        "parallel.pool_idle_fraction": gauges.get("schedule.pool_idle_fraction", 0.0),
        "parallel.round_imbalance": gauges.get("schedule.round_imbalance", 0.0),
        "parallel.retries": counters.get("executor.retries", 0),
        "parallel.worker_lost": counters.get("executor.worker_losses", 0),
        "scenarios.store.appends": counters.get("store.appends", 0),
        "scenarios.store.bytes": counters.get("store.bytes_appended", 0),
    }
