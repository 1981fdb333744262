"""Perf-regression micro-benchmarks for the sampling & estimation hot paths.

Each case times a vectorized hot path against the private ``_reference_*``
loop implementation it replaced (the parity tests in
``tests/test_perf_parity.py`` pin the two to identical output, so the
ratio is a pure speed comparison).  Workloads are million-point fGn
traces with fixed seeds, making results deterministic up to machine load;
stdlib ``time.perf_counter`` is the only timing dependency.

Entry points
------------
* ``python -m repro.experiments bench [--quick] [--workers N] [--output BENCH_PR6.json]``
* ``python benchmarks/perf/run.py`` (same flags)

``--quick`` shrinks the traces so the whole suite finishes in well under
30 s — suitable for smoke-testing; the full run writes the repo's perf
trajectory record (``BENCH_PR14.json``).  ``--workers N`` additionally
times the sharded ensemble engine (:mod:`repro.parallel`) at
``workers=N`` against the identical ``workers=1`` computation and
records the scaling rows in the report.  Every run also records the
engine's dispatch-overhead comparisons: zero-copy shared traces vs
PR 2's pickled copies, fault-supervised dispatch vs the plain-starmap
fast path, pipelined vs synchronous streaming ingest, the scenario
campaign engine's store +
manifest overhead against bare cell evaluation, and the campaign cell
scheduler (``schedule="cells"``) against the serial campaign loop.  The
``ingest_throughput`` family times the native-speed tier: block CSV
decoding vs the per-line reference parser and the binary format vs
CSV — these rows carry ``mb_per_s`` and ``packets_per_s`` alongside
the speedup.  The ``packet path`` rows time the packet-level pipeline's
vectorized layers against their loops: :func:`packetize` vs the per-bin
reference, the bulk CSV writer vs a row-at-a-time writer (with
``mb_per_s``), and batch ``offer_batch`` sampling vs the per-packet
``offer`` loop.  When numba is installed
a ``bss_replay_kernel`` row times the compiled replay tail against the
pure-NumPy path (bit-identical results).  The JSON header carries
machine metadata (CPU count, platform, pool start method) so
cross-machine ``BENCH_*`` comparisons are interpretable — on a
single-core container every parallel/prefetch row is an overhead
floor, not a win.  Every parallel row runs on one session worker pool
(:mod:`repro.parallel.runtime`), as the harness entry points do.
"""

from __future__ import annotations

import itertools
import json
import platform
import tempfile
import time
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from repro.core.adaptive import AdaptiveRandomSampler
from repro.core.bss import BiasedSystematicSampler
from repro.core.streaming import (
    CountSystematicSampler,
    _reference_apply_sampler,
    apply_sampler,
)
from repro.core.stratified import StratifiedSampler
from repro.core.systematic import SystematicSampler
from repro.core.variance import _reference_instance_means, instance_means
from repro.hurst.aggvar import _reference_aggregate_variances, aggregate_variances
from repro.hurst.confidence import (
    _reference_moving_block_resample,
    moving_block_resample,
)
from repro.hurst.dfa import _reference_dfa_fluctuations, dfa_fluctuations
from repro.hurst.rs import (
    _reference_rs_statistics,
    default_window_sizes,
    rs_statistics,
)
from repro.parallel.ensembles import parallel_rs_statistics
from repro.parallel.executor import (
    RetryPolicy,
    machine_metadata,
    resolve_workers,
    retry_policy,
    trace_sharing,
)
from repro.kernels import kernels, numba_available
from repro.parallel.runtime import ensure_runtime
from repro.parallel.streaming import streamed_trace_size_moments
from repro.queueing.simulation import (
    _reference_tail_probabilities,
    queue_occupancy,
    tail_probabilities,
)
from repro.trace.io import (
    _iter_csv_chunks,
    _reference_iter_csv_chunks,
    _reference_write_csv,
    iter_trace_chunks,
    write_binary,
    write_csv,
)
from repro.traffic.arrivals import _reference_packetize, packetize, zipf_weights
from repro.traffic.belllabs import BellLabsLikeTrace
from repro.traffic.synthetic import (
    fgn_trace,
    synthetic_packet_trace,
    synthetic_trace,
)

#: Master seed for every benchmark workload.
BENCH_SEED = 20260726

#: Default output file, recording this PR's perf trajectory point.
DEFAULT_OUTPUT = "BENCH_PR14.json"


@dataclass(frozen=True)
class BenchResult:
    """One timed hot path: vectorized versus reference implementation.

    For parallel-scaling rows the roles are: ``vectorized_s`` is the
    ``workers=N`` time, ``reference_s`` the ``workers=1`` time of the
    same sharded path, and ``workers`` records N (1 for ordinary rows).
    Ingest rows additionally record ``bytes_processed`` (the on-disk
    trace size), from which ``to_dict`` derives the fast side's
    ``mb_per_s``/``packets_per_s`` throughput.
    """

    name: str
    n: int
    vectorized_s: float
    reference_s: float
    workers: int = 1
    bytes_processed: int | None = None

    @property
    def speedup(self) -> float:
        if self.vectorized_s <= 0:
            return float("inf")
        return self.reference_s / self.vectorized_s

    def to_dict(self) -> dict:
        record = asdict(self)
        record["speedup"] = round(self.speedup, 2)
        if self.bytes_processed is None:
            del record["bytes_processed"]
        elif self.vectorized_s > 0:
            record["mb_per_s"] = round(
                self.bytes_processed / 1e6 / self.vectorized_s, 1
            )
            record["packets_per_s"] = round(self.n / self.vectorized_s)
        return record


def _best_of(fn, repeats: int) -> float:
    best = float("inf")
    for __ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _time_pair(name, n, fast, slow, *, repeats, workers=1,
               bytes_processed=None) -> BenchResult:
    # Both sides get the same number of draws so the best-of minimum is
    # sampled evenly — anything else would bias the recorded speedups.
    return BenchResult(
        name=name,
        n=n,
        vectorized_s=_best_of(fast, repeats),
        reference_s=_best_of(slow, repeats),
        workers=workers,
        bytes_processed=bytes_processed,
    )


def run_benchmarks(*, quick: bool = False, seed: int = BENCH_SEED, workers: int = 1):
    """Time every vectorized hot path against its reference loop.

    Returns a list of :class:`BenchResult`, one per case.  ``quick`` uses
    1/8-scale traces (smoke-test mode); the full mode uses the 1M-point
    traces the acceptance targets are defined on.  ``workers > 1``
    appends parallel-scaling rows comparing the sharded ensemble engine
    at ``workers=N`` against the identical computation at ``workers=1``.
    """
    # Same strict contract as every other parallel entry point: a genuine
    # int >= 1 or ParameterError (None means the session default).
    workers = resolve_workers(workers)
    sampler_n = 1 << 17 if quick else 1 << 20
    estimator_n = 1 << 15 if quick else 1 << 19
    repeats = 2 if quick else 3
    results = []

    fgn = fgn_trace(sampler_n, seed)
    pareto = synthetic_trace(sampler_n, seed + 1)

    # --- samplers --------------------------------------------------------
    # Rate 0.01 -> interval 100; epsilon 1.5 is the top of the paper's
    # recommended range, the regime BSS is designed for (bursts rare).
    bss = BiasedSystematicSampler(interval=100, extra_samples=8, epsilon=1.5)
    results.append(_time_pair(
        "bss_sample_fgn_eps1.5", sampler_n,
        lambda: bss.sample(fgn), lambda: bss._reference_sample(fgn),
        repeats=repeats,
    ))
    # Stress case on heavy-tailed traffic at epsilon 1.0: many intervals
    # keep extras, exercising the scalar-replay fallback.
    bss_dense = BiasedSystematicSampler(interval=100, extra_samples=8, epsilon=1.0)
    results.append(_time_pair(
        "bss_sample_pareto_eps1.0", sampler_n,
        lambda: bss_dense.sample(pareto),
        lambda: bss_dense._reference_sample(pareto),
        repeats=repeats,
    ))
    # Optional compiled tier: the numba replay kernel vs the pure-NumPy
    # path on the same heavy-trigger workload (bit-identical results —
    # the row exists only where numba is installed).
    if numba_available():
        def _bss_compiled():
            with kernels(True):
                return bss_dense.sample(pareto)

        def _bss_pure():
            with kernels(False):
                return bss_dense.sample(pareto)

        _bss_compiled()  # compile outside the timed region
        results.append(_time_pair(
            "bss_replay_kernel_vs_numpy", sampler_n,
            _bss_compiled, _bss_pure, repeats=repeats,
        ))

    adaptive = AdaptiveRandomSampler(base_rate=0.01)
    results.append(_time_pair(
        "adaptive_sample_fgn", sampler_n,
        lambda: adaptive.sample(fgn, seed), lambda: adaptive._reference_sample(fgn, seed),
        repeats=repeats,
    ))

    # --- Monte-Carlo layer ----------------------------------------------
    n_instances = 16 if quick else 64
    systematic = SystematicSampler(interval=100, offset=None)
    results.append(_time_pair(
        "instance_means_systematic", sampler_n,
        lambda: instance_means(systematic, fgn, n_instances, seed),
        lambda: _reference_instance_means(systematic, fgn, n_instances, seed),
        repeats=repeats,
    ))
    stratified = StratifiedSampler(interval=100)
    results.append(_time_pair(
        "instance_means_stratified", sampler_n,
        lambda: instance_means(stratified, fgn, n_instances, seed),
        lambda: _reference_instance_means(stratified, fgn, n_instances, seed),
        repeats=repeats,
    ))
    block = 64  # many-small-pieces regime, where the gather path engages
    boot_rng = lambda: np.random.default_rng(seed)  # noqa: E731
    results.append(_time_pair(
        "moving_block_resample_b64", sampler_n,
        lambda: moving_block_resample(fgn.values, block, boot_rng()),
        lambda: _reference_moving_block_resample(fgn.values, block, boot_rng()),
        repeats=repeats,
    ))

    # --- estimators ------------------------------------------------------
    est = fgn_trace(estimator_n, seed + 2).values
    window_sizes = default_window_sizes(est.size)
    results.append(_time_pair(
        "rs_statistics", estimator_n,
        lambda: rs_statistics(est, window_sizes),
        lambda: _reference_rs_statistics(est, window_sizes),
        repeats=repeats,
    ))
    results.append(_time_pair(
        "dfa_fluctuations", estimator_n,
        lambda: dfa_fluctuations(est, window_sizes),
        lambda: _reference_dfa_fluctuations(est, window_sizes),
        repeats=repeats,
    ))
    block_sizes = np.unique(
        np.geomspace(4, est.size // 8, 12).astype(np.int64)
    )
    results.append(_time_pair(
        "aggregate_variances", estimator_n,
        lambda: aggregate_variances(est, block_sizes),
        lambda: _reference_aggregate_variances(est, block_sizes),
        repeats=repeats,
    ))

    # --- queueing --------------------------------------------------------
    occupancy = queue_occupancy(pareto.values, capacity=pareto.mean / 0.8)
    thresholds = np.geomspace(1.0, max(float(occupancy.max()), 2.0), 200)
    results.append(_time_pair(
        "tail_probabilities", sampler_n,
        lambda: tail_probabilities(occupancy, thresholds),
        lambda: _reference_tail_probabilities(occupancy, thresholds),
        repeats=repeats,
    ))

    # --- parallel scaling ------------------------------------------------
    # The ROADMAP's heavy-trigger BSS regime (Pareto traffic, eps <= 1):
    # the online-threshold replay caps single-process vectorization at
    # ~2x, so the Monte-Carlo ensemble over instances is where a sharded
    # runner earns its keep.  Both sides run the *same* sharded path and
    # produce bit-identical means; only the worker count differs.
    if workers > 1:
        results.append(_time_pair(
            "parallel_instance_means_bss_heavy", sampler_n,
            lambda: instance_means(bss_dense, pareto, n_instances, seed,
                                   workers=workers),
            lambda: instance_means(bss_dense, pareto, n_instances, seed,
                                   workers=1),
            repeats=repeats, workers=workers,
        ))
        est_sizes = default_window_sizes(est.size)
        results.append(_time_pair(
            "parallel_rs_statistics", estimator_n,
            lambda: parallel_rs_statistics(est, est_sizes, workers=workers),
            lambda: parallel_rs_statistics(est, est_sizes, workers=1),
            repeats=repeats, workers=workers,
        ))

    # --- shard dispatch: shared-memory handles vs pickled copies ---------
    # PR 3's zero-copy protocol: the 'vectorized' side dispatches the BSS
    # heavy-trigger ensemble with the trace published once (handles cross
    # the boundary), the 'reference' side with trace_sharing disabled
    # (PR 2's per-shard pickle).  Results are bit-identical; the row
    # records the copy the protocol removes.  workers=1 is the control —
    # both sides collapse to the same serial path, so its speedup ~1.
    def _bss_dispatch(n_workers: int):
        return instance_means(bss_dense, pareto, n_instances, seed,
                              workers=n_workers)

    def _bss_dispatch_pickled(n_workers: int):
        with trace_sharing(False):
            return instance_means(bss_dense, pareto, n_instances, seed,
                                  workers=n_workers)

    for n_workers in sorted({1, workers}):
        results.append(_time_pair(
            f"shard_dispatch_shm_vs_pickle_w{n_workers}", sampler_n,
            lambda n_workers=n_workers: _bss_dispatch(n_workers),
            lambda n_workers=n_workers: _bss_dispatch_pickled(n_workers),
            repeats=repeats, workers=n_workers,
        ))

    # --- fault-path overhead: supervised dispatch vs plain starmap -------
    # PR 6's supervision (async per-shard dispatch + worker watchdog +
    # retry bookkeeping) is the default pool path; its fault-free cost
    # must stay pinned near zero.  The 'vectorized' side runs with the
    # default retry-enabled policy, the 'reference' side with
    # RetryPolicy(max_attempts=1) — the plain-starmap fast path.  Both
    # are fault-free and bit-identical; workers=1 never dispatches to a
    # pool on either side, so its speedup ~1 is the control.
    def _ensemble_supervised(n_workers: int):
        with retry_policy(RetryPolicy(max_attempts=3)):
            return instance_means(bss_dense, pareto, n_instances, seed,
                                  workers=n_workers)

    def _ensemble_plain(n_workers: int):
        with retry_policy(RetryPolicy(max_attempts=1)):
            return instance_means(bss_dense, pareto, n_instances, seed,
                                  workers=n_workers)

    for n_workers in sorted({1, workers}):
        results.append(_time_pair(
            f"supervised_vs_plain_dispatch_w{n_workers}", sampler_n,
            lambda n_workers=n_workers: _ensemble_supervised(n_workers),
            lambda n_workers=n_workers: _ensemble_plain(n_workers),
            repeats=repeats, workers=n_workers,
        ))

    # --- streaming ingest: double-buffered chunk prefetch vs synchronous
    # One packet trace on disk, folded to size moments chunk by chunk.
    # The pipelined side parses chunk N+1 on a reader thread while chunk
    # N reduces (file reads and numpy reductions both release the GIL);
    # the sync side is PR 2's sequential read-then-reduce loop.  Results
    # are identical — only the overlap differs.
    n_packets = 1 << 17 if quick else 1 << 20
    packet_trace = synthetic_packet_trace(n_packets, seed + 4)
    with tempfile.TemporaryDirectory(prefix="repro-bench-") as tmp:
        trace_path = Path(tmp) / "ingest.rpt"
        write_binary(packet_trace, trace_path)
        chunk_packets = 1 << 16
        results.append(_time_pair(
            "streamed_ingest_pipelined_vs_sync", n_packets,
            lambda: streamed_trace_size_moments(
                trace_path, chunk_size=chunk_packets, pipelined=True),
            lambda: streamed_trace_size_moments(
                trace_path, chunk_size=chunk_packets, pipelined=False),
            repeats=repeats,
        ))

        # --- ingest throughput: the native-speed tier -------------------
        # Block CSV decoding vs the per-line reference parser on the
        # same on-disk trace (identical chunks, identical boundaries —
        # pinned by tests/test_trace_block_decode.py), the compact
        # binary format for comparison.  Throughput fields come from
        # the fast side.
        csv_path = Path(tmp) / "ingest.csv"
        write_csv(packet_trace, csv_path)
        csv_bytes = csv_path.stat().st_size
        rpt_bytes = trace_path.stat().st_size

        def _drain(chunks) -> None:
            for __ in chunks:
                pass

        # Double repeats here: this row carries the tier's headline
        # acceptance number, and on shared machines one load spike
        # inside a 3-sample best-of moves the ratio by tens of percent.
        results.append(_time_pair(
            "ingest_throughput_csv_block_vs_reference", n_packets,
            lambda: _drain(_iter_csv_chunks(csv_path, chunk_packets)),
            lambda: _drain(_reference_iter_csv_chunks(csv_path, chunk_packets)),
            repeats=repeats * 2, bytes_processed=csv_bytes,
        ))
        results.append(_time_pair(
            "ingest_throughput_rpt_vs_csv_block", n_packets,
            lambda: _drain(iter_trace_chunks(trace_path,
                                             chunk_size=chunk_packets)),
            lambda: _drain(iter_trace_chunks(csv_path,
                                             chunk_size=chunk_packets)),
            repeats=repeats, bytes_processed=rpt_bytes,
        ))

        # --- packet path: the capture pipeline's vectorized layers ------
        # Each fast side against the loop it replaced; outputs, generator
        # states and file bytes are identical (tests/test_perf_parity.py),
        # so every ratio is pure speed.  The volumes are the Bell-Labs-like
        # capture's f(t) at 10 ms bins (~22 packets per bin).
        capture = BellLabsLikeTrace(bin_width=0.01, mean_rate=1.21e6)
        n_bins = 1 << 12 if quick else 1 << 15
        volumes = capture.byte_process(n_bins, seed + 5).values
        pairs = capture.od_pairs(seed + 6)
        od_weights = zipf_weights(len(pairs), capture.zipf_exponent)

        def _packetize(fn):
            return fn(volumes, capture.bin_width, od_pairs=pairs,
                      od_weights=od_weights, rng=seed + 7)

        results.append(_time_pair(
            "packetize_vs_reference", len(_packetize(packetize)),
            lambda: _packetize(packetize),
            lambda: _packetize(_reference_packetize),
            repeats=repeats,
        ))
        write_path = Path(tmp) / "write.csv"
        results.append(_time_pair(
            "csv_write_vs_reference", n_packets,
            lambda: write_csv(packet_trace, write_path),
            lambda: _reference_write_csv(packet_trace, write_path),
            repeats=repeats, bytes_processed=csv_bytes,
        ))
        # The capture workload's 1-in-100 count sampler; a fresh sampler
        # per call so both sides decide from the same initial state.
        results.append(_time_pair(
            "apply_sampler_batch_vs_offer", n_packets,
            lambda: apply_sampler(CountSystematicSampler(100), packet_trace),
            lambda: _reference_apply_sampler(
                CountSystematicSampler(100), packet_trace),
            repeats=repeats,
        ))

    # --- scenario campaigns: result-store overhead per cell --------------
    # The campaign engine wraps every cell in JSONL append + fsync and a
    # hashed manifest.  The 'vectorized' side runs one smoke scenario
    # through run_campaign (store + manifest + resume bookkeeping), the
    # 'reference' side evaluates the identical cells bare — the delta is
    # the store's per-cell tax, which must stay negligible next to cell
    # evaluation.  The resume row replays a completed campaign (all
    # cells skipped): the fixed cost of an incremental no-op run.
    from repro.scenarios import evaluate_cell, expand_cells, run_campaign

    scenario_names = ["fgn-hurst-sweep"]
    scenario_cells = expand_cells(scenario_names, smoke=True)

    def _bare_cells():
        for cell in scenario_cells:
            evaluate_cell(cell, campaign="bench", seed=seed)

    with tempfile.TemporaryDirectory(prefix="repro-scen-") as tmp:
        fresh_dirs = (Path(tmp) / f"run{i}" for i in itertools.count())

        def _stored_campaign():
            # Same campaign name as the bare side — the name seeds the
            # cell labels, so both sides must share it to run identical
            # cells; a fresh results_dir per call is what lets the store
            # (which correctly refuses to overwrite results) start over.
            run_campaign(scenario_names, campaign="bench",
                         results_dir=next(fresh_dirs), smoke=True, seed=seed)

        results.append(_time_pair(
            "scenario_campaign_smoke", len(scenario_cells),
            _stored_campaign, _bare_cells, repeats=repeats,
        ))

        resume_dir = Path(tmp) / "resume"
        run_campaign(scenario_names, campaign="bench",
                     results_dir=resume_dir, smoke=True, seed=seed)
        results.append(_time_pair(
            "scenario_campaign_smoke_resume", len(scenario_cells),
            lambda: run_campaign(scenario_names, campaign="bench",
                                 results_dir=resume_dir, smoke=True,
                                 seed=seed, resume=True),
            _bare_cells, repeats=repeats,
        ))

        # --- campaign cell scheduler: sharded cell list vs serial --------
        # schedule="cells" shards the pending-cell list itself across the
        # pool (one shard per cell, cost-balanced rounds) instead of
        # parallelising inside each cell.  The 'reference' side is the
        # plain serial campaign; stores are byte-identical, so the row is
        # a pure wall-clock comparison.  On a single-core machine both
        # rows are overhead floors (planner + pool fork + result
        # buffering, no speedup) — read them against the machine
        # metadata in the report header; workers=1 is the control.
        def _scheduled_campaign(n_workers: int):
            run_campaign(scenario_names, campaign="bench",
                         results_dir=next(fresh_dirs), smoke=True, seed=seed,
                         workers=n_workers, schedule="cells")

        def _serial_campaign():
            run_campaign(scenario_names, campaign="bench",
                         results_dir=next(fresh_dirs), smoke=True, seed=seed,
                         workers=1, schedule="ensembles")

        for n_workers in sorted({1, workers}):
            results.append(_time_pair(
                f"cell_schedule_vs_serial_w{n_workers}", len(scenario_cells),
                lambda n_workers=n_workers: _scheduled_campaign(n_workers),
                _serial_campaign, repeats=repeats, workers=n_workers,
            ))

        # --- telemetry overhead: spans + sidecar vs recording off --------
        # The observability layer claims zero-overhead-when-off and a
        # <= 5% tax when on (spans, events, counters, and the
        # telemetry.jsonl sidecar write).  'vectorized' runs the campaign
        # with telemetry forced on, 'reference' with it forced off —
        # stores are byte-identical, so a speedup below ~0.95 is a
        # recording-cost regression.
        import repro.obs as obs

        def _telemetry_campaign(enabled: bool):
            with obs.telemetry(enabled):
                run_campaign(scenario_names, campaign="bench",
                             results_dir=next(fresh_dirs), smoke=True,
                             seed=seed)

        results.append(_time_pair(
            "telemetry_overhead_campaign_smoke", len(scenario_cells),
            lambda: _telemetry_campaign(True),
            lambda: _telemetry_campaign(False),
            repeats=repeats,
        ))
    return results


def render_results(results) -> str:
    """Plain-text table of benchmark results."""
    lines = [
        f"{'case':<46} {'n':>9} {'vectorized':>12} {'reference':>12} {'speedup':>8}",
        "-" * 92,
    ]
    for r in results:
        lines.append(
            f"{r.name:<46} {r.n:>9} {r.vectorized_s * 1e3:>10.2f}ms "
            f"{r.reference_s * 1e3:>10.2f}ms {r.speedup:>7.1f}x"
        )
    return "\n".join(lines)


def write_report(results, path, *, quick: bool, seed: int, workers: int = 1) -> None:
    """Write the JSON perf-trajectory record."""
    payload = {
        "schema": "repro-bench v4",
        "mode": "quick" if quick else "full",
        "seed": seed,
        "workers": workers,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": machine_metadata(),
        "results": [r.to_dict() for r in results],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def main(argv=None) -> int:
    """CLI shared by ``benchmarks/perf/run.py`` and the experiments module."""
    import argparse

    parser = argparse.ArgumentParser(
        description="Time the vectorized hot paths against their reference loops.",
    )
    parser.add_argument("--quick", action="store_true",
                        help="1/8-scale smoke-test mode (finishes in seconds)")
    parser.add_argument("--output", default=DEFAULT_OUTPUT,
                        help=f"JSON report path (default {DEFAULT_OUTPUT})")
    parser.add_argument("--seed", type=int, default=BENCH_SEED,
                        help="master workload seed")
    parser.add_argument("--workers", type=int, default=1,
                        help="record workers=1 vs workers=N scaling rows "
                             "for the sharded ensemble engine (default 1: "
                             "no scaling rows)")
    args = parser.parse_args(argv)

    with ensure_runtime():
        results = run_benchmarks(quick=args.quick, seed=args.seed,
                                 workers=args.workers)
    print(render_results(results))
    write_report(results, args.output, quick=args.quick, seed=args.seed,
                 workers=args.workers)
    print(f"\nwrote {args.output}")
    return 0
