"""Parity tests pinning the vectorized hot paths to their reference loops.

Every vectorized rewrite in this repo keeps the original loop
implementation as a private ``_reference_*`` function; these tests assert
the two produce *identical* output — same rng consumption, same values
bit-for-bit, same ``n_base`` and index ordering — across the regimes and
edge cases the rewrites special-case (fixed vs online thresholds, random
offsets, zero pre-samples, zero extras, partial tail intervals, series of
one interval).  The single exception is DFA, pinned at 1e-12 because its
hot path keeps a BLAS matrix-vector product whose reduction order is not
bit-reproducible against a per-box loop.
"""

from __future__ import annotations

import struct

import numpy as np
import pytest

from repro.core.adaptive import AdaptiveRandomSampler
from repro.core.bss import BiasedSystematicSampler
from repro.core.stratified import StratifiedSampler
from repro.core.systematic import SystematicSampler
from repro.core.variance import _reference_instance_means, instance_means
from repro.errors import ParameterError
from repro.hurst.aggvar import _reference_aggregate_variances, aggregate_variances
from repro.hurst.confidence import (
    _reference_moving_block_resample,
    moving_block_resample,
)
from repro.hurst.dfa import _reference_dfa_fluctuations, dfa_fluctuations
from repro.hurst.rs import _reference_rs_statistics, rs_statistics
from repro.queueing.simulation import (
    _reference_tail_probabilities,
    queue_occupancy,
    tail_probabilities,
)
from repro.core.streaming import (
    BernoulliPacketSampler,
    CountStratifiedSampler,
    CountSystematicSampler,
    SizeBiasedSampler,
    TimeSystematicSampler,
    _reference_apply_sampler,
    apply_sampler,
)
from repro.trace.io import (
    _CSV_CHUNK,
    _RECORD,
    _reference_write_csv,
    read_binary,
    write_binary,
    write_csv,
)
from repro.trace.packet import PacketTrace
from repro.traffic.arrivals import (
    _PACKETIZE_BLOCK,
    PacketSizeMix,
    _reference_packetize,
    packetize,
    zipf_weights,
)
from repro.traffic.synthetic import fgn_trace, synthetic_trace


@pytest.fixture(scope="module")
def pareto():
    """Heavy-tailed LRD trace — the paper's synthetic workload."""
    return synthetic_trace(1 << 14, 1234)


@pytest.fixture(scope="module")
def fgn():
    """Light-tailed Gaussian LRD trace — the no-bursts regime."""
    return fgn_trace(1 << 14, 4321)


def assert_same_sampling(result, reference):
    np.testing.assert_array_equal(result.indices, reference.indices)
    np.testing.assert_array_equal(result.values, reference.values)
    assert result.n_population == reference.n_population
    assert result.n_base == reference.n_base
    assert result.method == reference.method


# ------------------------------------------------------------------- BSS
class TestBssParity:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {},
            {"n_presamples": 0},
            {"n_presamples": 50},
            {"extra_samples": 0},
            {"epsilon": 0.6},
            {"epsilon": 1.5},
            {"interval": 37, "extra_samples": 3},
            {"interval": 1000, "extra_samples": 12},
        ],
    )
    def test_online_threshold(self, pareto, kwargs):
        config = {"interval": 100, "extra_samples": 8}
        config.update(kwargs)
        sampler = BiasedSystematicSampler(**config)
        assert_same_sampling(
            sampler.sample(pareto), sampler._reference_sample(pareto)
        )

    @pytest.mark.parametrize("epsilon", [1.0, 1.1, 1.3])
    def test_online_threshold_fgn(self, fgn, epsilon):
        """Light-tailed input: triggers range from dense to nonexistent."""
        sampler = BiasedSystematicSampler(
            interval=64, extra_samples=6, epsilon=epsilon
        )
        assert_same_sampling(
            sampler.sample(fgn), sampler._reference_sample(fgn)
        )

    @pytest.mark.parametrize("factor", [0.5, 1.0, 2.0, 100.0])
    def test_fixed_threshold(self, pareto, factor):
        sampler = BiasedSystematicSampler(
            interval=50, extra_samples=4, threshold=factor * pareto.mean
        )
        assert_same_sampling(
            sampler.sample(pareto), sampler._reference_sample(pareto)
        )

    def test_random_offset_consumes_same_stream(self, pareto):
        sampler = BiasedSystematicSampler(
            interval=128, extra_samples=4, offset=None
        )
        for seed in range(5):
            assert_same_sampling(
                sampler.sample(pareto, seed),
                sampler._reference_sample(pareto, seed),
            )

    def test_partial_tail_interval(self, pareto):
        """Extras of the final interval may run past the series end."""
        n = len(pareto) - 7
        values = pareto.values[:n]
        sampler = BiasedSystematicSampler(
            interval=50, extra_samples=8, threshold=0.5 * float(values.mean())
        )
        assert_same_sampling(
            sampler.sample(values), sampler._reference_sample(values)
        )

    def test_series_of_exactly_one_interval(self):
        values = np.full(10, 3.0)
        sampler = BiasedSystematicSampler(interval=10, extra_samples=3)
        assert_same_sampling(
            sampler.sample(values), sampler._reference_sample(values)
        )

    def test_series_shorter_than_interval_rejected_by_both(self):
        values = np.ones(5)
        sampler = BiasedSystematicSampler(interval=10, extra_samples=2)
        with pytest.raises(ParameterError):
            sampler.sample(values)
        with pytest.raises(ParameterError):
            sampler._reference_sample(values)

    def test_presamples_exceed_series(self, pareto):
        sampler = BiasedSystematicSampler(
            interval=2048, extra_samples=4, n_presamples=100
        )
        assert_same_sampling(
            sampler.sample(pareto), sampler._reference_sample(pareto)
        )


# -------------------------------------------------------------- adaptive
class TestAdaptiveParity:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"base_rate": 0.01},
            {"base_rate": 0.02, "boost_factor": 8.0, "trigger": 1.2},
            {"base_rate": 0.5, "boost_factor": 2.0},
            {"base_rate": 1e-9},  # fallback single-sample draw
        ],
    )
    def test_same_stream_same_samples(self, pareto, kwargs):
        sampler = AdaptiveRandomSampler(**kwargs)
        for seed in (0, 7):
            assert_same_sampling(
                sampler.sample(pareto, seed),
                sampler._reference_sample(pareto, seed),
            )

    def test_flat_series(self):
        flat = np.full(5000, 2.5)
        sampler = AdaptiveRandomSampler(base_rate=0.05)
        assert_same_sampling(
            sampler.sample(flat, 3), sampler._reference_sample(flat, 3)
        )


# ----------------------------------------------------------- Monte-Carlo
class TestInstanceMeansParity:
    def test_systematic_random_offset(self, pareto):
        sampler = SystematicSampler(interval=100, offset=None)
        np.testing.assert_array_equal(
            instance_means(sampler, pareto, 32, 5),
            _reference_instance_means(sampler, pareto, 32, 5),
        )

    def test_systematic_uneven_tail(self, pareto):
        """Offsets split instances into two sample-count groups."""
        values = pareto.values[: 100 * 37 + 13]
        sampler = SystematicSampler(interval=100, offset=None)
        np.testing.assert_array_equal(
            instance_means(sampler, values, 48, 9),
            _reference_instance_means(sampler, values, 48, 9),
        )

    def test_stratified(self, pareto):
        sampler = StratifiedSampler(interval=64)
        np.testing.assert_array_equal(
            instance_means(sampler, pareto, 32, 5),
            _reference_instance_means(sampler, pareto, 32, 5),
        )

    def test_stratified_partial_stratum(self, pareto):
        values = pareto.values[: 64 * 100 + 17]
        sampler = StratifiedSampler(interval=64)
        np.testing.assert_array_equal(
            instance_means(sampler, values, 24, 2),
            _reference_instance_means(sampler, values, 24, 2),
        )

    def test_generic_sampler_unchanged(self, pareto):
        sampler = BiasedSystematicSampler(
            interval=100, extra_samples=4, offset=None
        )
        np.testing.assert_array_equal(
            instance_means(sampler, pareto, 8, 11),
            _reference_instance_means(sampler, pareto, 8, 11),
        )


class TestMovingBlockParity:
    @pytest.mark.parametrize("block", [8, 64, 511, 512, 513, 4096])
    def test_both_regimes(self, fgn, block):
        """Gather path (short blocks) and slice path (long) are identical."""
        np.testing.assert_array_equal(
            moving_block_resample(fgn.values, block, np.random.default_rng(3)),
            _reference_moving_block_resample(
                fgn.values, block, np.random.default_rng(3)
            ),
        )


# ------------------------------------------------------------ estimators
class TestEstimatorParity:
    @pytest.mark.parametrize("trace_name", ["pareto", "fgn"])
    def test_rs(self, trace_name, request):
        x = request.getfixturevalue(trace_name).values
        sizes = [8, 16, 100, 1000, x.size, x.size + 1]
        np.testing.assert_array_equal(
            rs_statistics(x, sizes), _reference_rs_statistics(x, sizes)
        )

    def test_rs_constant_windows(self):
        x = np.concatenate([np.full(64, 5.0), np.random.default_rng(0).random(64)])
        sizes = [8, 32, 64]
        np.testing.assert_array_equal(
            rs_statistics(x, sizes), _reference_rs_statistics(x, sizes)
        )

    @pytest.mark.parametrize("trace_name", ["pareto", "fgn"])
    def test_dfa(self, trace_name, request):
        """DFA keeps the BLAS matrix-vector product on its hot path, whose
        reduction order may differ from the per-box dot by ulps — parity
        is therefore pinned at 1e-12 instead of bit equality."""
        x = request.getfixturevalue(trace_name).values
        sizes = [3, 4, 8, 100, 1000, x.size + 1]  # includes degenerate sizes
        np.testing.assert_allclose(
            dfa_fluctuations(x, sizes),
            _reference_dfa_fluctuations(x, sizes),
            rtol=1e-12,
        )

    @pytest.mark.parametrize("trace_name", ["pareto", "fgn"])
    def test_aggvar(self, trace_name, request):
        x = request.getfixturevalue(trace_name).values
        sizes = [1, 2, 10, 100, x.size // 8]
        np.testing.assert_array_equal(
            aggregate_variances(x, sizes),
            _reference_aggregate_variances(x, sizes),
        )

    def test_aggvar_oversize_block_rejected_by_both(self, pareto):
        x = pareto.values
        with pytest.raises(ParameterError):
            aggregate_variances(x, [x.size + 1])
        with pytest.raises(ParameterError):
            _reference_aggregate_variances(x, [x.size + 1])


# -------------------------------------------------------------- queueing
class TestTailProbabilityParity:
    def test_matches_scan(self, pareto):
        occupancy = queue_occupancy(pareto.values, capacity=pareto.mean / 0.8)
        thresholds = np.geomspace(0.5, max(float(occupancy.max()), 1.0), 50)
        np.testing.assert_array_equal(
            tail_probabilities(occupancy, thresholds),
            _reference_tail_probabilities(occupancy, thresholds),
        )

    def test_exact_threshold_is_strict(self):
        occupancy = np.array([0.0, 1.0, 1.0, 2.0, 3.0])
        thresholds = [0.0, 1.0, 2.5, 3.0, 4.0]
        np.testing.assert_array_equal(
            tail_probabilities(occupancy, thresholds),
            _reference_tail_probabilities(occupancy, thresholds),
        )


# -------------------------------------------------------------- trace io
def _loop_csv_lines(trace: PacketTrace) -> str:
    lines = ["# repro-trace v1: timestamp,src,dst,size,protocol"]
    for i in range(len(trace)):
        lines.append(
            f"{trace.timestamps[i]:.6f},{trace.sources[i]},"
            f"{trace.destinations[i]},{trace.sizes[i]},{trace.protocols[i]}"
        )
    return "\n".join(lines) + "\n"


def _loop_binary_records(trace: PacketTrace) -> bytes:
    return b"".join(
        _RECORD.pack(
            float(trace.timestamps[i]),
            int(trace.sources[i]),
            int(trace.destinations[i]),
            int(trace.sizes[i]),
            int(trace.protocols[i]),
        )
        for i in range(len(trace))
    )


@pytest.fixture()
def packet_trace():
    rng = np.random.default_rng(99)
    n = 500
    return PacketTrace(
        timestamps=np.sort(rng.random(n) * 1e4),
        sources=rng.integers(0, 2**32, n, dtype=np.uint64).astype(np.uint32),
        destinations=rng.integers(0, 2**32, n, dtype=np.uint64).astype(np.uint32),
        sizes=rng.integers(0, 2**16, n).astype(np.uint32),
        protocols=rng.integers(0, 256, n).astype(np.uint8),
    )


class TestTraceIoParity:
    def test_csv_bytes_match_loop_format(self, packet_trace, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(packet_trace, path)
        assert path.read_text(encoding="utf-8") == _loop_csv_lines(packet_trace)

    def test_csv_longer_than_one_chunk(self, tmp_path):
        """Full and partial writer chunks, uint32-max ids, 1e4+ clocks."""
        rng = np.random.default_rng(7)
        n = _CSV_CHUNK + 1234
        sources = rng.integers(0, 2**32, n, dtype=np.uint64).astype(np.uint32)
        sources[::1000] = np.iinfo(np.uint32).max
        destinations = sources[::-1].copy()
        trace = PacketTrace(
            timestamps=1e4 + np.sort(rng.random(n)) * 1e5,
            sources=sources,
            destinations=destinations,
            sizes=rng.integers(0, 2**16, n).astype(np.uint32),
            protocols=rng.integers(0, 256, n).astype(np.uint8),
        )
        path = tmp_path / "t.csv"
        write_csv(trace, path)
        assert path.read_text(encoding="utf-8") == _loop_csv_lines(trace)

    def test_reference_writer_matches_loop_format(self, packet_trace, tmp_path):
        path = tmp_path / "t.csv"
        _reference_write_csv(packet_trace, path)
        assert path.read_text(encoding="utf-8") == _loop_csv_lines(packet_trace)

    def test_binary_bytes_match_struct_loop(self, packet_trace, tmp_path):
        path = tmp_path / "t.rpt"
        write_binary(packet_trace, path)
        data = path.read_bytes()
        expected = (
            b"RPTRACE1"
            + struct.pack("<Q", len(packet_trace))
            + _loop_binary_records(packet_trace)
        )
        assert data == expected
        assert read_binary(path) == packet_trace


# -------------------------------------------------------------- packetize
def assert_same_packetize(volumes, *, seed=11, **kwargs):
    """Fast vs reference: same trace and same caller generator state."""
    fast_gen = np.random.default_rng(seed)
    ref_gen = np.random.default_rng(seed)
    fast = packetize(volumes, 0.01, rng=fast_gen, **kwargs)
    ref = _reference_packetize(volumes, 0.01, rng=ref_gen, **kwargs)
    assert fast == ref
    assert fast_gen.bit_generator.state == ref_gen.bit_generator.state
    return fast


class TestPacketizeParity:
    def test_all_zero_bins(self):
        assert len(assert_same_packetize(np.zeros(100))) == 0

    def test_no_bins(self):
        assert len(assert_same_packetize(np.array([]))) == 0

    def test_sub_threshold_runs_carry_forward(self):
        """Bins under min(size)/2 emit nothing until the carry crosses it."""
        volumes = np.tile([0.0, 7.0, 5.0, 9.0, 3.0], 400)
        trace = assert_same_packetize(volumes)
        assert 0 < len(trace) < np.count_nonzero(volumes)

    def test_heavy_bin_hits_extension_loop(self):
        # A bin with a 1e6-byte target after 40-byte bins: the first
        # draw is sized by the mean, so a skewed mix needs extensions.
        mix = PacketSizeMix(sizes=(40, 9000), weights=(0.999, 0.001))
        volumes = np.array([40.0, 1e6, 80.0, 3e5, 0.0])
        assert_same_packetize(volumes, size_mix=mix)

    def test_volumes_span_block_boundaries(self):
        rng = np.random.default_rng(3)
        volumes = rng.pareto(1.5, 2 * _PACKETIZE_BLOCK + 17) * 2000.0
        volumes[_PACKETIZE_BLOCK - 3 : _PACKETIZE_BLOCK + 3] = 9.0
        assert_same_packetize(volumes)

    def test_one_pair(self):
        volumes = np.random.default_rng(4).random(500) * 20_000.0
        assert_same_packetize(volumes, od_pairs=[(5, 9)], t0=1e4)

    def test_zipf_pairs(self):
        pairs = [(i, i + 1) for i in range(50)]
        volumes = np.random.default_rng(5).random(700) * 30_000.0
        assert_same_packetize(
            volumes, od_pairs=pairs, od_weights=zipf_weights(50, 1.2)
        )

    def test_zero_weight_entries(self):
        mix = PacketSizeMix(sizes=(64, 1500, 9000), weights=(0.3, 0.0, 0.7))
        volumes = np.random.default_rng(6).random(300) * 50_000.0
        assert_same_packetize(
            volumes, size_mix=mix, od_pairs=[(1, 2), (2, 3)], od_weights=[0, 1]
        )


# ---------------------------------------------------------- packet samplers
def _sampler_trace(n: int, seed: int) -> PacketTrace:
    """Sorted clock with a tie run and an idle gap; the tri-modal mix."""
    rng = np.random.default_rng(seed)
    timestamps = rng.exponential(0.01, n).cumsum()
    if n:
        timestamps[n // 3 : n // 3 + 40] = timestamps[n // 3]
        timestamps[n // 2 :] += 5.0
    sizes = rng.choice([40, 576, 1500], n)
    return PacketTrace(timestamps, np.ones(n), np.full(n, 2), sizes)


PACKET_SAMPLERS = {
    "count_systematic": lambda: CountSystematicSampler(7, offset=3),
    "count_systematic_every": lambda: CountSystematicSampler(1),
    "time_systematic": lambda: TimeSystematicSampler(0.05),
    "time_systematic_dense": lambda: TimeSystematicSampler(1e-4),
    "count_stratified": lambda: CountStratifiedSampler(10, rng=3),
    "count_stratified_wide": lambda: CountStratifiedSampler(700, rng=3),
    "bernoulli": lambda: BernoulliPacketSampler(0.1, rng=4),
    "size_biased": lambda: SizeBiasedSampler(1000.0, rng=5),
}


def _sampler_state(sampler) -> dict:
    state = dict(vars(sampler))
    rng = state.pop("_rng", None)
    if rng is not None:
        state["_rng"] = rng.bit_generator.state
    return state


class TestPacketSamplerParity:
    @pytest.mark.parametrize("kind", sorted(PACKET_SAMPLERS))
    def test_batch_matches_offer_loop(self, kind):
        batch, loop = PACKET_SAMPLERS[kind](), PACKET_SAMPLERS[kind]()
        trace = _sampler_trace(3000, 1)
        assert apply_sampler(batch, trace) == _reference_apply_sampler(loop, trace)
        assert _sampler_state(batch) == _sampler_state(loop)

    @pytest.mark.parametrize("kind", sorted(PACKET_SAMPLERS))
    def test_state_carries_across_calls_and_reset(self, kind):
        batch, loop = PACKET_SAMPLERS[kind](), PACKET_SAMPLERS[kind]()
        for step, n in enumerate((13, 1, 0, 2000, 1, 699)):
            trace = _sampler_trace(n, step)
            if step == 4:
                batch.reset()
                loop.reset()
            assert apply_sampler(batch, trace) == _reference_apply_sampler(
                loop, trace
            )
            assert _sampler_state(batch) == _sampler_state(loop)

    @pytest.mark.parametrize(
        "clocks",
        [
            [[0.0, 0.3, 0.1, 0.9, 0.5, 2.0]],  # unsorted
            [[0.0, 0.4, np.nan, 0.9], [1.0, 2.0]],  # NaN inside the clock
            [[np.nan], [0.5, 1.0]],  # a NaN first packet leaves a NaN tick
        ],
    )
    def test_time_systematic_irregular_clock_falls_back(self, clocks):
        batch, loop = TimeSystematicSampler(0.25), TimeSystematicSampler(0.25)
        for clock in clocks:
            timestamps = np.array(clock)
            sizes = np.full(timestamps.size, 100)
            expected = [loop.offer(float(t), 100) for t in timestamps]
            assert batch.offer_batch(timestamps, sizes).tolist() == expected
            assert str(_sampler_state(batch)) == str(_sampler_state(loop))
