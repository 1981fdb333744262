"""Tests for repro.traffic.arrivals (packetisation) and zipf weights."""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from repro.errors import ParameterError
from repro.trace.binning import bin_bytes
from repro.traffic.arrivals import PacketSizeMix, packetize, zipf_weights


class TestPacketSizeMix:
    def test_default_mean(self):
        mix = PacketSizeMix()
        assert mix.mean_size == pytest.approx(0.5 * 40 + 0.25 * 576 + 0.25 * 1500)

    def test_probabilities_normalised(self):
        mix = PacketSizeMix(sizes=(100, 200), weights=(2.0, 2.0))
        np.testing.assert_allclose(mix.probabilities, [0.5, 0.5])

    def test_sample_values_in_support(self, rng):
        mix = PacketSizeMix()
        sizes = mix.sample(1000, rng)
        assert set(np.unique(sizes)) <= {40, 576, 1500}

    def test_invalid_configs(self):
        with pytest.raises(ParameterError):
            PacketSizeMix(sizes=(), weights=())
        with pytest.raises(ParameterError):
            PacketSizeMix(sizes=(40,), weights=(1.0, 2.0))
        with pytest.raises(ParameterError):
            PacketSizeMix(sizes=(-5,), weights=(1.0,))
        with pytest.raises(ParameterError):
            PacketSizeMix(sizes=(40,), weights=(0.0,))

    @pytest.mark.parametrize(
        "weights",
        [(float("nan"), 1.0, 1.0), (float("inf"), 1.0, 1.0), (1.0, -0.5, 1.0)],
    )
    def test_rejects_non_finite_or_negative_weights(self, weights):
        with pytest.raises(ParameterError, match="weights"):
            PacketSizeMix(weights=weights)


class TestZipfWeights:
    def test_normalised(self):
        w = zipf_weights(10)
        assert w.sum() == pytest.approx(1.0)

    def test_monotone_decreasing(self):
        w = zipf_weights(20, 1.2)
        assert np.all(np.diff(w) < 0)

    def test_single_item(self):
        np.testing.assert_allclose(zipf_weights(1), [1.0])

    def test_invalid(self):
        with pytest.raises(ParameterError):
            zipf_weights(0)
        with pytest.raises(ParameterError):
            zipf_weights(5, 0.0)


class TestPacketize:
    def test_round_trip_volume(self, rng):
        """Binning the packetised trace recovers the input volumes."""
        volumes = np.array([5000.0, 0.0, 12000.0, 3000.0])
        trace = packetize(volumes, 1.0, rng=rng)
        binned = bin_bytes(trace, 1.0, t0=0.0, n_bins=4)
        # Quantisation error bounded by ~one MTU per bin.
        np.testing.assert_allclose(binned.values, volumes, atol=1600.0)

    def test_timestamps_within_bins(self, rng):
        volumes = np.array([4000.0, 4000.0])
        trace = packetize(volumes, 0.5, rng=rng)
        assert trace.timestamps.min() >= 0.0
        assert trace.timestamps.max() < 1.0

    def test_t0_offset(self, rng):
        trace = packetize(np.array([2000.0]), 1.0, t0=100.0, rng=rng)
        assert trace.timestamps.min() >= 100.0

    def test_od_pair_assignment(self, rng):
        pairs = [(1, 2), (3, 4)]
        trace = packetize(
            np.array([50_000.0]), 1.0, od_pairs=pairs, od_weights=[1.0, 0.0], rng=rng
        )
        assert set(zip(trace.sources.tolist(), trace.destinations.tolist())) == {(1, 2)}

    def test_empty_volumes_give_empty_trace(self, rng):
        trace = packetize(np.array([0.0, 0.0]), 1.0, rng=rng)
        assert len(trace) == 0

    def test_deterministic(self):
        volumes = np.array([3000.0, 1000.0])
        a = packetize(volumes, 1.0, rng=9)
        b = packetize(volumes, 1.0, rng=9)
        assert a == b

    def test_rejects_negative_volume(self, rng):
        with pytest.raises(ParameterError):
            packetize(np.array([-1.0]), 1.0, rng=rng)

    def test_rejects_mismatched_weights(self, rng):
        with pytest.raises(ParameterError):
            packetize(
                np.array([100.0]), 1.0,
                od_pairs=[(1, 2)], od_weights=[0.5, 0.5], rng=rng,
            )

    @pytest.mark.parametrize(
        "weights",
        [[0.0, 0.0], [-1.0, 2.0], [float("nan"), 1.0], [float("inf"), 1.0]],
    )
    def test_rejects_bad_od_weights_before_any_draw(self, weights):
        gen = np.random.default_rng(3)
        before = gen.bit_generator.state
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ParameterError, match="od_weights"):
                packetize(
                    np.array([5000.0, 8000.0]), 1.0,
                    od_pairs=[(1, 2), (3, 4)], od_weights=weights, rng=gen,
                )
        assert gen.bit_generator.state == before

    def test_rejects_empty_od_pairs(self, rng):
        with pytest.raises(ParameterError, match="od_pairs"):
            packetize(np.array([100.0]), 1.0, od_pairs=[], rng=rng)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_rejects_non_finite_volume(self, rng, bad):
        with pytest.raises(ParameterError, match="finite"):
            packetize(np.array([100.0, bad]), 1.0, rng=rng)

    def test_heavy_bin_not_truncated(self, rng):
        """A bin far above the mean must still receive its full volume."""
        volumes = np.array([500.0, 200_000.0])
        trace = packetize(volumes, 1.0, rng=rng)
        binned = bin_bytes(trace, 1.0, t0=0.0, n_bins=2)
        assert binned.values[1] == pytest.approx(200_000.0, rel=0.02)
