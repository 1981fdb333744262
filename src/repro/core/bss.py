"""Biased systematic sampling (BSS) — the paper's contribution (Sec. V-C).

BSS is systematic sampling with interval C plus a burst-chasing rule:

1. *Pre-sampling*: the first ``n_presamples`` regular samples only build a
   rough running mean; no extras are triggered yet.
2. After that, the threshold is tracked online as
   ``a_th = epsilon * Y_i`` where ``Y_i`` is the running mean over every
   kept sample so far (pre-samples, regular samples, and qualified
   extras), updated once per sampling interval — never in the middle of
   one.
3. Whenever a regular sample exceeds ``a_th``, ``L`` extra samples are
   taken evenly inside the current interval; only the *qualified* ones
   (those ``> a_th``) are kept.

The rationale: 1-burst sojourns above ``a_th`` are heavy-tailed
(Sec. V-B), so one sample above the threshold means the process likely
stays above it — the extras capture exactly the rare large values that
plain systematic sampling misses and that dominate the heavy-tailed mean.

Two implementations share this logic: :class:`BiasedSystematicSampler`
(array-native, used by the experiments: one strided gather for the
regular stream, cumsum-based running means, and a scalar replay only
from the first interval that keeps extras onward) and :class:`OnlineBSS`
(a per-value state machine suitable for streaming deployment).  Tests pin
both to the original per-granule loop, which survives as
``BiasedSystematicSampler._reference_sample``.

One deliberate deviation from the paper's wording: extras are spaced
``C/(L+1)`` apart (strictly inside the interval) rather than ``C/L``,
because ``C/L`` spacing would place the L-th extra exactly on the next
regular sampling point and double-count it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.stable import eta_model
from repro.core.base import (
    Sampler,
    SamplingResult,
    check_interval,
    interval_for_rate,
    series_values,
)
from repro.core.parameters import l_for_xi, threshold_ratio
from repro.errors import DesignError, ParameterError
from repro.utils.rng import normalize_rng
from repro.utils.validation import require_int_at_least, require_positive


def _extra_offsets(interval: int, extra_samples: int) -> np.ndarray:
    """Evenly spaced offsets strictly inside (0, interval)."""
    if extra_samples == 0 or interval < 2:
        return np.empty(0, dtype=np.int64)
    raw = np.round(
        np.arange(1, extra_samples + 1) * interval / (extra_samples + 1.0)
    ).astype(np.int64)
    raw = raw[(raw >= 1) & (raw <= interval - 1)]
    return np.unique(raw)


#: Shared empty (indices, values) pair for instances with no qualified extras.
_NO_EXTRAS = (
    np.empty(0, dtype=np.int64),
    np.empty(0, dtype=np.float64),
)

@dataclass(frozen=True)
class BiasedSystematicSampler(Sampler):
    """BSS over an in-memory series.

    Parameters
    ----------
    interval:
        Regular sampling interval C.
    extra_samples:
        L — extra samples per triggered interval.
    epsilon:
        Normalised threshold; ``a_th = epsilon * running_mean``.  The
        paper recommends eps in [1.0, 1.5] (overhead explodes below 0.5).
    threshold:
        Fixed absolute ``a_th``.  When given, pre-sampling and online
        threshold tracking are disabled (used by the unbiased-BSS
        experiments where a_th is designed offline).
    n_presamples:
        Regular samples consumed to seed the running mean before extras
        are enabled.
    offset:
        Systematic starting offset; ``None`` draws uniformly per instance.
    """

    interval: int
    extra_samples: int
    epsilon: float = 1.0
    threshold: float | None = None
    n_presamples: int = 5
    offset: int | None = 0

    name = "bss"

    def __post_init__(self) -> None:
        require_int_at_least("interval", self.interval, 1)
        require_int_at_least("extra_samples", self.extra_samples, 0)
        require_positive("epsilon", self.epsilon)
        require_int_at_least("n_presamples", self.n_presamples, 0)
        if self.threshold is not None:
            require_positive("threshold", self.threshold)
        if self.offset is not None and not 0 <= self.offset < self.interval:
            raise ParameterError(
                f"offset must lie in [0, {self.interval}), got {self.offset}"
            )

    # ------------------------------------------------------------- factories
    @classmethod
    def from_rate(cls, rate: float, extra_samples: int, **kwargs):
        """Build from a base sampling rate r (C = round(1/r))."""
        return cls(interval=interval_for_rate(rate),
                   extra_samples=extra_samples, **kwargs)

    @classmethod
    def design(
        cls,
        rate: float,
        alpha: float,
        *,
        cs: float = 0.3,
        epsilon: float = 1.0,
        total_points: int | None = None,
        xi_margin: float = 0.95,
        **kwargs,
    ) -> "BiasedSystematicSampler":
        """The paper's online tuning rule (Sec. V-C, 'without knowledge of eta').

        1. predict ``eta_hat = Cs * r^(1/alpha-1)`` (Eq. 35);
        2. target bias ``xi = 1/(1 - eta_hat)``;
        3. invert Eq. (30) for L given eps (default 1.0).

        When the target xi exceeds the attainable maximum (xi < m is
        required), it is clamped to ``xi_margin * (m - 1) + 1``.
        """
        eta_hat = float(eta_model([rate], alpha, cs, total_points=total_points)[0])
        m = threshold_ratio(epsilon, alpha)
        xi_target = 1.0 / (1.0 - eta_hat)
        xi_cap = 1.0 + xi_margin * (m - 1.0)
        xi_target = min(xi_target, xi_cap)
        if xi_target <= 1.0:
            extra = 0
        else:
            try:
                # Round to nearest: a raw L below 0.5 means the predicted
                # gap is too small to justify extras — fall back to plain
                # systematic sampling rather than inject bias.
                extra = int(round(l_for_xi(xi_target, epsilon, alpha)))
            except DesignError:
                extra = 0
        return cls.from_rate(rate, extra, epsilon=epsilon, **kwargs)

    @property
    def rate(self) -> float:
        """Base (regular-sample) rate, excluding extras."""
        return 1.0 / self.interval

    # -------------------------------------------------------------- sampling
    def sample(self, process, rng=None) -> SamplingResult:
        """Draw one BSS instance, array-native.

        The regular-sample stream is extracted with one strided gather and
        its running statistics with ``np.cumsum``; a Python loop survives
        only for *triggered* intervals (rare by design — bursts are the
        exception), and the fixed-``threshold`` path has no loop at all.
        ``_reference_sample`` keeps the original per-granule loop and the
        parity tests pin the two together bit-for-bit.
        """
        values = series_values(process)
        n = values.size
        interval = check_interval(self.interval, n)
        if self.offset is None:
            offset = int(normalize_rng(rng).integers(0, interval))
        else:
            offset = self.offset

        offsets = _extra_offsets(interval, self.extra_samples)
        reg_idx = np.arange(offset, n, interval, dtype=np.int64)
        reg_val = values[reg_idx]
        m = reg_idx.size

        if not offsets.size:
            qual_idx, qual_val = _NO_EXTRAS
        elif self.threshold is not None:
            qual_idx, qual_val = self._fixed_threshold_extras(
                values, reg_idx, reg_val, offsets
            )
        else:
            qual_idx, qual_val = self._online_threshold_extras(
                values, reg_idx, reg_val, offsets
            )

        all_idx = np.concatenate([reg_idx, qual_idx])
        all_val = np.concatenate([reg_val, qual_val])
        order = np.argsort(all_idx, kind="stable")
        return SamplingResult(
            indices=all_idx[order],
            values=all_val[order],
            n_population=n,
            method=self.name,
            n_base=m,
        )

    def _fixed_threshold_extras(
        self,
        values: np.ndarray,
        reg_idx: np.ndarray,
        reg_val: np.ndarray,
        offsets: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Qualified extras for a fixed a_th — fully vectorized.

        With a constant threshold each triggered interval is independent:
        one 2-D index-matrix gather evaluates every candidate extra at
        once.
        """
        threshold = self.threshold
        if not offsets.size:
            return _NO_EXTRAS
        trig_t = reg_idx[reg_val > threshold]
        if not trig_t.size:
            return _NO_EXTRAS
        cand = trig_t[:, None] + offsets[None, :]
        keep = cand < values.size
        cand = cand[keep]
        cand_val = values[cand]
        qualified = cand_val > threshold
        return cand[qualified], cand_val[qualified]

    def _online_threshold_extras(
        self,
        values: np.ndarray,
        reg_idx: np.ndarray,
        reg_val: np.ndarray,
        offsets: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Qualified extras under the online running-mean threshold.

        Until some interval *keeps* an extra, the running statistics are
        exactly the regular-sample prefix sums, so the threshold entering
        regular sample i is ``eps * cumsum_reg[i-1] / i`` (for
        ``i >= max(n_presamples, 1)``) and the whole trigger mask is one
        cumsum-based vector comparison; triggered intervals whose extras
        all fail to qualify leave the statistics untouched, so the frozen
        pass stays exact up to (and including) the first interval that
        keeps extras.  Only from there does a scalar replay take over —
        and bursts are rare by design, so most instances never leave the
        vector path.
        """
        n = values.size
        m = reg_idx.size
        eps = self.epsilon
        # First index at which the trigger comparison is live: the value
        # must be past warm-up (seen_regular > n_presamples) and a finite
        # threshold must exist (set after seen_regular >= n_presamples,
        # hence from index max(P, 1) onward).
        first_live = max(self.n_presamples, 1)
        if first_live >= m:
            return _NO_EXTRAS
        cum_reg = np.cumsum(reg_val)
        counts = np.arange(first_live, m, dtype=np.float64)
        th0 = eps * cum_reg[first_live - 1 : m - 1] / counts
        trig = np.flatnonzero(reg_val[first_live:] > th0) + first_live
        if not trig.size:
            return _NO_EXTRAS
        # Evaluate every frozen-trigger interval's extras in one 2-D
        # index-matrix gather.  Offsets lie strictly inside the interval,
        # so only the final interval can reach past the series end.
        ext_t = reg_idx[trig][:, None] + offsets[None, :]
        in_range = ext_t < n
        ext_v = values[np.where(in_range, ext_t, 0)]
        kept = in_range & (ext_v > th0[trig - first_live, None])
        keep_rows = np.flatnonzero(kept.any(axis=1))
        if not keep_rows.size:
            # No interval keeps extras: the frozen pass is the exact run.
            return _NO_EXTRAS
        # The first keeping interval saw undisturbed statistics, so its
        # kept extras are exact; replay the remainder in scalar.
        row = int(keep_rows[0])
        pivot = int(trig[row])
        pivot_mask = kept[row]
        qualified_idx = list(ext_t[row, pivot_mask].tolist())
        qualified_val = list(ext_v[row, pivot_mask].tolist())
        running_sum = float(cum_reg[pivot])
        running_count = pivot + 1
        for extra in qualified_val:
            running_sum += extra
            running_count += 1
        threshold = eps * running_sum / running_count
        start = pivot + 1
        if start < m:
            tail_val = reg_val[start:].tolist()
            # Replay triggers mostly coincide with the frozen triggers,
            # whose extras are already gathered — expose them as plain
            # Python lists keyed by regular-sample index.  The rare
            # decision flip (replay threshold crossing the frozen one)
            # re-gathers its interval on the fly.
            later = trig >= start
            cache = dict(
                zip(
                    trig[later].tolist(),
                    zip(ext_t[later].tolist(), ext_v[later].tolist()),
                )
            )
            offsets_list = offsets.tolist()
            for r, value in enumerate(tail_val):
                running_sum += value
                running_count += 1
                if value > threshold:
                    entry = cache.get(start + r)
                    if entry is None:
                        base = int(reg_idx[start + r])
                        row_t = [base + delta for delta in offsets_list]
                        row_v = [
                            float(values[extra_t])
                            for extra_t in row_t
                            if extra_t < n
                        ]
                    else:
                        row_t, row_v = entry
                    for c, extra_v in enumerate(row_v):
                        extra_t = row_t[c]
                        if extra_t >= n:
                            break
                        if extra_v > threshold:
                            qualified_idx.append(extra_t)
                            qualified_val.append(extra_v)
                            running_sum += extra_v
                            running_count += 1
                # a_th updates once per interval, after any extras.
                threshold = eps * running_sum / running_count
        return (
            np.asarray(qualified_idx, dtype=np.int64),
            np.asarray(qualified_val, dtype=np.float64),
        )

    def _reference_sample(self, process, rng=None) -> SamplingResult:
        """Original per-granule loop implementation (kept for parity tests)."""
        values = series_values(process)
        n = values.size
        interval = check_interval(self.interval, n)
        if self.offset is None:
            offset = int(normalize_rng(rng).integers(0, interval))
        else:
            offset = self.offset

        offsets = _extra_offsets(interval, self.extra_samples)
        fixed_threshold = self.threshold is not None

        indices: list[int] = []
        sample_values: list[float] = []
        qualified_idx: list[int] = []
        qualified_val: list[float] = []

        running_sum = 0.0
        running_count = 0
        threshold = self.threshold if fixed_threshold else np.inf
        seen_regular = 0

        for t in range(offset, n, interval):
            value = float(values[t])
            indices.append(t)
            sample_values.append(value)
            running_sum += value
            running_count += 1
            seen_regular += 1

            warmed_up = fixed_threshold or seen_regular > self.n_presamples
            if warmed_up and value > threshold and offsets.size:
                for delta in offsets:
                    extra_t = t + int(delta)
                    if extra_t >= n:
                        break
                    extra_value = float(values[extra_t])
                    if extra_value > threshold:
                        qualified_idx.append(extra_t)
                        qualified_val.append(extra_value)
                        running_sum += extra_value
                        running_count += 1
            # Threshold update happens once per interval, after any extras.
            if not fixed_threshold and seen_regular >= self.n_presamples:
                threshold = self.epsilon * running_sum / max(running_count, 1)

        all_idx = np.asarray(indices + qualified_idx, dtype=np.int64)
        all_val = np.asarray(sample_values + qualified_val, dtype=np.float64)
        order = np.argsort(all_idx, kind="stable")
        return SamplingResult(
            indices=all_idx[order],
            values=all_val[order],
            n_population=n,
            method=self.name,
            n_base=len(indices),
        )


class OnlineBSS:
    """Streaming BSS: feed granule values one at a time with :meth:`observe`.

    The state machine reproduces :class:`BiasedSystematicSampler` exactly
    (a test pins the two together) while touching each granule once and
    keeping O(samples) memory — the form a measurement device would run.
    """

    def __init__(
        self,
        interval: int,
        extra_samples: int,
        *,
        epsilon: float = 1.0,
        threshold: float | None = None,
        n_presamples: int = 5,
        offset: int = 0,
    ) -> None:
        self._config = BiasedSystematicSampler(
            interval=interval,
            extra_samples=extra_samples,
            epsilon=epsilon,
            threshold=threshold,
            n_presamples=n_presamples,
            offset=offset,
        )
        self._offsets = set(
            int(d) for d in _extra_offsets(interval, extra_samples)
        )
        self._t = -1
        self._running_sum = 0.0
        self._running_count = 0
        self._threshold = threshold if threshold is not None else np.inf
        self._fixed = threshold is not None
        self._seen_regular = 0
        self._chasing = False
        self._indices: list[int] = []
        self._values: list[float] = []
        self._n_base = 0

    @property
    def threshold(self) -> float:
        """Current a_th (inf while warming up without a fixed threshold)."""
        return self._threshold

    @property
    def n_samples(self) -> int:
        return len(self._indices)

    def observe(self, value: float) -> bool:
        """Advance one granule; return True if this granule was kept."""
        self._t += 1
        cfg = self._config
        phase = (self._t - cfg.offset) % cfg.interval
        is_regular = self._t >= cfg.offset and phase == 0

        if is_regular:
            # Close the previous interval: update a_th before consuming the
            # new regular sample's interval (paper: update only at interval
            # boundaries).
            if (
                not self._fixed
                and self._seen_regular >= cfg.n_presamples
                and self._running_count > 0
            ):
                self._threshold = (
                    cfg.epsilon * self._running_sum / max(self._running_count, 1)
                )
            value = float(value)
            self._indices.append(self._t)
            self._values.append(value)
            self._n_base += 1
            self._running_sum += value
            self._running_count += 1
            self._seen_regular += 1
            warmed = self._fixed or self._seen_regular > cfg.n_presamples
            self._chasing = bool(warmed and value > self._threshold)
            return True

        if self._chasing and phase in self._offsets and self._t >= cfg.offset:
            value = float(value)
            if value > self._threshold:
                self._indices.append(self._t)
                self._values.append(value)
                self._running_sum += value
                self._running_count += 1
                return True
        return False

    def process(self, stream) -> int:
        """Consume an iterable of values; returns the number kept."""
        kept = 0
        for value in stream:
            kept += bool(self.observe(value))
        return kept

    def result(self) -> SamplingResult:
        """Snapshot the samples collected so far."""
        n_population = self._t + 1
        if n_population <= 0:
            raise ParameterError("no values observed yet")
        return SamplingResult(
            indices=np.asarray(self._indices, dtype=np.int64),
            values=np.asarray(self._values, dtype=np.float64),
            n_population=n_population,
            method="bss_online",
            n_base=self._n_base,
        )
