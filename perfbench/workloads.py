"""The three workloads: the timed work, and the checks on its outputs.

Every workload is built from its seed alone and calls the program only
through public entry points.  ``run()`` is the timed work; ``check()``
runs afterwards, untimed, and returns one ``(operation, ok, detail)``
row per operation attempted.  A failed check is a failed operation.

The checks are statistical, not digests: a change that legitimately
alters random values (a faster fGn synthesis, say) still passes, while
one that breaks the paper's findings or the I/O contracts does not.
"""

from __future__ import annotations

import hashlib
import math
from pathlib import Path

import numpy as np

#: Modules each workload imports before its timed work (its set-up).
ENTRY_MODULES = {
    "figures": ["repro", "repro.experiments"]
    + [f"repro.experiments.fig{n:02d}" for n in range(2, 23)],
    "campaign": ["repro", "repro.scenarios"],
    "capture": [
        "repro",
        "repro.core.streaming",
        "repro.hurst.confidence",
        "repro.hurst.registry",
        "repro.parallel.streaming",
        "repro.queueing.simulation",
    ],
}


def _finite(values) -> bool:
    try:
        arr = np.asarray(list(values), dtype=np.float64)
    except (TypeError, ValueError):
        return False
    return bool(np.isfinite(arr).all())


def _geomean(values) -> float:
    return float(np.exp(np.mean(np.log(np.asarray(values, dtype=np.float64)))))


class Figures:
    """Every figure in the registry at paper scale (scale 1.0)."""

    def __init__(self, seed: int, workdir: Path, workers: int):
        self.seed, self.workers = seed, workers
        self.arguments = {"scale": 1.0, "workers": workers}

    def run(self):
        from repro.experiments import runner

        return {
            name: runner.run_experiment(
                name, scale=1.0, seed=self.seed, workers=self.workers
            )
            for name in runner.available_experiments()
        }

    def items(self, out) -> int:
        return sum(len(panels) for panels in out.values())

    #: Panels where NaN is a documented value: fig14 marks a contour
    #: level no (L, eps) pair attains with NaN (see its notes).
    NAN_MARKS_NO_SOLUTION = {"fig14"}

    def check(self, out):
        rows = []
        for panels in out.values():
            for panel in panels:
                columns = [panel.x_values, *panel.series.values()]
                if panel.experiment_id in self.NAN_MARKS_NO_SOLUTION:
                    values = np.asarray(columns, dtype=np.float64)
                    ok = not np.isinf(values).any() and np.isfinite(values).any()
                    detail = "no infinities; NaN only for unattainable levels"
                else:
                    ok = all(_finite(column) for column in columns)
                    detail = "every value finite"
                rows.append((panel.experiment_id, ok, detail))
        panels = {p.experiment_id: p for ps in out.values() for p in ps}

        # Theorem 2 on the on/off trace, where its conditions hold, judged
        # on the geometric mean of E(V) over rates.  Both grid techniques
        # beat simple random by a wide margin at every seed; systematic vs
        # stratified is within ensemble noise at 128 instances (their
        # ratio ranged 0.58-1.20 over 28 seeds), so it only gets a bound.
        fig05 = panels["fig05a"].series
        sys_, strat, ran = (_geomean(fig05[k]) for k in
                            ("systematic", "stratified", "simple_random"))
        rows.append(("fig05a.theorem2",
                     sys_ < ran and strat < ran and sys_ <= 1.5 * strat,
                     f"geomean E(V) sys={sys_:.4g} strat={strat:.4g} ran={ran:.4g}"))

        # BSS keeps the spectral exponent of what it samples.
        fig21 = panels["fig21"]
        err = max(abs(b - h) for b, h in
                  zip(fig21.x_values, fig21.series["beta_hat"]))
        rows.append(("fig21.beta", err <= 0.1, f"max|beta_hat-beta|={err:.3f}"))

        # BSS is the most efficient method: above both systematic and
        # simple random at most rates.  (The averages the paper quotes are
        # dominated by the noisy lowest rate and flip order on some seeds.)
        fig20 = {k: np.asarray(v) for k, v in panels["fig20"].series.items()}
        wins = int(((fig20["proposed"] > fig20["systematic"])
                    & (fig20["proposed"] > fig20["simple_random"])).sum())
        rates = len(fig20["proposed"])
        rows.append(("fig20.efficiency", wins > rates / 2,
                     f"BSS most efficient at {wins}/{rates} rates"))
        return rows


class Campaign:
    """The full built-in campaign (45 cells) into a fresh results directory."""

    name = "bench"

    def __init__(self, seed: int, workdir: Path, workers: int):
        self.seed, self.workers = seed, workers
        self.results_dir = workdir / "campaign"
        self.arguments = {"workers": workers, "schedule": "auto", "smoke": False}

    def run(self):
        from repro import scenarios

        return scenarios.run_campaign(
            campaign=self.name, results_dir=self.results_dir, seed=self.seed,
            workers=self.workers, schedule="auto",
        )

    def items(self, summary) -> int:
        return summary.executed

    def digest(self, summary) -> str:
        store = summary.store
        sha = hashlib.sha256()
        for path in (store.manifest_path, store.results_path):
            sha.update(path.read_bytes())
        return sha.hexdigest()

    def check(self, summary):
        from repro import scenarios

        # One operation per cell: its record is in the store (checksums
        # verified on read) and carries a finite ground-truth mean.
        records = {r["key"]: r for r in summary.store.records()}
        rows = []
        for cell in scenarios.expand_cells():
            record = records.get(cell.key)
            ok = record is not None and math.isfinite(record["truth"]["mean"])
            rows.append((cell.key, ok, "committed"))
        rows.append(("campaign.size", summary.n_cells == 45 and
                     summary.executed == 45 and summary.quarantined == 0,
                     f"cells={summary.n_cells} executed={summary.executed} "
                     f"quarantined={summary.quarantined}"))
        again = scenarios.run_campaign(
            campaign=self.name, results_dir=self.results_dir, seed=self.seed,
            workers=1, schedule="auto", resume=True,
        )
        rows.append(("campaign.resume", again.executed == 0 and
                     again.skipped == summary.n_cells,
                     f"resume executed={again.executed} skipped={again.skipped}"))
        return rows


class Capture:
    """Synthesise a packet capture, write it, stream it back, analyse it."""

    BIN = 0.01
    N_BINS = 1 << 16
    PERIOD = 100
    H_BAND = (0.3, 0.95)

    def __init__(self, seed: int, workdir: Path, workers: int):
        self.seed, self.workers = seed, workers
        self.csv = workdir / "capture.csv"
        self.rpt = workdir / "capture.rpt"
        self.arguments = {"workers": workers, "prefetch_backend": "thread"}

    def _stream(self, path):
        from repro.parallel import streaming
        from repro.trace import binning, io

        moments = streaming.streamed_trace_size_moments(path, backend="thread")
        # One spare bin past the capture: CSV timestamps are rounded to
        # microseconds, which can carry the last packet onto the edge.
        binned = np.zeros(self.N_BINS + 1)
        for chunk in io.iter_trace_chunks(path):
            binned += binning.bin_bytes(chunk, self.BIN, t0=0.0,
                                        n_bins=self.N_BINS + 1).values
        return moments, binned

    def run(self):
        import repro
        from repro.core import streaming as packet_sampling
        from repro.core.bss import OnlineBSS
        from repro.hurst import confidence, registry
        from repro.parallel import streaming
        from repro.queueing import simulation

        out = {}
        generator = repro.BellLabsLikeTrace(bin_width=self.BIN, mean_rate=1.21e6)
        packets = out["packets"] = generator.packets(self.N_BINS, rng=self.seed)
        repro.write_trace(packets, self.csv)
        repro.write_trace(packets, self.rpt)
        out["csv"] = self._stream(self.csv)
        out["rpt"] = self._stream(self.rpt)
        series = out["series"] = out["rpt"][1][: self.N_BINS]

        sampler = packet_sampling.CountSystematicSampler(self.PERIOD)
        out["sampled"] = len(packet_sampling.apply_sampler(sampler, packets))
        monitor = OnlineBSS(64, 6, epsilon=1.0, n_presamples=5)
        monitor.process(series)
        out["online"] = monitor.result()

        out["hurst"] = {m: registry.estimate_hurst(series, m).hurst
                        for m in registry.available_methods()}
        out["ci"] = confidence.hurst_confidence_interval(
            series, "wavelet", rng=self.seed)
        capacity = simulation.utilisation_for_load(float(series.mean()), 0.8)
        out["thresholds"] = capacity * np.array([0.1, 1.0, 10.0])
        out["tail"] = streaming.streamed_queue_tail_probabilities(
            streaming.chunked(series, 8192), capacity, out["thresholds"])
        return out

    def items(self, out) -> int:
        return len(out["packets"])

    def check(self, out):
        from repro.core.bss import BiasedSystematicSampler

        packets = out["packets"]
        n = len(packets)
        total = int(packets.total_bytes)
        sizes = packets.sizes.astype(np.float64)
        rows = [("packetize", n > 0 and total > 0, f"{n} packets {total} bytes")]
        for ext in ("csv", "rpt"):
            moments, binned = out[ext]
            ok = (moments.count == n
                  and math.isclose(moments.mean, sizes.mean(), rel_tol=1e-12)
                  and math.isclose(moments.m2, ((sizes - sizes.mean()) ** 2).sum(),
                                   rel_tol=1e-9))
            rows.append((f"read.{ext}", ok, f"count={moments.count}"))
            rows.append((f"bin.{ext}", float(binned.sum()) == total,
                         f"binned={binned.sum():.0f} total={total}"))
        want = math.ceil(n / self.PERIOD)
        rows.append(("sample.count", out["sampled"] == want,
                     f"kept={out['sampled']} want={want}"))
        online = out["online"]
        batch = BiasedSystematicSampler(
            interval=64, extra_samples=6, epsilon=1.0, n_presamples=5, offset=0,
        ).sample(out["series"])
        rows.append(("sample.online_bss",
                     np.array_equal(online.indices, batch.indices)
                     and np.array_equal(online.values, batch.values),
                     f"online={online.n_samples} batch={batch.n_samples}"))
        lo, hi = self.H_BAND
        for method, h in out["hurst"].items():
            rows.append((f"hurst.{method}", bool(np.isfinite(h)) and lo <= h <= hi,
                         f"H={h:.3f} band=[{lo}, {hi}]"))
        ci = out["ci"]
        # A percentile bootstrap interval need not contain the point
        # estimate; it must be ordered and inside the band.
        rows.append(("hurst.ci", lo <= ci.low <= ci.high <= hi,
                     f"[{ci.low:.3f}, {ci.high:.3f}] point={ci.point:.3f}"))
        tail = out["tail"]
        rows.append(("queue.tail", bool(((tail >= 0) & (tail <= 1)).all())
                     and bool((np.diff(tail) <= 0).all()),
                     "P(Q>b) " + " ".join(f"{p:.4g}" for p in tail)))
        return rows


WORKLOADS = {"figures": Figures, "campaign": Campaign, "capture": Capture}
