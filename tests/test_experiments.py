"""Smoke + invariant tests for the experiment harness (one per figure).

Each experiment runs at a small scale; assertions target the paper's
qualitative claims (the 'shape' contract of the reproduction), not exact
values.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import config
from repro.errors import ParameterError
from repro.experiments import available_experiments, run_experiment
from repro.experiments.runner import ExperimentResult

SCALE = 0.1
SEED = 77


@pytest.fixture(scope="module")
def results():
    """Run every experiment once at small scale; cache panels by id."""
    cache: dict[str, ExperimentResult] = {}
    for name in available_experiments():
        for panel in run_experiment(name, scale=SCALE, seed=SEED):
            cache[panel.experiment_id] = panel
    return cache


class TestHarness:
    def test_all_experiments_registered(self):
        names = available_experiments()
        expected = {f"fig{n:02d}" for n in range(2, 23) if n not in (0, 1)}
        assert set(names) == expected

    def test_unknown_experiment_rejected(self):
        with pytest.raises(ParameterError):
            run_experiment("fig99")

    @pytest.mark.parametrize("bad", [2.5, 0, -1, "4", True])
    def test_bench_rejects_invalid_workers(self, bad):
        """Same strict contract as every other parallel entry point."""
        from repro.experiments.bench import run_benchmarks

        with pytest.raises(ParameterError, match="workers"):
            run_benchmarks(quick=True, workers=bad)

    def test_every_panel_renders(self, results):
        for panel in results.values():
            text = panel.render()
            assert panel.experiment_id in text
            assert len(text.splitlines()) >= 3

    def test_series_lengths_match_x(self, results):
        for panel in results.values():
            for name, column in panel.series.items():
                assert len(column) == len(panel.x_values), (
                    panel.experiment_id, name,
                )


class TestAnalyticFigures:
    def test_fig02_beta_recovered(self, results):
        panel = results["fig02b"]
        errs = [abs(b - h) for b, h in zip(panel.x_values, panel.series["beta_hat"])]
        assert max(errs) < 0.05

    def test_fig03_both_methods_preserve(self, results):
        for pid in ("fig03a", "fig03b"):
            panel = results[pid]
            errs = [
                abs(b - h)
                for b, h in zip(panel.x_values, panel.series["beta_hat"])
            ]
            assert max(errs) < 0.05, pid

    def test_fig04_all_positive(self, results):
        panel = results["fig04"]
        for column in panel.series.values():
            assert min(column) > 0

    def test_fig09_l_grows_with_eta(self, results):
        panel = results["fig09"]
        at_eps1 = [panel.series[f"eta={e}"][-1] for e in (0.1, 0.3, 0.5)]
        assert at_eps1[0] < at_eps1[1] < at_eps1[2]

    def test_fig10_eps2_matches_paper(self, results):
        """The xi=1 roots for L=10/L=8 land on the paper's 2.55/2.28."""
        notes = " ".join(results["fig10"].notes)
        assert "eps2=2.5" in notes or "eps2=2.6" in notes
        assert "eps2=2.2" in notes or "eps2=2.3" in notes

    def test_fig11_crosses_one_twice(self, results):
        xi = np.asarray(results["fig11"].series["xi"])
        crossings = np.sum(np.diff(np.sign(xi - 1.0)) != 0)
        assert crossings == 2

    def test_fig14_eps_grows_with_l(self, results):
        """Along a contour, larger L affords a higher threshold: xi(L, eps)
        increases in L on the decaying branch, so holding xi fixed pushes
        eps up."""
        column = results["fig14"].series["xi=1.4"]
        finite = [v for v in column if np.isfinite(v)]
        assert len(finite) >= 3
        assert finite == sorted(finite)

    def test_fig15_overhead_explodes_small_eps(self, results):
        panel = results["fig15"]
        row = panel.series["L=10"]
        assert row[0] > 10 * row[-1]


class TestTraceFigures:
    def test_fig06_eta_positive_at_low_rate(self, results):
        for pid in ("fig06a", "fig06b"):
            panel = results[pid]
            assert panel.series["eta"][0] > 0.0, pid

    def test_fig06_sampled_below_real_at_low_rate(self, results):
        panel = results["fig06a"]
        assert panel.series["sampled_mean"][0] < panel.series["real_mean"][0]

    def test_fig07_heavy_burst_tail(self, results):
        for pid in ("fig07a", "fig07b"):
            notes = " ".join(results[pid].notes)
            alpha = float(notes.split("alpha = ")[1].split(" ")[0])
            assert 0.8 < alpha < 3.0, pid

    def test_fig08_alphas_near_construction(self, results):
        notes_a = " ".join(results["fig08a"].notes)
        notes_b = " ".join(results["fig08b"].notes)
        alpha_a = float(notes_a.split("alpha = ")[1].split(" ")[0])
        alpha_b = float(notes_b.split("alpha = ")[1].split(" ")[0])
        assert alpha_a == pytest.approx(1.5, abs=0.2)
        assert alpha_b == pytest.approx(1.71, abs=0.2)

    def test_fig12_unbiased_tracks_systematic(self, results):
        panel = results["fig12a"]
        proposed = np.asarray(panel.series["proposed"])
        systematic = np.asarray(panel.series["systematic"])
        # Low-rate cells: nearly identical (few qualified samples).
        assert abs(proposed[0] - systematic[0]) < 0.25 * abs(systematic[0])

    def test_fig18_bss_closer_to_real_at_low_rates(self, results):
        panel = results["fig18"]
        real = panel.series["real_mean"][0]
        # Compare average |error| over the lowest three rates.
        bss_err = np.mean(
            [abs(v - real) for v in panel.series["proposed"][:3]]
        )
        sys_err = np.mean(
            [abs(v - real) for v in panel.series["systematic"][:3]]
        )
        assert bss_err <= sys_err * 1.25

    def test_fig18_overhead_moderate(self, results):
        panel = results["fig18"]
        overheads = panel.series["bss_overhead"]
        assert max(overheads) < 1.0

    def test_fig21_beta_preserved(self, results):
        panel = results["fig21"]
        errs = [
            abs(b - h) for b, h in zip(panel.x_values, panel.series["beta_hat"])
        ]
        assert max(errs) < 0.2

    def test_fig22_same_order_of_magnitude(self, results):
        panel = results["fig22a"]
        ratio = np.asarray(panel.series["proposed"]) / np.maximum(
            np.asarray(panel.series["systematic"]), 1e-12
        )
        assert np.median(ratio) < 10.0


def _cli(*args, env=None):
    """Run ``python -m repro.experiments`` from the repo root."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    root = Path(__file__).resolve().parent.parent
    return subprocess.run(
        [sys.executable, "-m", "repro.experiments", *args],
        capture_output=True, text=True, cwd=root,
        env={**os.environ, "PYTHONPATH": str(root / "src"), **(env or {})},
    )


class TestCLIErrors:
    """A user error exits 2 with one ``error:`` line, not a traceback."""

    def test_malformed_env_knob(self):
        proc = _cli("runtime", env={"REPRO_WORKERS": "abc"})
        assert proc.returncode == 2
        assert proc.stderr.splitlines() == [
            "error: invalid REPRO_WORKERS='abc': expected an int >= 1 "
            "(unset the variable for the serial default)"
        ]

    MALFORMED = {"workers": "8x", "schedule": "bogus", "telemetry": "maybe",
                 "faults": "bogus"}

    @pytest.mark.parametrize("knob", config.KNOBS, ids=lambda k: k.name)
    def test_malformed_knob_fails_run_up_front(self, knob):
        raw = self.MALFORMED[knob.name]
        proc = _cli("run", "fig02", "--scale", "0.05", env={knob.env: raw})
        assert proc.returncode == 2
        assert proc.stdout == ""
        [line] = proc.stderr.splitlines()
        assert line.startswith(f"error: invalid {knob.env}={raw!r}: ")

    def test_explicit_flag_beats_malformed_env(self):
        proc = _cli("run", "fig02", "--scale", "0.05", "--workers", "1",
                    env={"REPRO_WORKERS": "8x"})
        assert proc.returncode == 0, proc.stderr
        assert "[fig02] completed" in proc.stdout

    def test_scale_too_small_for_a_panel(self):
        proc = _cli("run", "all", "--scale", "0.01")
        assert proc.returncode == 2
        assert proc.stderr.splitlines() == [
            "error: panel 'fig05b' has an empty x grid"
        ]
