"""Campaign-level cell scheduler: planner, knob, and byte-identity.

The acceptance property: scheduling the *cell list* across the pool
(``schedule="cells"``) must produce result stores and manifests
byte-identical to the serial ``workers=1`` run — for every built-in
campaign, under ``max_cells`` truncation, out-of-order completion, and
injected cell-worker kills routed through retry and quarantine.
"""

from __future__ import annotations

import json
import multiprocessing

import pytest
from hypothesis import given
from hypothesis import strategies as st

import repro.faults as faults
import repro.obs as obs
import repro.parallel.executor as executor
from repro.errors import ParameterError
from repro.faults import fault_plan
from repro.parallel import (
    SCHEDULE_MODES,
    RetryPolicy,
    default_schedule,
    get_default_schedule,
    resolve_schedule,
    set_default_schedule,
)
from repro.scenarios import (
    CellSchedule,
    SamplerSpec,
    Scenario,
    TrafficSpec,
    available_scenarios,
    cell_cost,
    cell_costs,
    decide_schedule,
    evaluate_cell,
    expand_cells,
    plan_campaign,
    register_scenario,
    run_campaign,
)
from repro.scenarios.registry import _REGISTRY
from repro.scenarios.schedule import ROUND_FACTOR, _cut_rounds, iter_cell_results

SEED = 20260726
BUILTINS = available_scenarios()

#: Two attempts and near-zero backoff: budget exhaustion in well under a
#: second, and the kill-recovery path still gets one retry.
RETRY = RetryPolicy(max_attempts=2, backoff_base=0.01)


@pytest.fixture(autouse=True)
def _clean_session_state(monkeypatch):
    monkeypatch.delenv("REPRO_FAULTS", raising=False)
    monkeypatch.delenv("REPRO_SCHEDULE", raising=False)
    monkeypatch.setattr(faults, "_SESSION_PLAN", None)
    monkeypatch.setattr(executor, "_DEFAULT_SCHEDULE", None)
    faults.reset_shard_counter()
    yield
    faults.reset_shard_counter()


@pytest.fixture()
def mini_registered():
    """Four uniform-cost cells: 2 fGn traffics x 2 samplers."""
    scenario = Scenario(
        name="sched-mini",
        description="fixture",
        traffic=(
            TrafficSpec(model="fgn", n=2048, hurst=0.7),
            TrafficSpec(model="fgn", n=2048, hurst=0.85),
        ),
        samplers=(
            SamplerSpec(kind="systematic", rate=0.05),
            SamplerSpec(kind="stratified", rate=0.05),
        ),
        n_instances=4,
    )
    register_scenario(scenario)
    yield scenario.name
    _REGISTRY.pop(scenario.name, None)


@pytest.fixture()
def skewed_registered():
    """One dominant cell plus three cheap ones (cost ratio ~32:1)."""
    big = Scenario(
        name="sched-big",
        description="fixture",
        traffic=(TrafficSpec(model="fgn", n=16384, hurst=0.8),),
        samplers=(SamplerSpec(kind="systematic", rate=0.05),),
        n_instances=2,
    )
    small = Scenario(
        name="sched-small",
        description="fixture",
        traffic=(TrafficSpec(model="fgn", n=512, hurst=0.8),),
        samplers=(
            SamplerSpec(kind="systematic", rate=0.05),
            SamplerSpec(kind="stratified", rate=0.05),
            SamplerSpec(kind="simple_random", rate=0.05),
        ),
        n_instances=2,
    )
    register_scenario(big)
    register_scenario(small)
    yield ["sched-big", "sched-small"]
    _REGISTRY.pop("sched-big", None)
    _REGISTRY.pop("sched-small", None)


def _run(names, results_dir, **kwargs):
    kwargs.setdefault("workers", 1)
    kwargs.setdefault("campaign", "sched-test")
    return run_campaign(names, seed=SEED, results_dir=results_dir, **kwargs)


def _store_bytes(summary):
    return (summary.store.results_path.read_bytes(),
            summary.store.manifest_path.read_bytes())


# ------------------------------------------------------------ session knob
class TestScheduleKnob:
    def test_env_unset_means_auto(self):
        assert get_default_schedule() == "auto"
        assert resolve_schedule(None) == "auto"

    def test_env_value_is_normalised(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCHEDULE", "  CELLS ")
        monkeypatch.setattr(executor, "_DEFAULT_SCHEDULE", None)
        assert get_default_schedule() == "cells"

    def test_env_empty_means_auto(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCHEDULE", "")
        monkeypatch.setattr(executor, "_DEFAULT_SCHEDULE", None)
        assert get_default_schedule() == "auto"

    def test_malformed_env_names_the_variable(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCHEDULE", "cell")
        monkeypatch.setattr(executor, "_DEFAULT_SCHEDULE", None)
        with pytest.raises(ParameterError, match="REPRO_SCHEDULE"):
            resolve_schedule(None)

    def test_explicit_mode_wins_over_malformed_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCHEDULE", "bogus")
        monkeypatch.setattr(executor, "_DEFAULT_SCHEDULE", None)
        assert resolve_schedule("ensembles") == "ensembles"
        with default_schedule("cells"):
            assert resolve_schedule(None) == "cells"

    def test_invalid_mode_rejected(self):
        with pytest.raises(ParameterError, match="schedule"):
            resolve_schedule("rows")
        with pytest.raises(ParameterError, match="schedule"):
            set_default_schedule("CELLS")  # exact tokens only via the API

    def test_context_restores_previous_mode(self):
        set_default_schedule("ensembles")
        with default_schedule("cells"):
            assert get_default_schedule() == "cells"
        assert get_default_schedule() == "ensembles"

    def test_none_context_is_a_noop(self):
        set_default_schedule("cells")
        with default_schedule(None):
            assert get_default_schedule() == "cells"


# ---------------------------------------------------------------- planner
class TestPlanner:
    def test_cell_cost_tracks_workload_knobs(self, mini_registered,
                                             skewed_registered):
        mini = expand_cells([mini_registered])
        big, small = expand_cells(["sched-big"]), expand_cells(["sched-small"])
        # Trace length dominates; every cost is a positive integer.
        assert cell_cost(big[0]) > cell_cost(small[0])
        assert all(c >= 1 for c in cell_costs(mini + big + small))
        # Floor-normalisation: uniform grids collapse to all-ones.
        assert cell_costs(mini) == [1, 1, 1, 1]
        assert cell_costs([]) == []

    def test_auto_serial_and_thin_grids_stay_on_ensembles(
            self, mini_registered):
        cells = expand_cells([mini_registered])
        assert decide_schedule(None, cells, 1) == "ensembles"
        assert decide_schedule(None, cells, 8) == "ensembles"  # 4 < 8
        assert decide_schedule(None, cells, 4) == "cells"

    def test_auto_giant_cell_guard(self, skewed_registered):
        cells = expand_cells(skewed_registered)
        costs = cell_costs(cells)
        assert max(costs) * 4 > 2 * sum(costs)
        assert decide_schedule(None, cells, 4) == "ensembles"

    def test_explicit_mode_bypasses_the_heuristic(self, mini_registered):
        cells = expand_cells([mini_registered])
        assert decide_schedule("cells", cells, 1) == "cells"
        assert decide_schedule("ensembles", cells, 64) == "ensembles"

    def test_rounds_partition_the_cell_list(self):
        cells = expand_cells(BUILTINS, smoke=True)
        plan = plan_campaign(cells, workers=4, mode="cells")
        assert plan.mode == "cells"
        seen = [i for round_ in plan.rounds for i in round_]
        assert sorted(seen) == list(range(len(cells)))
        expected_rounds = -(-len(cells) // (ROUND_FACTOR * 4))
        assert plan.n_rounds == expected_rounds
        # LPT inside each round: costs never increase along the round.
        for round_ in plan.rounds:
            round_costs = [plan.costs[i] for i in round_]
            assert round_costs == sorted(round_costs, reverse=True)

    def test_uniform_costs_keep_canonical_order(self, mini_registered):
        cells = expand_cells([mini_registered])
        plan = plan_campaign(cells, workers=4, mode="cells")
        # Stable LPT on all-equal costs: shard k is cell k, which is
        # what makes fault-plan shard numbering predictable.
        assert plan.rounds == ((0, 1, 2, 3),)

    def test_ensembles_plan_is_empty(self, mini_registered):
        cells = expand_cells([mini_registered])
        plan = plan_campaign(cells, workers=4, mode="ensembles")
        assert plan.mode == "ensembles"
        assert plan.rounds == ()


@given(
    costs=st.lists(st.integers(min_value=1, max_value=64), min_size=1,
                   max_size=60),
    n_rounds=st.integers(min_value=1, max_value=60),
)
def test_cut_rounds_tile_the_cost_line(costs, n_rounds):
    """Rounds tile the cells contiguously in canonical order, and no round
    exceeds its share of the cost line by more than one cell's cost."""
    n_rounds = min(n_rounds, len(costs))
    rounds = _cut_rounds(costs, n_rounds)
    assert [i for round_ in rounds for i in round_] == list(range(len(costs)))
    assert all(rounds) and len(rounds) <= n_rounds
    ideal = sum(costs) / n_rounds
    for round_ in rounds:
        assert sum(costs[i] for i in round_) <= ideal + max(costs)


# ------------------------------------------------- out-of-order completion
class TestCompletionOrder:
    def test_scrambled_round_yields_in_canonical_order(self, mini_registered):
        cells = expand_cells([mini_registered])
        scrambled = CellSchedule(mode="cells", costs=(1, 1, 1, 1),
                                 rounds=((2, 0, 3, 1),))
        got = list(iter_cell_results(scrambled, cells,
                                     campaign="order-test", seed=SEED))
        assert [cell.key for cell, _ in got] == [c.key for c in cells]
        for cell, outcome in got:
            tag, record = outcome
            assert tag == "ok"
            direct = evaluate_cell(cell, campaign="order-test", seed=SEED)
            assert (json.dumps(record, sort_keys=True)
                    == json.dumps(direct, sort_keys=True))


# ----------------------------------------------------------- byte identity
class TestByteIdentity:
    @pytest.mark.parametrize("name", BUILTINS)
    def test_builtin_smoke_campaigns_match_serial(self, name, tmp_path):
        serial = _run([name], tmp_path / "serial", smoke=True,
                      workers=1, schedule="ensembles", campaign=name)
        cellwise = _run([name], tmp_path / "cells", smoke=True,
                        workers=4, schedule="cells", campaign=name)
        assert cellwise.executed == serial.executed == serial.n_cells
        assert _store_bytes(cellwise) == _store_bytes(serial)

    def test_max_cells_truncates_identically(self, mini_registered, tmp_path):
        serial = _run([mini_registered], tmp_path / "serial",
                      max_cells=3, workers=1, schedule="ensembles")
        cellwise = _run([mini_registered], tmp_path / "cells",
                        max_cells=3, workers=4, schedule="cells")
        assert cellwise.executed == serial.executed == 3
        assert _store_bytes(cellwise) == _store_bytes(serial)
        # The fourth cell still completes on resume, either way.
        resumed = _run([mini_registered], tmp_path / "cells",
                       resume=True, workers=4, schedule="cells")
        finished = _run([mini_registered], tmp_path / "serial",
                        resume=True, workers=1, schedule="ensembles")
        assert resumed.executed == finished.executed == 1
        assert _store_bytes(resumed) == _store_bytes(finished)


# ----------------------------------------------------------- pool lifetime
class TestPoolLifetime:
    def test_cells_campaign_forks_one_pool_and_leaves_none(self, tmp_path):
        """Every scheduler round reuses the campaign's one pool, which is
        closed before ``run_campaign`` returns."""
        with obs.telemetry() as collector:
            summary = _run(None, tmp_path, smoke=True, workers=2,
                           schedule="cells", campaign="lifetime")
        assert summary.executed == summary.n_cells
        assert collector.counters["executor.pool_forks"] == 1
        assert multiprocessing.active_children() == []


# -------------------------------------------------- faults and quarantine
class TestCellFaults:
    def test_killed_cell_quarantines_and_resume_converges(
            self, mini_registered, tmp_path):
        with fault_plan(None):
            reference = _store_bytes(
                _run([mini_registered], tmp_path / "ref")
            )
        # Uniform grid: round shard k is cell k, so shard 0 is cell 0.
        with fault_plan("kill:shard=0:attempt=*"):
            faulty = _run([mini_registered], tmp_path / "run",
                          workers=2, schedule="cells", retry=RETRY)
        assert faulty.quarantined == 1
        assert faulty.executed == faulty.n_cells - 1
        (sidecar,) = faulty.store.quarantined_records()
        assert sidecar["error"]["type"] == "RetryBudgetError"

        with fault_plan(None):
            resumed = _run([mini_registered], tmp_path / "run",
                           workers=2, schedule="cells", resume=True,
                           retry=RETRY)
        assert resumed.executed == 1
        assert resumed.skipped == resumed.n_cells - 1
        assert not resumed.store.quarantine_path.exists()
        assert _store_bytes(resumed) == reference

    def test_absorbed_kill_is_byte_identical(self, mini_registered, tmp_path):
        with fault_plan(None):
            reference = _store_bytes(
                _run([mini_registered], tmp_path / "ref")
            )
        with fault_plan("kill:shard=0"):
            summary = _run([mini_registered], tmp_path / "run",
                           workers=2, schedule="cells", retry=RETRY)
        assert summary.quarantined == 0
        assert summary.executed == summary.n_cells
        assert _store_bytes(summary) == reference


def test_module_state_clean():
    """Last in file: scheduling tests must not leak session state."""
    assert get_default_schedule() in SCHEDULE_MODES
    assert faults.active_plan() is None
