"""Tissue, cell, and population engine behaviour."""

import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dcascan.engine import (
    Antigen,
    DcaEngine,
    DendriticCell,
    EngineConfig,
    TissueCompartment,
    WeightMatrix,
    combine_categories,
    draw_slots,
)
from dcascan.errors import ConfigError, EngineInvariantError
from dcascan.signals import SignalVector


def _vector(pamp1=0.0, pamp2=0.0, ds1=0.0, ds2=0.0, ss1=0.0, ss2=0.0, inflammation=0):
    return SignalVector(pamp1, pamp2, ds1, ds2, ss1, ss2, inflammation)


def _antigen(i, label="proc"):
    return Antigen(pid=1000 + i, label=label, arrival_time=float(i))


# --------------------------------------------------------------------------
# tissue compartment


def test_tissue_store_and_take():
    tissue = TissueCompartment(4)
    a = _antigen(0)
    tissue.store(a)
    assert tissue.occupied_count == 1
    idx = next(i for i, slot in enumerate(tissue.slots) if slot is a)
    assert tissue.take(idx) is a
    assert tissue.occupied_count == 0
    assert tissue.take(idx) is None  # already taken


def test_tissue_overflow_evicts_longest_resident():
    tissue = TissueCompartment(3)
    items = [_antigen(i) for i in range(4)]
    for item in items:
        tissue.store(item)
    remaining = {slot for slot in tissue.slots if slot is not None}
    assert remaining == set(items[1:])  # the first arrival was overwritten
    assert tissue.overwritten_total == 1
    assert tissue.stored_total == 4


def test_tissue_sustained_overflow_behaves_like_ring():
    tissue = TissueCompartment(5)
    items = [_antigen(i) for i in range(23)]
    for item in items:
        tissue.store(item)
    remaining = {slot for slot in tissue.slots if slot is not None}
    assert remaining == set(items[-5:])
    assert tissue.overwritten_total == 18


# --------------------------------------------------------------------------
# signal fusion and cell state


def test_combine_categories_means():
    sv = _vector(pamp1=30, pamp2=50, ds1=10, ds2=20, ss1=0, ss2=100, inflammation=1)
    assert combine_categories(sv) == (40.0, 15.0, 50.0, 1)


def test_update_pamp_and_danger_raise_both_outputs():
    cell = DendriticCell(50, 150.0)
    cell.update_signals(100.0, 50.0, 0.0, 0, WeightMatrix())
    # csm: 2*100 + 1*50, semi: 0, mature: 2*100 + 1*50
    assert cell.csm == 250.0
    assert cell.semi == 0.0
    assert cell.mature == 250.0


def test_update_safe_floors_mature_at_zero():
    cell = DendriticCell(50, 150.0)
    cell.update_signals(0.0, 0.0, 100.0, 0, WeightMatrix())
    assert cell.csm == 200.0
    assert cell.semi == 300.0
    assert cell.mature == 0.0  # 0 - 300 clamped
    cell.update_signals(100.0, 50.0, 0.0, 0, WeightMatrix())
    assert cell.csm == 450.0
    assert cell.semi == 300.0
    assert cell.mature == 250.0
    assert cell.context() == 0  # 250 < 300


def test_update_inflammation_doubles_every_increment():
    calm, inflamed = DendriticCell(50, 150.0), DendriticCell(50, 150.0)
    calm.update_signals(10.0, 20.0, 5.0, 0, WeightMatrix())
    inflamed.update_signals(10.0, 20.0, 5.0, 1, WeightMatrix())
    assert inflamed.csm == 2 * calm.csm
    assert inflamed.semi == 2 * calm.semi
    assert inflamed.mature == 2 * calm.mature


def test_migration_threshold_is_strict():
    cell = DendriticCell(50, 200.0)
    cell.csm = 200.0
    assert not cell.wants_migration
    cell.csm = 200.0 + 1e-9
    assert cell.wants_migration


def test_context_tie_reads_as_normal():
    cell = DendriticCell(50, 150.0)
    cell.semi = cell.mature = 73.5
    assert cell.context() == 0
    cell.mature = 73.5 + 1e-9
    assert cell.context() == 1


def test_present_empty_store_yields_nothing():
    cell = DendriticCell(50, 150.0)
    assert cell.present(now=12.0) == []


def test_present_stamps_context_and_time():
    cell = DendriticCell(50, 150.0)
    cell.antigen_store = [_antigen(0), _antigen(1)]
    cell.mature, cell.semi = 10.0, 2.0
    records = cell.present(now=99.0)
    assert [r.antigen for r in records] == cell.antigen_store
    assert all(r.context == 1 and r.presented_at == 99.0 for r in records)


def test_reset_redraws_threshold_deterministically():
    cell = DendriticCell(50, 123.0)
    cell.csm = cell.semi = cell.mature = 5.0
    cell.antigen_store = [_antigen(0)]
    cell.reset(random.Random(7), 100.0, 300.0)
    assert cell.antigen_store == []
    assert cell.csm == cell.semi == cell.mature == 0.0
    assert cell.migration_threshold == random.Random(7).uniform(100.0, 300.0)
    assert 100.0 <= cell.migration_threshold <= 300.0


def test_reset_degenerate_range_pins_threshold():
    cell = DendriticCell(50, 123.0)
    cell.reset(random.Random(0), 200.0, 200.0)
    assert cell.migration_threshold == 200.0


def test_context_decision_random_states():
    """context() == 1 exactly when mature exceeds semi, over many states."""
    rng = random.Random(42)
    cell = DendriticCell(50, 150.0)
    for _ in range(2000):
        cell.semi = rng.uniform(0, 500)
        cell.mature = cell.semi if rng.random() < 0.2 else rng.uniform(0, 500)
        assert cell.context() == (1 if cell.mature > cell.semi else 0)


# --------------------------------------------------------------------------
# sampling


def test_sampling_full_tissue_moves_exactly_k():
    tissue = TissueCompartment(500)
    for i in range(500):
        tissue.store(_antigen(i))
    cell = DendriticCell(50, 150.0)
    cell.sample(tissue, random.Random(1), 10)
    assert len(cell.antigen_store) == 10
    assert tissue.occupied_count == 490


def test_sampling_stops_at_store_capacity():
    tissue = TissueCompartment(500)
    for i in range(500):
        tissue.store(_antigen(i))
    cell = DendriticCell(50, 150.0)
    cell.antigen_store = [_antigen(1000 + i) for i in range(48)]
    cell.sample(tissue, random.Random(1), 10)
    assert len(cell.antigen_store) == 50
    assert tissue.occupied_count == 498


def _set_threshold(k):
    """Largest n for which CPython's random.sample uses its pool branch (85 at k=10)."""
    return 21 + (4 ** math.ceil(math.log(3 * k, 4)) if k > 5 else 0)


@given(seed=st.integers(0, 2**32), k=st.integers(1, 20), extra=st.integers(1, 2000))
def test_draw_slots_matches_stdlib_set_branch(seed, k, extra):
    n = _set_threshold(k) + extra
    ours, stdlib = random.Random(seed), random.Random(seed)
    assert draw_slots(ours, n, k) == stdlib.sample(range(n), k)
    assert ours.getstate() == stdlib.getstate()


@given(seed=st.integers(0, 2**32), n=st.integers(1, 600), data=st.data())
def test_draw_slots_gives_k_distinct_indices(seed, n, data):
    k = data.draw(st.integers(1, n))
    slots = draw_slots(random.Random(seed), n, k)
    assert len(slots) == len(set(slots)) == k
    assert all(0 <= j < n for j in slots)


def test_full_store_still_makes_every_draw():
    tissue = TissueCompartment(500)
    for i in range(500):
        tissue.store(_antigen(i))
    full, empty = DendriticCell(50, 150.0), DendriticCell(50, 150.0)
    full.antigen_store = [_antigen(1000 + i) for i in range(50)]
    full_rng, empty_rng = random.Random(3), random.Random(3)
    full.sample(tissue, full_rng, 10)
    empty.sample(tissue, empty_rng, 10)
    assert len(full.antigen_store) == 50
    assert len(empty.antigen_store) == 10
    assert full_rng.getstate() == empty_rng.getstate()


def test_tick_matches_cell_methods():
    """The inlined tick equals sample-then-update on each cell in turn."""
    config = EngineConfig(tissue_capacity=200, cell_store_capacity=5, seed=4)
    engine = DcaEngine(config)
    tissue = TissueCompartment(config.tissue_capacity)
    rng = random.Random(config.seed)
    cells = [DendriticCell(config.cell_store_capacity,
                           rng.uniform(config.threshold_min, config.threshold_max))
             for _ in range(config.population_size)]
    stimulus = random.Random(8)
    presented = 0
    for t in range(40):
        sv = _vector(pamp1=stimulus.uniform(0, 100), ss1=stimulus.uniform(0, 100),
                     inflammation=stimulus.randint(0, 1))
        arrivals = [_antigen(250 * t + j) for j in range(250)]  # overflows the tissue
        records = engine.tick(sv, arrivals, float(t))
        expected = []
        for antigen in arrivals:
            tissue.store(antigen)
        for cell in cells:
            cell.sample(tissue, rng, config.antigens_per_update)
            cell.update_signals(*combine_categories(sv), config.weights)
        for cell in cells:
            if cell.wants_migration:
                expected += cell.present(float(t))
                cell.reset(rng, config.threshold_min, config.threshold_max)
        assert records == expected
        presented += len(records)
        assert tissue.slots == engine.tissue.slots
        assert [(c.csm, c.semi, c.mature) for c in cells] == \
            [(c.csm, c.semi, c.mature) for c in engine.cells]
    assert presented > 0
    assert engine.tissue.overwritten_total == tissue.overwritten_total > 0


def test_sampling_empty_tissue_is_a_noop():
    tissue = TissueCompartment(500)
    cell = DendriticCell(50, 150.0)
    cell.sample(tissue, random.Random(1), 10)
    assert cell.antigen_store == []


# --------------------------------------------------------------------------
# configuration validation


@pytest.mark.parametrize(
    "kwargs",
    [
        {"population_size": 0},
        {"tissue_capacity": 0},
        {"antigens_per_update": 0},
        {"antigens_per_update": 501},
        {"cell_store_capacity": 0},
        {"threshold_min": 0.0},
        {"threshold_min": 300.0, "threshold_max": 100.0},
    ],
)
def test_engine_config_rejects_bad_values(kwargs):
    with pytest.raises(ConfigError):
        EngineConfig(**kwargs)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"csm_pamp": -1.0},
        {"mature_safe": 0.0},
        {"mature_safe": 1.0},
        {"inflammation_base": 0.0},
    ],
)
def test_weight_matrix_rejects_bad_values(kwargs):
    with pytest.raises(ConfigError):
        WeightMatrix(**kwargs)


# --------------------------------------------------------------------------
# whole-engine behaviour


def test_zero_signals_never_present():
    engine = DcaEngine(EngineConfig(seed=3))
    total = []
    for t in range(200):
        total += engine.tick(_vector(), [_antigen(t)], float(t))
    assert total == []
    counts = engine.audit()
    assert counts["presented"] == 0
    assert counts["balanced"] == 1
    assert counts["in_tissue"] + counts["in_cells"] == 200


def test_safe_only_engine_presents_all_normal():
    engine = DcaEngine(EngineConfig(seed=5))
    records = []
    for t in range(60):
        antigens = [_antigen(10 * t + j) for j in range(10)]
        records += engine.tick(_vector(ss1=100, ss2=100), antigens, float(t))
    assert records  # csm grows 200/tick, thresholds top out at 300
    assert all(r.context == 0 for r in records)


def test_pamp_only_engine_presents_all_anomalous():
    engine = DcaEngine(EngineConfig(seed=5))
    records = []
    for t in range(60):
        antigens = [_antigen(10 * t + j) for j in range(10)]
        records += engine.tick(_vector(pamp1=100, pamp2=100), antigens, float(t))
    assert records
    assert all(r.context == 1 for r in records)


def test_tick_overflow_keeps_audit_balanced():
    engine = DcaEngine(EngineConfig(tissue_capacity=5, antigens_per_update=2, seed=1))
    engine.tick(_vector(), [_antigen(i) for i in range(12)], 0.0)
    counts = engine.audit()
    assert counts["balanced"] == 1
    assert counts["ingested"] == 12
    assert counts["in_tissue"] + counts["in_cells"] <= 12
    assert counts["overwritten"] >= 12 - 5 - 100 * 2  # at least the pre-sampling spill


def test_conservation_holds_under_random_stimulus():
    rng = random.Random(99)
    engine = DcaEngine(EngineConfig(seed=7))
    serial = 0
    for t in range(300):
        sv = _vector(
            pamp1=rng.uniform(0, 100),
            pamp2=rng.uniform(0, 100),
            ds1=rng.uniform(0, 100),
            ds2=rng.uniform(0, 100),
            ss1=rng.uniform(0, 100),
            ss2=rng.uniform(0, 100),
            inflammation=rng.randint(0, 1),
        )
        antigens = [_antigen(serial + j) for j in range(rng.randint(0, 40))]
        serial += len(antigens)
        engine.tick(sv, antigens, float(t))
        engine.check_conservation()
    counts = engine.audit()
    assert counts["ingested"] == serial
    assert (
        counts["ingested"]
        == counts["in_tissue"] + counts["in_cells"] + counts["presented"] + counts["overwritten"]
    )


def test_conservation_error_reports_counts():
    engine = DcaEngine(EngineConfig(seed=0))
    engine.tick(_vector(), [_antigen(0)], 0.0)
    engine.presented_total += 1  # corrupt the books
    with pytest.raises(EngineInvariantError, match="conservation"):
        engine.check_conservation()


def test_population_size_is_constant():
    engine = DcaEngine(EngineConfig(seed=2))
    assert len(engine.cells) == 100
    for t in range(80):
        engine.tick(_vector(pamp1=100, pamp2=100), [_antigen(t)], float(t))
    assert len(engine.cells) == 100
    for cell in engine.cells:
        assert 100.0 <= cell.migration_threshold <= 300.0


def test_csm_never_decreases_within_a_lifetime():
    rng = random.Random(11)
    engine = DcaEngine(EngineConfig(seed=13))
    for t in range(150):
        before = [cell.csm for cell in engine.cells]
        sv = _vector(
            pamp1=rng.uniform(0, 100),
            ds1=rng.uniform(0, 100),
            ss1=rng.uniform(0, 100),
        )
        engine.tick(sv, [_antigen(t)], float(t))
        for old, cell in zip(before, engine.cells):
            # a drop in cumulative stimulation is only possible via recycling
            assert cell.csm >= old or cell.csm == 0.0


def test_same_seed_same_presentations():
    def drive(engine):
        rng = random.Random(21)
        out = []
        for t in range(120):
            sv = _vector(pamp1=rng.uniform(0, 100), ss2=rng.uniform(0, 100))
            antigens = [_antigen(7 * t + j) for j in range(7)]
            out += engine.tick(sv, antigens, float(t))
        return out

    first = drive(DcaEngine(EngineConfig(seed=17)))
    second = drive(DcaEngine(EngineConfig(seed=17)))
    third = drive(DcaEngine(EngineConfig(seed=18)))
    assert first == second
    assert first != third
