"""Tissue, cell, and population engine behaviour."""

import io
import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dcascan.analysis import write_presentations
from dcascan.engine import (
    DcaEngine,
    DendriticCell,
    EngineConfig,
    TissueCompartment,
    WeightMatrix,
    increments,
)
from dcascan.errors import ConfigError, EngineInvariantError
from dcascan.events import (
    FrameStream,
    ProcessEvent,
    TickBucket,
    iter_buckets,
    serialize_stream,
    write_frames,
)
from dcascan.scenario import gen_dataset
from dcascan.signals import SignalVector
from reference import ReferenceCell, ReferenceTissue, collect_run, draw_slots


def _vector(pamp1=0.0, pamp2=0.0, ds1=0.0, ds2=0.0, ss1=0.0, ss2=0.0, inflammation=0):
    return SignalVector(pamp1, pamp2, ds1, ds2, ss1, ss2, inflammation)


def _antigen(i, label="proc"):
    return ProcessEvent(float(i), 1000 + i, label, "syscall")


# --------------------------------------------------------------------------
# tissue compartment


def test_tissue_store_and_take():
    tissue = ReferenceTissue(4)
    a = _antigen(0)
    tissue.store_all((a,))
    assert tissue.occupied_count == 1
    [(idx, resident)] = tissue._residents.items()
    assert resident is a
    assert tissue.take(idx) is a
    assert tissue.occupied_count == 0
    assert tissue.take(idx) is None  # already taken


def test_tissue_overflow_evicts_longest_resident():
    tissue = TissueCompartment(3)
    items = [_antigen(i) for i in range(4)]
    tissue.store_all(items)
    assert list(tissue._residents.values()) == items[1:]  # the first arrival was overwritten
    assert tissue.overwritten_total == 1
    assert tissue.stored_total == 4


def test_tissue_sustained_overflow_behaves_like_ring():
    tissue = TissueCompartment(5)
    items = [_antigen(i) for i in range(23)]
    tissue.store_all(items)
    assert list(tissue._residents.values()) == items[-5:]  # oldest first
    assert tissue.overwritten_total == 18


@given(capacity=st.integers(1, 40), data=st.data())
def test_store_all_equals_storing_one_at_a_time(capacity, data):
    """A batch, whole laps skipped, leaves what one arrival at a time leaves."""
    prefill = data.draw(st.integers(0, 2 * capacity), label="prefill")
    taken = data.draw(st.lists(st.integers(0, capacity - 1), max_size=capacity), label="taken")
    size = data.draw(st.integers(0, 6 * capacity), label="size")  # past 5 laps of a full tissue
    as_tuple = data.draw(st.booleans(), label="as_tuple")
    batched, single = ReferenceTissue(capacity), ReferenceTissue(capacity)
    for tissue in (batched, single):
        for i in range(prefill):
            tissue.store_all((_antigen(-1 - i),))
        for idx in taken:
            tissue.take(idx)
    arrivals = [_antigen(i) for i in range(size)]
    batched.store_all(tuple(arrivals) if as_tuple else arrivals)
    for antigen in arrivals:
        single.store_all([antigen])
    assert list(batched._residents.items()) == list(single._residents.items())
    assert batched._free == single._free
    assert (batched.stored_total, batched.overwritten_total) == \
        (single.stored_total, single.overwritten_total)


@given(capacity=st.integers(1, 12), data=st.data())
def test_every_slot_is_free_or_resident_after_every_tick(capacity, data):
    """Ticks store, overwrite and take antigen; each slot stays either on the
    free stack, once, or a key of the resident map."""
    config = EngineConfig(population_size=data.draw(st.integers(1, 6), label="cells"),
                          tissue_capacity=capacity,
                          antigens_per_update=data.draw(st.integers(1, capacity), label="draws"),
                          cell_store_capacity=data.draw(st.integers(1, 4), label="store"))
    engine = DcaEngine(config, seed=data.draw(st.integers(0, 2**32), label="seed"))
    tissue = engine.tissue
    stimulus = random.Random(data.draw(st.integers(0, 2**32), label="stimulus"))
    arrivals = data.draw(st.lists(st.integers(0, 3 * capacity), min_size=1, max_size=25),
                         label="arrivals")
    for t, count in enumerate(arrivals):
        sv = _vector(*(stimulus.uniform(0, 100) for _ in range(6)),
                     inflammation=stimulus.randint(0, 1))
        engine.tick(sv, [_antigen(100 * t + j) for j in range(count)])
        free, resident = set(tissue._free), set(tissue._residents)
        assert len(free) == len(tissue._free)
        assert not free & resident
        assert free | resident == set(range(capacity))
        assert tissue.occupied_count == len(tissue._residents)
    engine.check_conservation()


# --------------------------------------------------------------------------
# signal fusion and cell state


def test_increments_average_each_signal_pair():
    sv = _vector(pamp1=30, pamp2=50, ds1=10, ds2=20, ss1=0, ss2=100, inflammation=1)
    means = _vector(pamp1=40, pamp2=40, ds1=15, ds2=15, ss1=50, ss2=50, inflammation=1)
    # pamp 40, danger 15, safe 50, each doubled by the inflammation
    expected = (390.0, 300.0, -110.0)
    assert increments(sv, WeightMatrix()) == increments(means, WeightMatrix()) == expected


def test_update_pamp_and_danger_raise_both_outputs():
    cell = ReferenceCell(50, 150.0)
    cell.update_signals(_vector(pamp1=100, pamp2=100, ds1=50, ds2=50), WeightMatrix())
    # csm: 2*100 + 1*50, semi: 0, mature: 2*100 + 1*50
    assert cell.csm == 250.0
    assert cell.semi == 0.0
    assert cell.mature == 250.0


def test_update_safe_floors_mature_at_zero():
    cell = ReferenceCell(50, 150.0)
    cell.update_signals(_vector(ss1=100, ss2=100), WeightMatrix())
    assert cell.csm == 200.0
    assert cell.semi == 300.0
    assert cell.mature == 0.0  # 0 - 300 clamped
    cell.update_signals(_vector(pamp1=100, pamp2=100, ds1=50, ds2=50), WeightMatrix())
    assert cell.csm == 450.0
    assert cell.semi == 300.0
    assert cell.mature == 250.0
    assert cell.context() == 0  # 250 < 300


def test_update_inflammation_doubles_every_increment():
    calm, inflamed = ReferenceCell(50, 150.0), ReferenceCell(50, 150.0)
    calm.update_signals(_vector(10, 10, 20, 20, 5, 5, 0), WeightMatrix())
    inflamed.update_signals(_vector(10, 10, 20, 20, 5, 5, 1), WeightMatrix())
    assert inflamed.csm == 2 * calm.csm
    assert inflamed.semi == 2 * calm.semi
    assert inflamed.mature == 2 * calm.mature


def test_migration_threshold_is_strict():
    cell = ReferenceCell(50, 200.0)
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


def _migrating_cell_engine(store):
    """A one-cell engine whose cell migrates on the next tick, holding ``store``."""
    engine = DcaEngine(EngineConfig(population_size=1), seed=0)
    cell = engine.cells[0]
    cell.antigen_store = list(store)
    cell.csm, cell.migration_threshold = 1.0, 0.0
    return engine, cell


def test_tick_migrating_empty_store_presents_nothing():
    engine, cell = _migrating_cell_engine([])
    assert engine.tick(_vector(), []) == []
    assert cell.csm == 0.0 and cell.migration_threshold >= 100.0  # it did migrate


def test_tick_presents_the_store_in_order_with_its_context():
    store = [_antigen(0), _antigen(1)]
    engine, cell = _migrating_cell_engine(store)
    cell.mature, cell.semi = 10.0, 2.0
    records = engine.tick(_vector(), [])
    assert [antigen for antigen, _ in records] == store
    assert all(context == 1 for _, context in records)
    rows = []
    write_presentations(records, 99, rows.extend)  # the log stamps the tick's second
    assert rows == [[99, 1000, "proc", 1], [99, 1001, "proc", 1]]


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
    tissue = ReferenceTissue(500)
    tissue.store_all([_antigen(i) for i in range(500)])
    cell = ReferenceCell(50, 150.0)
    cell.sample(tissue, random.Random(1), 10)
    assert len(cell.antigen_store) == 10
    assert tissue.occupied_count == 490


def test_sampling_stops_at_store_capacity():
    tissue = ReferenceTissue(500)
    tissue.store_all([_antigen(i) for i in range(500)])
    cell = ReferenceCell(50, 150.0)
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
    tissue = ReferenceTissue(500)
    tissue.store_all([_antigen(i) for i in range(500)])
    full, empty = ReferenceCell(50, 150.0), ReferenceCell(50, 150.0)
    full.antigen_store = [_antigen(1000 + i) for i in range(50)]
    full_rng, empty_rng = random.Random(3), random.Random(3)
    full.sample(tissue, full_rng, 10)
    empty.sample(tissue, empty_rng, 10)
    assert len(full.antigen_store) == 50
    assert len(empty.antigen_store) == 10
    assert full_rng.getstate() == empty_rng.getstate()


@pytest.mark.parametrize("per_tick", [250, 1000])  # 1000 laps the 200-slot tissue
def test_tick_matches_cell_methods(per_tick):
    """The inlined tick equals sample-then-update on each cell in turn."""
    config = EngineConfig(tissue_capacity=200, cell_store_capacity=5)
    engine = DcaEngine(config, seed=4)
    tissue = ReferenceTissue(config.tissue_capacity)
    rng = random.Random(4)
    cells = [ReferenceCell(config.cell_store_capacity,
                           rng.uniform(config.threshold_min, config.threshold_max))
             for _ in range(config.population_size)]
    stimulus = random.Random(8)
    presented = 0
    for t in range(40):
        sv = _vector(pamp1=stimulus.uniform(0, 100), ss1=stimulus.uniform(0, 100),
                     inflammation=stimulus.randint(0, 1))
        arrivals = [_antigen(per_tick * t + j) for j in range(per_tick)]  # overflows the tissue
        records = engine.tick(sv, arrivals)
        expected = []
        for antigen in arrivals:
            tissue.store_all((antigen,))
        for cell in cells:
            cell.sample(tissue, rng, config.antigens_per_update)
            cell.update_signals(sv, config.weights)
        for cell in cells:
            if cell.wants_migration:
                expected += cell.present()
                cell.reset(rng, config.threshold_min, config.threshold_max)
        assert records == expected
        presented += len(records)
        assert list(tissue._residents.items()) == list(engine.tissue._residents.items())
        assert tissue._free == engine.tissue._free
        assert [(c.csm, c.semi, c.mature) for c in cells] == \
            [(c.csm, c.semi, c.mature) for c in engine.cells]
        assert engine.rng.getstate() == rng.getstate()
    assert presented > 0
    assert engine.tissue.overwritten_total == tissue.overwritten_total > 0


def test_sampling_empty_tissue_is_a_noop():
    tissue = ReferenceTissue(500)
    cell = ReferenceCell(50, 150.0)
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
    engine = DcaEngine(seed=3)
    total = []
    for t in range(200):
        total += engine.tick(_vector(), [_antigen(t)])
    assert total == []
    counts = engine.audit()
    assert counts["presented"] == 0
    assert counts["balanced"] == 1
    assert counts["in_tissue"] + counts["in_cells"] == 200


def test_safe_only_engine_presents_all_normal():
    engine = DcaEngine(seed=5)
    records = []
    for t in range(60):
        antigens = [_antigen(10 * t + j) for j in range(10)]
        records += engine.tick(_vector(ss1=100, ss2=100), antigens)
    assert records  # csm grows 200/tick, thresholds top out at 300
    assert all(context == 0 for _, context in records)


def test_pamp_only_engine_presents_all_anomalous():
    engine = DcaEngine(seed=5)
    records = []
    for t in range(60):
        antigens = [_antigen(10 * t + j) for j in range(10)]
        records += engine.tick(_vector(pamp1=100, pamp2=100), antigens)
    assert records
    assert all(context == 1 for _, context in records)


def test_tick_overflow_keeps_audit_balanced():
    engine = DcaEngine(EngineConfig(tissue_capacity=5, antigens_per_update=2), seed=1)
    engine.tick(_vector(), [_antigen(i) for i in range(12)])
    counts = engine.audit()
    assert counts["balanced"] == 1
    assert counts["ingested"] == 12
    assert counts["in_tissue"] + counts["in_cells"] <= 12
    assert counts["overwritten"] >= 12 - 5 - 100 * 2  # at least the pre-sampling spill


def test_conservation_holds_under_random_stimulus():
    rng = random.Random(99)
    engine = DcaEngine(seed=7)
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
        engine.tick(sv, antigens)
        engine.check_conservation()
    counts = engine.audit()
    assert counts["ingested"] == serial
    assert (
        counts["ingested"]
        == counts["in_tissue"] + counts["in_cells"] + counts["presented"] + counts["overwritten"]
    )


def test_conservation_error_reports_counts():
    engine = DcaEngine(seed=0)
    engine.tick(_vector(), [_antigen(0)])
    engine.presented_total += 1  # corrupt the books
    with pytest.raises(EngineInvariantError, match="conservation"):
        engine.check_conservation()


def test_run_stream_checks_conservation_on_every_tick(monkeypatch):
    real_tick = DcaEngine.tick

    def leaky_tick(self, *args):
        records = real_tick(self, *args)
        self.presented_total += 1  # corrupt the books
        return records

    monkeypatch.setattr(DcaEngine, "tick", leaky_tick)
    handed_out = []

    def buckets():
        for second in range(5):
            handed_out.append(second)
            yield TickBucket(second)

    with pytest.raises(EngineInvariantError, match="conservation"):
        collect_run(buckets())
    assert handed_out == [0]


def test_population_size_is_constant():
    engine = DcaEngine(seed=2)
    assert len(engine.cells) == 100
    for t in range(80):
        engine.tick(_vector(pamp1=100, pamp2=100), [_antigen(t)])
    assert len(engine.cells) == 100
    for cell in engine.cells:
        assert 100.0 <= cell.migration_threshold <= 300.0


def test_csm_never_decreases_within_a_lifetime():
    rng = random.Random(11)
    engine = DcaEngine(seed=13)
    for t in range(150):
        before = [cell.csm for cell in engine.cells]
        sv = _vector(
            pamp1=rng.uniform(0, 100),
            ds1=rng.uniform(0, 100),
            ss1=rng.uniform(0, 100),
        )
        engine.tick(sv, [_antigen(t)])
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
            out += engine.tick(sv, antigens)
        return out

    first = drive(DcaEngine(seed=17))
    second = drive(DcaEngine(seed=17))
    third = drive(DcaEngine(seed=18))
    assert first == second
    assert first != third


# --------------------------------------------------------------------------
# replay


def test_presented_antigens_are_the_parsed_syscall_events():
    text = serialize_stream(gen_dataset("passive-normal", 300, 7))
    syscalls = []

    def noting_syscalls(buckets):
        for bucket in buckets:
            syscalls.extend(ev for ev in bucket.process_events if ev.kind == "syscall")
            yield bucket

    frames = FrameStream(write_frames(io.StringIO(text)).__next__)
    _, records, _ = collect_run(noting_syscalls(iter_buckets(frames)))
    parsed = {id(ev) for ev in syscalls}
    assert records
    assert all(id(antigen) in parsed for _, antigen, _ in records)


def _context_rule_agreement(kind, config):
    """The records of the 500 s golden session of ``kind`` (seed 7) and the
    share of them whose context is ``d_mature > d_semi`` of the second they
    were presented in."""
    _, records, trace = collect_run(iter_buckets(gen_dataset(kind, 500, 7)), config, seed=7)
    mature = {}
    for second, signals in trace:
        _, d_semi, d_mature = increments(signals, config.weights)
        mature[second] = d_mature > d_semi
    agree = sum(context == mature[second] for second, _, context in records)
    return len(records), agree / len(records)


@pytest.mark.parametrize("kind, records", [("passive-normal", 10_089), ("active-normal", 10_196)])
def test_context_is_the_sign_of_the_presentation_seconds_increments(kind, records):
    # At the default lifespans a cell lives about 1.4 ticks, so the last
    # second's increments decide its context.
    assert _context_rule_agreement(kind, EngineConfig()) == (records, 1.0)


@pytest.mark.parametrize("kind, agreement", [("passive-normal", 0.660), ("active-normal", 0.573)])
def test_context_rule_fails_at_three_times_the_lifespans(kind, agreement):
    # A rule of a regime, not an identity: cells that live longer sum many seconds.
    config = EngineConfig(threshold_min=300.0, threshold_max=900.0)
    assert round(_context_rule_agreement(kind, config)[1], 3) == agreement
