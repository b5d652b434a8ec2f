"""Dendritic cell population engine.

A tissue compartment buffers suspect items (antigen).  A fixed population
of cells samples the tissue every tick, fuses the signal vector into three
cumulative outputs and, once sufficiently stimulated, migrates: every
stored antigen is presented with a binary context and the cell is
recycled.
"""

from __future__ import annotations

import random
from collections import OrderedDict
from collections.abc import Sequence
from dataclasses import dataclass, field

from .errors import ConfigError, EngineInvariantError
from .signals import SignalVector


@dataclass(frozen=True, slots=True)
class Antigen:
    """A suspect item: one system call attributed to a process."""

    pid: int
    label: str
    arrival_time: float


@dataclass(frozen=True, slots=True)
class PresentationRecord:
    """One antigen presented by a migrating cell.

    context is 1 when the cell matured (anomalous surroundings), else 0.
    """

    antigen: Antigen
    context: int
    presented_at: float


@dataclass(frozen=True)
class WeightMatrix:
    """Per-category weights of the three output increments.

    The safe category suppresses the mature output, so its mature weight
    must be negative; csm weights stay non-negative so stimulation can
    only accumulate within a cell lifetime.
    """

    csm_pamp: float = 2.0
    csm_danger: float = 1.0
    csm_safe: float = 2.0
    semi_pamp: float = 0.0
    semi_danger: float = 0.0
    semi_safe: float = 3.0
    mature_pamp: float = 2.0
    mature_danger: float = 1.0
    mature_safe: float = -3.0
    inflammation_base: float = 1.0

    def __post_init__(self):
        if min(self.csm_pamp, self.csm_danger, self.csm_safe) < 0:
            raise ConfigError("csm weights must be non-negative")
        if self.mature_safe >= 0:
            raise ConfigError("safe weight on the mature output must be negative")
        if self.inflammation_base <= 0:
            raise ConfigError("inflammation base must be positive")


def draw_slots(rng: random.Random, n: int, k: int) -> list[int]:
    """Draw k distinct slot indices in [0, n), in draw order.

    Each draw is ``getrandbits(n.bit_length())``; draws ``>= n`` and
    repeats are rejected.  For n above CPython's set threshold (85 when
    k=10) this consumes the RNG exactly as ``rng.sample(range(n), k)``
    does and returns the same list, so the engine owns its sampler without
    changing the outputs of the default 500-slot tissue.
    """
    getrandbits = rng.getrandbits
    bits = n.bit_length()
    picked: list[int] = []
    seen: set[int] = set()
    for _ in range(k):
        j = getrandbits(bits)
        while j >= n or j in seen:
            j = getrandbits(bits)
        seen.add(j)
        picked.append(j)
    return picked


def increments(pamp: float, danger: float, safe: float, inflammation: int,
               weights: WeightMatrix) -> tuple[float, float, float]:
    """The (csm, semi, mature) increments one tick adds to every cell."""
    factor = weights.inflammation_base + inflammation
    return (
        factor * (weights.csm_pamp * pamp + weights.csm_danger * danger + weights.csm_safe * safe),
        factor * (weights.semi_pamp * pamp + weights.semi_danger * danger + weights.semi_safe * safe),
        factor * (weights.mature_pamp * pamp + weights.mature_danger * danger
                  + weights.mature_safe * safe),
    )


def combine_categories(signals: SignalVector) -> tuple[float, float, float, int]:
    """Collapse the seven signals into (pamp, danger, safe, inflammation)."""
    return (
        (signals.pamp1 + signals.pamp2) / 2.0,
        (signals.ds1 + signals.ds2) / 2.0,
        (signals.ss1 + signals.ss2) / 2.0,
        signals.inflammation,
    )


@dataclass(frozen=True)
class EngineConfig:
    population_size: int = 100
    tissue_capacity: int = 500
    antigens_per_update: int = 10
    cell_store_capacity: int = 50
    threshold_min: float = 100.0
    threshold_max: float = 300.0
    weights: WeightMatrix = field(default_factory=WeightMatrix)
    seed: int = 0

    def __post_init__(self):
        if self.population_size <= 0 or self.tissue_capacity <= 0:
            raise ConfigError("population and tissue capacity must be positive")
        if self.antigens_per_update <= 0 or self.antigens_per_update > self.tissue_capacity:
            raise ConfigError("antigens_per_update must be in [1, tissue_capacity]")
        if self.cell_store_capacity <= 0:
            raise ConfigError("cell store capacity must be positive")
        if self.threshold_min <= 0:
            raise ConfigError("migration thresholds must be positive")
        if self.threshold_min > self.threshold_max:
            raise ConfigError("threshold range is inverted")


class TissueCompartment:
    """Fixed-size antigen buffer.

    When full, a new arrival overwrites the longest-resident antigen, so
    the buffer behaves like a ring under sustained overflow.
    """

    def __init__(self, capacity: int):
        self.capacity = capacity
        self.slots: list[Antigen | None] = [None] * capacity
        self._free = list(range(capacity - 1, -1, -1))
        self._residents: OrderedDict[int, None] = OrderedDict()
        self.stored_total = 0
        self.overwritten_total = 0

    @property
    def occupied_count(self) -> int:
        return len(self._residents)

    def store(self, antigen: Antigen) -> None:
        self.store_all((antigen,))

    def store_all(self, antigens: Sequence[Antigen]) -> None:
        """Store arrivals in order, each overwriting the oldest when full."""
        slots, free, residents = self.slots, self._free, self._residents
        overwritten = 0
        for antigen in antigens:
            if free:
                idx = free.pop()
            else:
                idx, _ = residents.popitem(last=False)
                overwritten += 1
            slots[idx] = antigen
            residents[idx] = None
        self.overwritten_total += overwritten
        self.stored_total += len(antigens)

    def take(self, idx: int) -> Antigen | None:
        antigen = self.slots[idx]
        if antigen is not None:
            self.slots[idx] = None
            del self._residents[idx]
            self._free.append(idx)
        return antigen


class DendriticCell:
    """One sampling cell with its cumulative outputs and antigen store."""

    __slots__ = ("store_capacity", "migration_threshold", "antigen_store", "csm", "semi", "mature")

    def __init__(self, store_capacity: int, migration_threshold: float):
        self.store_capacity = store_capacity
        self.migration_threshold = migration_threshold
        self.antigen_store: list[Antigen] = []
        self.csm = 0.0
        self.semi = 0.0
        self.mature = 0.0

    def sample(self, tissue: TissueCompartment, rng: random.Random, k: int) -> None:
        """Draw k distinct slots; move found antigen in while room remains.

        All k draws are made even once the store is full, so the RNG
        stream does not depend on store occupancy.
        """
        for idx in draw_slots(rng, tissue.capacity, k):
            if len(self.antigen_store) < self.store_capacity:
                antigen = tissue.take(idx)
                if antigen is not None:
                    self.antigen_store.append(antigen)

    def update_signals(self, pamp: float, danger: float, safe: float,
                       inflammation: int, weights: WeightMatrix) -> None:
        d_csm, d_semi, d_mature = increments(pamp, danger, safe, inflammation, weights)
        self.csm = max(0.0, self.csm + d_csm)
        self.semi = max(0.0, self.semi + d_semi)
        self.mature = max(0.0, self.mature + d_mature)

    @property
    def wants_migration(self) -> bool:
        return self.csm > self.migration_threshold

    def context(self) -> int:
        return 1 if self.mature > self.semi else 0

    def present(self, now: float) -> list[PresentationRecord]:
        ctx = self.context()
        return [PresentationRecord(antigen, ctx, now) for antigen in self.antigen_store]

    def reset(self, rng: random.Random, threshold_min: float, threshold_max: float) -> None:
        self.antigen_store = []
        self.csm = self.semi = self.mature = 0.0
        self.migration_threshold = rng.uniform(threshold_min, threshold_max)


class DcaEngine:
    """Deterministic driver of the tissue and the cell population."""

    def __init__(self, config: EngineConfig | None = None):
        self.config = config or EngineConfig()
        self.rng = random.Random(self.config.seed)
        self.tissue = TissueCompartment(self.config.tissue_capacity)
        self.cells = [
            DendriticCell(
                self.config.cell_store_capacity,
                self.rng.uniform(self.config.threshold_min, self.config.threshold_max),
            )
            for _ in range(self.config.population_size)
        ]
        self.presented_total = 0
        self.ticks_run = 0

    def tick(self, signals: SignalVector, antigens: list[Antigen], now: float) -> list[PresentationRecord]:
        """Advance one virtual second and return any presentations.

        Order is fixed: new antigen enters the tissue, every cell samples
        then updates in population order, and finally stimulated cells
        present and are recycled.  The per-cell work is ``draw_slots``,
        ``DendriticCell.sample`` and ``update_signals`` inlined, with the
        same draws and arithmetic; the output increments are the same for
        every cell, so they are computed once.
        """
        tissue = self.tissue
        tissue.store_all(antigens)
        pamp, danger, safe, inflammation = combine_categories(signals)
        d_csm, d_semi, d_mature = increments(pamp, danger, safe, inflammation, self.config.weights)
        rng = self.rng
        n = tissue.capacity
        getrandbits = rng.getrandbits
        bits = n.bit_length()
        draws = range(self.config.antigens_per_update)
        slots, residents, free = tissue.slots, tissue._residents, tissue._free
        migrating = []
        for cell in self.cells:
            store = cell.antigen_store
            room = cell.store_capacity - len(store)
            seen = set()
            for _ in draws:
                j = getrandbits(bits)
                while j >= n or j in seen:
                    j = getrandbits(bits)
                seen.add(j)
                if room > 0:
                    antigen = slots[j]
                    if antigen is not None:
                        slots[j] = None
                        del residents[j]
                        free.append(j)
                        store.append(antigen)
                        room -= 1
            csm = cell.csm + d_csm
            cell.csm = csm = csm if csm > 0.0 else 0.0
            semi = cell.semi + d_semi
            cell.semi = semi if semi > 0.0 else 0.0
            mature = cell.mature + d_mature
            cell.mature = mature if mature > 0.0 else 0.0
            if csm > cell.migration_threshold:
                migrating.append(cell)
        records: list[PresentationRecord] = []
        for cell in migrating:
            records.extend(cell.present(now))
            cell.reset(rng, self.config.threshold_min, self.config.threshold_max)
        self.presented_total += len(records)
        self.ticks_run += 1
        return records

    def audit(self) -> dict[str, int]:
        """Antigen bookkeeping; every ingested antigen must be accounted for."""
        in_cells = sum(len(cell.antigen_store) for cell in self.cells)
        counts = {
            "ingested": self.tissue.stored_total,
            "in_tissue": self.tissue.occupied_count,
            "in_cells": in_cells,
            "presented": self.presented_total,
            "overwritten": self.tissue.overwritten_total,
        }
        counts["balanced"] = int(
            counts["ingested"]
            == counts["in_tissue"] + counts["in_cells"] + counts["presented"] + counts["overwritten"]
        )
        return counts

    def check_conservation(self) -> None:
        counts = self.audit()
        if not counts["balanced"]:
            raise EngineInvariantError(f"antigen conservation broken: {counts}")
