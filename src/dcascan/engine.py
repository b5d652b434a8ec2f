"""Dendritic cell population engine.

A tissue compartment buffers suspect items (antigen): each is a syscall
``events.ProcessEvent``, stored and presented as parsed.  A fixed population
of cells samples the tissue every tick, fuses the signal vector into three
cumulative outputs and, once sufficiently stimulated, migrates: every stored
antigen is presented with a binary context and the cell is recycled.
"""

from __future__ import annotations

import math
import random
from collections import OrderedDict
from collections.abc import Sequence
from dataclasses import dataclass, field

from .errors import ConfigError, EngineInvariantError, check_fields
from .events import ProcessEvent
from .signals import SignalVector


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
        non_negative = (0, math.inf)
        check_fields(self, positive=("inflammation_base",), csm_pamp=non_negative,
                     csm_danger=non_negative, csm_safe=non_negative)
        if not self.mature_safe < 0:
            raise ConfigError(f"mature_safe must be negative, got {self.mature_safe}")


def increments(signals: SignalVector, weights: WeightMatrix) -> tuple[float, float, float]:
    """The (csm, semi, mature) increments one tick's signals add to every cell:
    each category is the mean of its two signals, scaled by the inflammation factor."""
    pamp = (signals.pamp1 + signals.pamp2) / 2.0
    danger = (signals.ds1 + signals.ds2) / 2.0
    safe = (signals.ss1 + signals.ss2) / 2.0
    factor = weights.inflammation_base + signals.inflammation
    return (
        factor * (weights.csm_pamp * pamp + weights.csm_danger * danger + weights.csm_safe * safe),
        factor * (weights.semi_pamp * pamp + weights.semi_danger * danger + weights.semi_safe * safe),
        factor * (weights.mature_pamp * pamp + weights.mature_danger * danger
                  + weights.mature_safe * safe),
    )


# Upper bound of population_size, tissue_capacity and cell_store_capacity:
# the engine allocates its cells and tissue slots up front.
MAX_SIZE = 1_000_000


@dataclass(frozen=True)
class EngineConfig:
    population_size: int = 100
    tissue_capacity: int = 500
    antigens_per_update: int = 10
    cell_store_capacity: int = 50
    threshold_min: float = 100.0
    threshold_max: float = 300.0
    weights: WeightMatrix = field(default_factory=WeightMatrix)

    def __post_init__(self):
        size = (1, MAX_SIZE)
        check_fields(self, positive=("threshold_min",), population_size=size, tissue_capacity=size,
                     cell_store_capacity=size, antigens_per_update=(1, self.tissue_capacity),
                     threshold_max=(self.threshold_min, math.inf))


class TissueCompartment:
    """Fixed-size antigen buffer: ``_residents`` maps each occupied slot to its
    antigen, oldest first, and ``_free`` stacks the empty slots.

    When full, a new arrival overwrites the longest-resident antigen, so
    the buffer behaves like a ring under sustained overflow.
    """

    def __init__(self, capacity: int):
        self.capacity = capacity
        self._free = list(range(capacity - 1, -1, -1))
        self._residents: OrderedDict[int, ProcessEvent] = OrderedDict()
        self.stored_total = 0
        self.overwritten_total = 0

    @property
    def occupied_count(self) -> int:
        return len(self._residents)

    def store_all(self, antigens: Sequence[ProcessEvent]) -> None:
        """Store arrivals in order, each overwriting the oldest when full.

        Once the free slots are filled, arrivals overwrite the slots in one
        ring order that a whole lap of ``capacity`` arrivals leaves as it
        was.  So every lap but the last after the free slots fill is counted
        as overwritten without being stored; the result is the same.
        """
        free, residents = self._free, self._residents
        total, head, capacity = len(antigens), len(free), self.capacity
        laps = max(0, (total - head) // capacity - 1)
        if laps:
            antigens = antigens[:head] + antigens[head + laps * capacity:]
        overwritten = laps * capacity
        for antigen in antigens:
            if free:
                idx = free.pop()
            else:
                idx, _ = residents.popitem(last=False)
                overwritten += 1
            residents[idx] = antigen
        self.overwritten_total += overwritten
        self.stored_total += total


class DendriticCell:
    """One sampling cell with its cumulative outputs and antigen store."""

    __slots__ = ("store_capacity", "migration_threshold", "antigen_store", "csm", "semi", "mature")

    def __init__(self, store_capacity: int, migration_threshold: float):
        self.store_capacity = store_capacity
        self.migration_threshold = migration_threshold
        self.antigen_store: list[ProcessEvent] = []
        self.csm = 0.0
        self.semi = 0.0
        self.mature = 0.0

    def context(self) -> int:
        """1 when the cell matured (anomalous surroundings), else 0."""
        return 1 if self.mature > self.semi else 0

    def reset(self, rng: random.Random, threshold_min: float, threshold_max: float) -> None:
        self.antigen_store = []
        self.csm = self.semi = self.mature = 0.0
        self.migration_threshold = rng.uniform(threshold_min, threshold_max)


class DcaEngine:
    """Deterministic driver of the tissue and the cell population; ``seed`` fixes every draw."""

    def __init__(self, config: EngineConfig | None = None, seed: int = 0):
        self.config = config or EngineConfig()
        self.rng = random.Random(seed)
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

    def tick(self, signals: SignalVector, antigens: list[ProcessEvent]) -> list[tuple[ProcessEvent, int]]:
        """Advance one virtual second and return its (antigen, context) presentations.

        Order is fixed: new antigen enters the tissue, every cell samples
        then updates in population order, and finally stimulated cells
        present and are recycled.  Each cell makes all ``antigens_per_update``
        draws of distinct slots (as ``random.sample`` draws above its set
        threshold) and keeps the antigen it finds while its store has room.
        The output increments are the same for every cell, so they are
        computed once.
        """
        tissue = self.tissue
        tissue.store_all(antigens)
        d_csm, d_semi, d_mature = increments(signals, self.config.weights)
        rng = self.rng
        n = tissue.capacity
        getrandbits = rng.getrandbits
        bits = n.bit_length()
        draws = range(self.config.antigens_per_update)
        residents, free = tissue._residents, tissue._free
        take = residents.pop
        migrating = []
        for cell in self.cells:
            store = cell.antigen_store
            # Most cells find the tissue already emptied this tick: they only draw.
            room = cell.store_capacity - len(store) if residents else 0
            seen = set()
            for _ in draws:
                j = getrandbits(bits)
                while j >= n or j in seen:
                    j = getrandbits(bits)
                seen.add(j)
                if room > 0 and j in residents:
                    store.append(take(j))
                    free.append(j)
                    room -= 1
            cell.csm = csm = cell.csm + d_csm
            semi = cell.semi + d_semi
            cell.semi = semi if semi > 0.0 else 0.0
            mature = cell.mature + d_mature
            cell.mature = mature if mature > 0.0 else 0.0
            if csm > cell.migration_threshold:
                migrating.append(cell)
        records: list[tuple[ProcessEvent, int]] = []
        for cell in migrating:
            if cell.antigen_store:  # most migrating cells hold nothing and only reset
                context = cell.context()
                records += [(antigen, context) for antigen in cell.antigen_store]
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
