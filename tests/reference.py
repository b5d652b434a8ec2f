"""Reference model of one engine tick, one cell at a time.

``DcaEngine.tick`` inlines the sampling and the update of every cell and
computes the output increments once per tick.  This model keeps each step
as its own small method, so the tests can check the steps one by one and
check ``tick`` against them, draw for draw and float for float.
"""

from __future__ import annotations

import random

from dcascan.engine import DendriticCell, TissueCompartment, WeightMatrix, increments
from dcascan.events import ProcessEvent


def draw_slots(rng: random.Random, n: int, k: int) -> list[int]:
    """Draw k distinct slot indices in [0, n), in draw order.

    Each draw is ``getrandbits(n.bit_length())``; draws ``>= n`` and
    repeats are rejected.  For n above CPython's set threshold (85 when
    k=10) this consumes the RNG exactly as ``rng.sample(range(n), k)``
    does and returns the same list, so the engine's own sampler leaves the
    outputs of the default 500-slot tissue as ``random.sample`` made them.
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


class ReferenceTissue(TissueCompartment):
    """The engine's tissue, with the one-slot removal that sampling makes."""

    def take(self, idx: int) -> ProcessEvent | None:
        antigen = self.slots[idx]
        if antigen is not None:
            self.slots[idx] = None
            del self._residents[idx]
            self._free.append(idx)
        return antigen


class ReferenceCell(DendriticCell):
    """The engine's cell, with sampling, update and migration as methods."""

    __slots__ = ()

    def sample(self, tissue: ReferenceTissue, rng: random.Random, k: int) -> None:
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
