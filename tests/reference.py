"""Reference models of one engine tick, one cell at a time, and of a
generated session, built whole.

``DcaEngine.tick`` inlines the sampling and the update of every cell and
computes the output increments once per tick.  This model keeps each step
as its own small method, so the tests can check the steps one by one and
check ``tick`` against them, draw for draw and float for float.

``gen_dataset`` makes its session one second at a time; ``reference_dataset``
makes the same draws in one pass and puts the whole session in file order
with one stable sort.

``run_stream`` hands each tick's output to its ``each_tick`` and keeps none;
``collect_run`` keeps all of it as (second, antigen, context) records,
``write_log`` writes such records as a log, and ``labelled`` gives the
(label, context) pairs that ``analysis`` scores.

``recount_scores`` scores such pairs by counting every label of every
window afresh, for the scorer's windows, summaries and ``mcav.csv``.
"""

from __future__ import annotations

import math
import random

from dcascan.analysis import LOG_HEADER, open_table, write_presentations
from dcascan.engine import DendriticCell, TissueCompartment, WeightMatrix, increments
from dcascan.events import EventStream, ProcessEvent
from dcascan.pipeline import run_stream
from dcascan.scenario import (SSHD, NormalProfile, ScanProfile, SessionProfile, _sshd,
                              gen_normal, gen_syn_scan, scan_salvos)
from dcascan.signals import SignalVector


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
        antigen = self._residents.pop(idx, None)
        if antigen is not None:
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

    def update_signals(self, signals: SignalVector, weights: WeightMatrix) -> None:
        d_csm, d_semi, d_mature = increments(signals, weights)
        self.csm = max(0.0, self.csm + d_csm)
        self.semi = max(0.0, self.semi + d_semi)
        self.mature = max(0.0, self.mature + d_mature)

    @property
    def wants_migration(self) -> bool:
        return self.csm > self.migration_threshold

    def present(self) -> list[tuple[ProcessEvent, int]]:
        """The (antigen, context) pairs of the store, in store order."""
        context = self.context()
        return [(antigen, context) for antigen in self.antigen_store]


def flatten(chunks) -> tuple[list, list]:
    """The packets and the process events of a generator's (second, packets,
    process events) chunks, each in emission order."""
    packets: list = []
    procs: list = []
    for _, chunk_packets, chunk_procs in chunks:
        packets += chunk_packets
        procs += chunk_procs
    return packets, procs


def reference_dataset(kind: str, duration: float, seed: int, *, scan_start=None,
                      scan_duration=None, scan=None, normal=None, session=None,
                      include_scan=True) -> EventStream:
    """The session ``gen_dataset`` makes for valid arguments, held whole."""
    scan, normal, session = scan or ScanProfile(), normal or NormalProfile(), session or SessionProfile()
    if scan_start is None:
        scan_start = round(0.093 * duration, 1)
    if scan_duration is None:
        scan_duration = 0.857 * duration
    scan_duration = min(scan_duration, duration - scan_start)
    per_host = scan_duration / scan.probe_interval / scan.target_count
    probes = scan.target_count * max(1, round(per_host))

    rng = random.Random(seed)
    packets: list = []
    procs: list = [ProcessEvent(session.login_time, *SSHD, "login")]
    procs += flatten(_sshd(session, duration, rng))[1]
    salvos = []
    if include_scan:
        salvos = gen_syn_scan(scan, probes, rng, scan_start)
        scan_packets, scan_procs = flatten(scan_salvos(scan, salvos))
        packets += scan_packets
        procs += scan_procs
    if kind == "active-normal":
        normal_packets, normal_procs = flatten(gen_normal(normal, duration, rng,
                                                          frozenset(sec for sec, _ in salvos)))
        packets += normal_packets
        procs += normal_procs

    # One stable sort puts packets first at equal times, since they come first here.
    events = [e for e in packets + procs if e.timestamp <= duration]
    events.sort(key=lambda e: e.timestamp)
    return EventStream(events, float(duration))


def collect_run(buckets, *args, **kwargs):
    """``run_stream(buckets, ...)`` with an ``each_tick`` that keeps its
    output: the result, every presentation as a (second, antigen, context)
    record in order, and the (second, signals) trace."""
    records: list = []
    trace: list = []

    def keep(second, signals, pairs):
        records.extend((second, antigen, context) for antigen, context in pairs)
        trace.append((second, signals))

    return run_stream(buckets, *args, each_tick=keep, **kwargs), records, trace


def write_log(records, path) -> None:
    """Write (second, antigen, context) ``records`` as one presentation log at ``path``."""
    with open_table(path, LOG_HEADER) as write:
        for second, antigen, context in records:
            write_presentations([(antigen, context)], second, write)


def labelled(records) -> list[tuple[str, int]]:
    """The (label, context) pairs of (second, antigen, context) records."""
    return [(antigen.process_name, context) for _, antigen, context in records]


def recount_scores(pairs: list[tuple[str, int]], window_size: int) -> tuple[list, dict]:
    """Score (label, context) pairs by recounting each label in each window.

    Returns ``mcav.csv``'s rows as text, and per label, in label order, its
    (windows, mean MCAV, population std, presentations, proportion), where
    only the full windows give MCAVs and every pair counts.
    """
    rows: list[list[str]] = []
    full_mcavs: dict[str, list[float]] = {}
    for index, start in enumerate(range(0, len(pairs), window_size)):
        chunk = pairs[start:start + window_size]
        for label in sorted({name for name, _ in chunk}):
            mine = [context for name, context in chunk if name == label]
            mcav = sum(mine) / len(mine)
            rows.append([str(index), label, str(len(mine)), str(sum(mine)), f"{mcav:.6f}",
                         f"{len(mine) / len(chunk):.6f}"])
            if len(chunk) == window_size:
                full_mcavs.setdefault(label, []).append(mcav)
    summaries = {}
    for label in sorted({name for name, _ in pairs}):
        mcavs = full_mcavs.get(label, [])
        mean = sum(mcavs) / len(mcavs) if mcavs else 0.0
        std = math.sqrt(sum((m - mean) ** 2 for m in mcavs) / len(mcavs)) if mcavs else 0.0
        count = sum(1 for name, _ in pairs if name == label)
        summaries[label] = (len(mcavs), mean, std, count, count / len(pairs))
    return rows, summaries
