"""Slotted-time channel: protocol-model interference, BSC noise, scheduling, metrics.

A transmission is received only if its sender is the unique transmitter
within the reception radius and every other simultaneous transmitter is at
least (1 + delta) * radius away; otherwise the listener observes a collision
(if anyone was in range) or silence.  Received bits pass through a
binary-symmetric channel whose flip probability is bounded by eps0 < 0.5,
independently per receiver; an optional adversary may pick each reception's
flip probability up to that bound with full knowledge of the run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .geometry import CellGrid, DerivedParams

__all__ = [
    "TxEvent",
    "RxOutcome",
    "COLLISION",
    "SILENCE",
    "received",
    "NoiseModel",
    "ScheduleClass",
    "EnergyConfig",
    "Metrics",
    "Channel",
    "flip",
    "distances",
    "resolve_slot",
    "color_cells",
    "account",
]


@dataclass(frozen=True)
class TxEvent:
    slot: int
    tx: int
    bit: int


@dataclass(frozen=True)
class RxOutcome:
    """What a listener observes in one slot: a bit, a collision, or silence."""

    kind: str  # "received" | "collision" | "silence"
    bit: int | None = None

    @property
    def is_received(self) -> bool:
        return self.kind == "received"


COLLISION = RxOutcome("collision")
SILENCE = RxOutcome("silence")


def received(bit: int) -> RxOutcome:
    return RxOutcome("received", int(bit))


# resolve_slot's outcomes by kind code: silence, collision, received 0, received 1.
_OUTCOMES = (SILENCE, COLLISION, received(0), received(1))


# Adversary hook: (slot, tx, rx, history) -> flip probability in [0, eps0].
AdversaryHook = Callable[[int, int, int, object], float]


@dataclass(frozen=True)
class NoiseModel:
    """Per-receiver BSC noise with flip probability bounded by eps0 < 0.5.

    In "iid" mode every reception flips with probability exactly eps0.  In
    "adversarial" mode the hook chooses each reception's flip probability,
    capped at eps0; flips stay independent across receivers given their
    probabilities.
    """

    eps0: float
    mode: str = "iid"
    adversary: AdversaryHook | None = None

    def __post_init__(self):
        if not (0.0 <= self.eps0 < 0.5):
            raise ValueError(f"eps0 must lie in [0, 0.5), got {self.eps0}")
        if self.mode not in ("iid", "adversarial"):
            raise ValueError(f"unknown noise mode {self.mode!r}")
        if self.mode == "adversarial" and self.adversary is None:
            raise ValueError("adversarial mode requires an adversary hook")

    def flip_prob(self, slot: int, tx: int, rx: int, history: object) -> float:
        if self.mode == "iid":
            return self.eps0
        p = float(self.adversary(slot, tx, rx, history))
        if not (0.0 <= p <= self.eps0):
            raise ValueError(f"adversary returned flip probability {p} outside [0, {self.eps0}]")
        return p


def flip(bit: int, p: float, rng: np.random.Generator) -> int:
    """Flip a bit with probability p (one BSC use)."""
    if not (0.0 <= p < 0.5):
        raise ValueError(f"flip probability must lie in [0, 0.5), got {p}")
    return int(bit) ^ int(rng.random() < p)


def distances(positions: np.ndarray, rows, cols) -> np.ndarray:
    """Euclidean distances from each node of rows (axis 0) to each of cols (axis 1)."""
    diff = positions[list(rows)][:, None, :] - positions[list(cols)][None, :, :]
    return np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))


def resolve_slot(
    events: list[TxEvent] | tuple[TxEvent, ...],
    listeners,
    positions: np.ndarray,
    params: DerivedParams,
    noise: NoiseModel,
    rng: np.random.Generator,
    history: object = None,
) -> dict[int, RxOutcome]:
    """Resolve one slot of simultaneous transmissions at each listener.

    A listener receives iff exactly one transmitter is within the radius and
    every other transmitter is at least (1 + delta) * radius away; it hears a
    collision iff someone was in range but another transmitter sat inside the
    guard ring.  Transmitters in the ambiguous band (radius, (1+delta)*radius)
    never deliver but do collide.  Noise is drawn per delivering listener, in
    listener order: one ``noise.flip_prob(slot, tx, listener, history)`` call,
    then one ``flip``; silent and colliding listeners draw nothing.  Under iid
    noise the k delivering listeners' uniforms come from one ``rng.random(k)``
    call, the same stream as k single draws.
    """
    events = list(events)
    listeners = list(listeners)
    slots = sorted({e.slot for e in events})
    if len(slots) > 1:
        raise ValueError(f"events span multiple slots: {slots}")
    slot = slots[0] if slots else 0

    dist = distances(positions, listeners, [e.tx for e in events])
    in_range = dist <= params.radius
    heard = in_range.sum(axis=1)
    interfered = ((dist < (1.0 + params.delta) * params.radius) & ~in_range).any(axis=1)
    delivers = (heard == 1) & ~interfered
    senders = np.nonzero(in_range[delivers])[1]  # one in-range transmitter per row
    bits = np.array([e.bit for e in events], dtype=np.int64)[senders]
    if noise.mode == "iid":
        bits ^= rng.random(senders.size) < noise.eps0
    else:
        for i, (j, s) in enumerate(zip(np.flatnonzero(delivers).tolist(), senders.tolist())):
            e = events[s]
            bits[i] = flip(e.bit, noise.flip_prob(slot, e.tx, listeners[j], history), rng)
    kinds = np.minimum(heard, 1)
    kinds[delivers] = 2 + bits
    return dict(zip(listeners, map(_OUTCOMES.__getitem__, kinds.tolist())))


@dataclass(frozen=True)
class ScheduleClass:
    """Cells that may run their intra-cell scripts simultaneously."""

    color: int
    cells: tuple[int, ...]


def color_cells(grid: CellGrid, params: DerivedParams) -> list[ScheduleClass]:
    """Tile the grid with a reuse-distance coloring for intra-cell phases.

    Cells share a color iff their (row, col) agree modulo the reuse distance
    D = 2 * ceil((1 + delta) * radius / cell_side) + 1, yielding at most
    D^2 = interference_bound + 1 colors.  Same-color cells are at least D
    apart in grid Chebyshev distance, so any point of one is farther than
    (1 + delta) * radius from any point of another: simultaneous intra-cell
    transmissions cannot collide at any same-color cell's listeners.
    """
    d = params.reuse_distance
    by_color: dict[int, list[int]] = {}
    for c in grid:
        color = (c.row % d) * d + (c.col % d)
        by_color.setdefault(color, []).append(c.index)
    return [
        ScheduleClass(color=color, cells=tuple(sorted(members)))
        for color, members in sorted(by_color.items())
    ]


@dataclass(frozen=True)
class EnergyConfig:
    e_t: float = 1.0
    e_r: float = 0.1


@dataclass
class Metrics:
    """Slot, transmission, and reception counters with exact energy identities.

    em2 = e_t * tx_count counts transmit energy only; em1 adds e_r per
    reception.  Both are computed from the integer counters, so the
    identities hold exactly after every slot.
    """

    energy: EnergyConfig = field(default_factory=EnergyConfig)
    slots_stage1: int = 0
    slots_stage2: int = 0
    slots_distribute: int = 0
    tx_stage1: int = 0
    tx_stage2: int = 0
    tx_distribute: int = 0
    rx_stage1: int = 0
    rx_stage2: int = 0
    rx_distribute: int = 0

    STAGES = ("stage1", "stage2", "distribute")

    def add(self, stage: str, tx: int = 0, rx: int = 0, slots: int = 0) -> None:
        if stage not in self.STAGES:
            raise ValueError(f"unknown stage {stage!r}")
        setattr(self, f"tx_{stage}", getattr(self, f"tx_{stage}") + tx)
        setattr(self, f"rx_{stage}", getattr(self, f"rx_{stage}") + rx)
        setattr(self, f"slots_{stage}", getattr(self, f"slots_{stage}") + slots)

    @property
    def tx_count(self) -> int:
        return self.tx_stage1 + self.tx_stage2 + self.tx_distribute

    @property
    def rx_count(self) -> int:
        return self.rx_stage1 + self.rx_stage2 + self.rx_distribute

    @property
    def slots_total(self) -> int:
        return self.slots_stage1 + self.slots_stage2 + self.slots_distribute

    @property
    def em2(self) -> float:
        return self.energy.e_t * self.tx_count

    @property
    def em1(self) -> float:
        return self.energy.e_t * self.tx_count + self.energy.e_r * self.rx_count

    @property
    def em1_stage1(self) -> float:
        return self.energy.e_t * self.tx_stage1 + self.energy.e_r * self.rx_stage1

    def snapshot(self) -> dict:
        return {
            "slots_total": self.slots_total,
            "slots_stage1": self.slots_stage1,
            "slots_stage2": self.slots_stage2,
            "slots_distribute": self.slots_distribute,
            "tx_count": self.tx_count,
            "tx_stage1": self.tx_stage1,
            "tx_stage2": self.tx_stage2,
            "tx_distribute": self.tx_distribute,
            "rx_count": self.rx_count,
            "rx_stage1": self.rx_stage1,
            "rx_stage2": self.rx_stage2,
            "rx_distribute": self.rx_distribute,
            "em1": self.em1,
            "em2": self.em2,
            "em1_stage1": self.em1_stage1,
        }


def account(
    metrics: Metrics,
    events,
    listeners,
    positions: np.ndarray,
    params: DerivedParams,
    stage: str = "stage1",
) -> Metrics:
    """Charge one slot's transmissions and in-range receptions to the metrics.

    A (listener, slot) pair is charged reception energy iff some transmitter
    is within the radius (a delivery or a collision); pure silence costs
    nothing.  Listener sets declare who is scheduled to listen.  Accounting
    draws no noise: it reads only positions, so it can run before or after
    ``resolve_slot`` on the same slot without shifting the RNG stream.
    """
    dist = distances(positions, listeners, [e.tx for e in events])
    rx = int((dist <= params.radius).any(axis=1).sum())
    metrics.add(stage, tx=len(events), rx=rx)
    return metrics


@dataclass(frozen=True)
class TraceRecord:
    """One cell's transmissions in one stage-1 phase: txs[i] sends in slots[i]."""

    phase: str
    cell: int
    slots: np.ndarray
    txs: np.ndarray
    data_dependent: bool = False


def slot_keys(slots, txs) -> np.ndarray:
    """Sorted int64 keys ``(slot << 32) + tx`` of (slot, tx) rows: by slot, then tx.

    One sort of one key column orders the rows; node ids stay below 2**32.
    """
    return np.sort((np.asarray(slots, dtype=np.int64) << 32) + txs)


def key_rows(keys: np.ndarray) -> np.ndarray:
    """The (slot, tx) rows that slot_keys encoded, in key order."""
    return np.column_stack((keys >> 32, keys & 0xFFFFFFFF))


@dataclass
class Trace:
    """Schedule capture for the obliviousness / interference audit."""

    stage1: list[TraceRecord] = field(default_factory=list)
    stage2_stages: list[list[tuple[int, ...]]] = field(default_factory=list)

    def stage1_keys(self, phases: tuple[str, ...]) -> np.ndarray:
        """The slot_keys of the given phases' (slot, tx) rows, one per transmission."""
        records = [r for r in self.stage1 if r.phase in phases]
        return slot_keys(
            np.concatenate([r.slots for r in records]), np.concatenate([r.txs for r in records])
        )

    def stage1_slot_map(self, phases: tuple[str, ...]) -> np.ndarray:
        """Sorted (slot, tx) rows of the given phases, one per transmission."""
        return key_rows(self.stage1_keys(phases))


@dataclass
class Channel:
    """Per-trial execution context: world, noise, RNG stream, and metrics.

    Single-threaded within a trial.  The noise stream is consumed in schedule
    order (stage 1 color classes ascending, then stage 2 stages in plan
    order), which makes runs bit-for-bit reproducible from the seed.
    """

    instance: object
    params: DerivedParams
    noise: NoiseModel
    rng: np.random.Generator
    metrics: Metrics = field(default_factory=Metrics)
    trace: Trace | None = None
    slot_cursor: int = 0

    def flip_mask(self, shape, slots=None, txs=None, rxs=None) -> np.ndarray:
        """Draw a boolean flip mask for a batch of receptions.

        The iid path draws one uniform per reception against eps0.  The
        adversarial path asks the hook per reception (desk-scale only);
        slots/txs/rxs arrays must then be broadcastable to ``shape``.
        """
        u = self.rng.random(shape)
        if self.noise.mode == "iid":
            return u < self.noise.eps0
        slots = np.broadcast_to(np.asarray(slots), shape)
        txs = np.broadcast_to(np.asarray(txs), shape)
        rxs = np.broadcast_to(np.asarray(rxs), shape)
        probs = np.empty(shape, dtype=float)
        it = np.nditer(probs, flags=["multi_index"], op_flags=["writeonly"])
        for cell in it:
            idx = it.multi_index
            cell[...] = self.noise.flip_prob(
                int(slots[idx]), int(txs[idx]), int(rxs[idx]), self
            )
        return u < probs

    def record(self, phase: str, cell: int, slots, txs, data_dependent: bool = False) -> None:
        """Trace one cell's phase, txs broadcast against slots; a no-op untraced."""
        if self.trace is not None:
            slots, txs = np.broadcast_arrays(slots, txs)
            self.trace.stage1.append(
                TraceRecord(phase, cell, slots.ravel(), txs.ravel(), data_dependent)
            )

    def noisy_copies(self, bit: int, count: int, tx: int, rx: int, slot0: int) -> np.ndarray:
        """The bit as seen by one receiver over ``count`` repeated slots."""
        slots = slot0 + np.arange(count)
        mask = self.flip_mask((count,), slots=slots, txs=tx, rxs=rx)
        return (int(bit) ^ mask.astype(np.int8)).astype(np.int8)
