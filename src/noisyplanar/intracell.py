"""Intra-cell computation (stage 1).

Every cell behaves as a single-hop cluster scheduled by the reuse coloring:
all cells of one color class run their scripts in lockstep while other
classes stay silent.  For the MAX protocol the script is

  discovery     -- members broadcast their bit a fixed odd number of times in
                   ascending id order; the center majority-decodes each member
                   and names the least id seen holding a 1 as the witness;
  identity      -- the center broadcasts the witness's in-cell index through
                   the block code, one codeword bit per slot, and every member
                   decodes it independently;
  confirmation  -- slots reserved for "the witness": every member believing
                   itself the witness transmits its bit; the center majority-
                   decodes, treating collisions as erasures (all-erased
                   defaults to 0).

The histogram variant replaces the script with per-member repetition: the
center majority-decodes each member's bit and counts the ones.

Noise is drawn in schedule order (RNG layout 2): class by class, within a
class phase by phase, and within a phase cell by cell, with one draw per
(class, phase) for all of the class's cells.  Confirmation comes last in its
class, so its data-dependent draw count moves no other cell's draws.

Discovery and identity schedules are pure functions of the geometry and the
configuration; only the confirmation transmitter is data-dependent, which the
run audit treats as a documented exception.

``witness_discovery``, ``distribute_identity`` and ``confirm_value`` run one
phase in one cell.  They are not on the run path; they are the per-cell
reference that the class-batched ``run_stage1_max`` is tested against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache

import numpy as np

from .channel import Channel, ScheduleClass, TraceRecord
from .coding import BlockCode, RepetitionScheme, smallest_odd_at_least
from .geometry import Cell, CellGrid

__all__ = [
    "Stage1Config",
    "Stage1Result",
    "witness_discovery",
    "distribute_identity",
    "confirm_value",
    "stage1_layout",
    "stage1_schedule",
    "run_stage1_max",
    "run_stage1_hist",
]


@cache
def _id_code_for(msg_bits: int, block_len: int | None, seed: int) -> BlockCode:
    """The identity code for these parameters, built once per process.

    The code is immutable (its arrays are read-only), so every trial and
    sweep point with the same parameters shares one instance.
    """
    return BlockCode(msg_bits, block_len, seed=seed)


@dataclass(frozen=True)
class Stage1Config:
    """Intra-cell constants: repeat counts, miss budget, and the identity code."""

    eps1: float
    c_rep: int
    r2: int
    id_code: BlockCode

    def __post_init__(self):
        if not (0.0 < self.eps1 < 1.0):
            raise ValueError(f"eps1 must lie in (0, 1), got {self.eps1}")
        for name in ("c_rep", "r2"):
            v = getattr(self, name)
            if v < 1 or v % 2 == 0:
                raise ValueError(f"{name} must be odd and positive, got {v}")

    @classmethod
    def for_network(
        cls,
        n: int,
        eps0: float,
        eps1: float = 0.05,
        c_rep: int = 9,
        r2: int | None = None,
        block_len: int | None = None,
        code_seed: int = 404,
    ) -> "Stage1Config":
        """Derive defaults for an n-node network and check the discovery budget.

        r2 defaults to the smallest odd integer >= 3 ln n; the identity code
        carries ceil(log2 n) message bits at rate 1/4 and is shared by every
        call with the same message bits, block length and code seed.
        Construction fails if c_rep repetitions cannot keep the per-member
        majority-flip probability within the witness-miss budget at the given
        eps0.
        """
        if r2 is None:
            r2 = smallest_odd_at_least(3.0 * math.log(n))
        msg_bits = max(1, math.ceil(math.log2(n)))
        code = _id_code_for(msg_bits, block_len, code_seed)
        cfg = cls(eps1=eps1, c_rep=c_rep, r2=r2, id_code=code)
        miss = RepetitionScheme(c_rep).error_bound(eps0)
        if miss > eps1:
            raise ValueError(
                f"c_rep={c_rep} gives majority-flip probability {miss:.4g} > eps1={eps1} "
                f"at eps0={eps0}; increase c_rep or relax eps1"
            )
        return cfg

    @property
    def block_len(self) -> int:
        return self.id_code.block_len

    def script_len(self, cell_size: int) -> int:
        """Slots one cell's full MAX script occupies: discovery + identity + confirm."""
        return self.c_rep * cell_size + self.block_len + self.r2

    def phase_slots(self, base: int, max_members: int) -> tuple[int, int, int]:
        """First slots of a MAX class's discovery, identity and confirmation phases."""
        identity = base + self.c_rep * max_members
        return base, identity, identity + self.block_len


@dataclass
class Stage1Result:
    """Per-cell outcomes of stage 1; its cost is charged to ``channel.metrics``."""

    witnesses: dict[int, int] = field(default_factory=dict)
    values: dict[int, int] = field(default_factory=dict)
    counts: dict[int, int] = field(default_factory=dict)


def _member_firsts(sizes: np.ndarray, first, reps: int) -> np.ndarray:
    """Each member's first slot when the members of each cell send reps slots
    each in turn from ``first`` (scalar or per member); member i's slots are
    first[i] + arange(reps)."""
    return first + reps * (np.arange(sizes.sum()) - (sizes.cumsum() - sizes).repeat(sizes))


def _majority_at_center(
    members, sizes, centers, reps: int, phase: str, channel: Channel, slot0
) -> np.ndarray:
    """Per-member repetition to each cell's center, the cells in lockstep.

    The cells come as CellGrid.gather gives them.  In every cell, members
    transmit their bit in ascending id order, reps consecutive slots each from
    slot0, for exactly reps * N transmissions.  The center majority-decodes
    every member; its own broadcasts are noiseless to itself.  Noise is drawn
    in one call, cell by cell, member by member, copy by copy, and the cells
    get one trace record.  Returns the members' decoded bits.
    """
    centers = centers.repeat(sizes)
    firsts = _member_firsts(sizes, slot0, reps)
    slots = lambda: firsts[:, None] + np.arange(reps)  # built only for an adversary's hook
    bits = channel.instance.bits[members]
    flips = channel.flip_mask(
        (members.size, reps), slots=slots, txs=members[:, None], rxs=centers[:, None]
    )
    decoded = bits ^ (flips.sum(axis=1) > reps // 2)
    is_center = members == centers
    decoded[is_center] = bits[is_center]

    channel.record(phase, members, firsts, reps)
    channel.metrics.add("stage1", tx=reps * members.size, rx=reps * int(sizes.dot(sizes - 1)))
    return decoded


def witness_discovery(cell: Cell, config: Stage1Config, channel: Channel, slot0: int = 0) -> int:
    """Run the discovery schedule in one cell and return the chosen witness.

    Members repeat their bit c_rep times each to the center, which picks the
    least id whose decoded bit is 1, falling back to the least id when none
    is seen.  The per-cell reference for ``run_stage1_max``; not on the run
    path.
    """
    members, sizes, centers = cell.members, np.array([cell.size]), np.array([cell.center])
    decoded = _majority_at_center(
        members, sizes, centers, config.c_rep, "discovery", channel, slot0
    )
    ones = np.flatnonzero(decoded == 1)
    return int(members[ones[0]]) if len(ones) else int(members[0])


def distribute_identity(
    cell: Cell, witness: int, config: Stage1Config, channel: Channel, slot0: int = 0
) -> list[int]:
    """Broadcast the witness's in-cell index and return who believes it is them.

    The center transmits the codeword once, one bit per slot (block_len
    transmissions exactly); every member nearest-codeword-decodes its own
    noisy copy.  Returns the members whose decode equals their own index --
    the set that will answer in the confirmation slots.  The per-cell
    reference for ``run_stage1_max``; not on the run path.
    """
    members = cell.members
    n_members = len(members)
    local_witness = int(np.searchsorted(members, witness))
    length = config.block_len

    slots = slot0 + np.arange(length)
    flips = channel.flip_mask(
        (n_members, length), slots=slots[None, :], txs=cell.center, rxs=members[:, None]
    )
    believes = config.id_code.decode_equals(
        local_witness, flips.astype(np.uint8), np.arange(n_members)
    )
    believes[members == cell.center] = witness == cell.center

    channel.record("identity", [cell.center], slot0, length)
    channel.metrics.add("stage1", tx=length, rx=length * (n_members - 1))
    return [int(m) for m in members[believes]]


def confirm_value(
    cell: Cell, believers: list[int], config: Stage1Config, channel: Channel, slot0: int = 0
) -> int:
    """Resolve the r2 confirmation slots into the cell's aggregated bit.

    One believer delivers its bit r2 times for a majority decode; several
    believers collide in every slot and no believer leaves silence -- both
    decode to the documented default 0.  A believing center knows its own bit
    noiselessly.  The per-cell reference for ``run_stage1_max``; not on the
    run path.
    """
    n_members = cell.size
    n_believers = len(believers)
    if n_believers == 1:
        b = believers[0]
        bit = int(channel.instance.bits[b])
        if b == cell.center:
            value = bit
        else:
            copies = channel.noisy_copies(bit, config.r2, b, cell.center, slot0)
            value = int(copies.sum() * 2 > config.r2)
    else:
        value = 0  # silence or wall-to-wall collisions: every slot is an erasure

    channel.record("confirmation", believers, slot0, config.r2, data_dependent=True)
    channel.metrics.add(
        "stage1",
        tx=config.r2 * n_believers,
        rx=config.r2 * (n_members - n_believers) if n_believers else 0,
    )
    return value


def stage1_layout(
    grid: CellGrid, coloring: list[ScheduleClass], config: Stage1Config, protocol: str
) -> list[tuple[ScheduleClass, int, int, int]]:
    """Each color class's (class, first slot, slot span, largest cell size).

    Classes run one after another in coloring order, and the cells of a class
    in lockstep, so a class spans its largest cell's script: c_rep * N +
    block_len + r2 slots for MAX, r2 * N for the histogram.
    """
    sizes = grid.occupancies()
    layout = []
    base = 0
    for cls in coloring:
        max_members = int(sizes[np.asarray(cls.cells) - 1].max())
        if protocol == "max":
            span = config.script_len(max_members)
        else:
            span = config.r2 * max_members
        layout.append((cls, base, span, max_members))
        base += span
    return layout


def stage1_schedule(
    grid: CellGrid, layout, config: Stage1Config, protocol: str
) -> list[TraceRecord]:
    """The records a run of this stage1_layout leaves for its data-independent phases.

    One run-length record per (class, phase), class by class in layout order:
    MAX discovery then identity, or histogram counting.  Every cell starts at
    its class's first slot.  MAX discovery and histogram counting send the
    members in id order, c_rep or r2 slots each; MAX identity sends each
    center for block_len slots from the identity slot.
    """
    reps, phase = (config.c_rep, "discovery") if protocol == "max" else (config.r2, "hist_count")
    records = []
    for cls, base, _, max_members in layout:
        members, sizes, centers = grid.gather(cls.cells)
        records.append(TraceRecord(phase, members, _member_firsts(sizes, base, reps), reps))
        if protocol == "max":
            id_base = config.phase_slots(base, max_members)[1]
            first = np.full(centers.size, id_base)
            records.append(TraceRecord("identity", centers, first, config.block_len))
    return records


def run_stage1_max(
    grid: CellGrid,
    coloring: list[ScheduleClass],
    config: Stage1Config,
    channel: Channel,
) -> Stage1Result:
    """Run discovery, identity, and confirmation in every cell.

    Color classes execute sequentially; cells inside a class run in lockstep,
    so a class occupies c_rep * max_members + block_len + r2 slots.  Noise is
    drawn in schedule order: class by class, then phase by phase, then cell
    by cell, with one draw per (class, phase).  Discovery and identity draw
    for every member of the class; confirmation draws r2 copies for each
    cell whose single believer is not its center.  Every phase leaves one
    run-length trace record per class, the class's records phase by phase.
    """
    result = Stage1Result()
    code, length, r2 = config.id_code, config.block_len, config.r2
    bits = channel.instance.bits
    for cls, base, span, max_members in stage1_layout(grid, coloring, config, "max"):
        _, id_base, confirm_base = config.phase_slots(base, max_members)
        members, sizes, centers = grid.gather(cls.cells)
        starts = sizes.cumsum() - sizes
        rows = np.arange(members.size)
        own_center = centers.repeat(sizes)

        # Discovery: the least member decoded as 1, else the least member.
        decoded = _majority_at_center(
            members, sizes, centers, config.c_rep, "discovery", channel, base
        )
        first_one = np.minimum.reduceat(np.where(decoded == 1, rows, members.size), starts)
        pick = np.where(first_one == members.size, starts, first_one)
        witnesses = members[pick]

        # Identity: every member decodes the witness's in-cell index.
        id_slots = id_base + np.arange(length)
        flips = channel.flip_mask(
            (members.size, length), slots=id_slots, txs=own_center[:, None], rxs=members[:, None]
        )
        believes = code.decode_equals(
            (pick - starts).repeat(sizes), flips.astype(np.uint8), rows - starts.repeat(sizes)
        )
        is_center = members == own_center
        believes[is_center] = (witnesses == centers).repeat(sizes)[is_center]
        cells = sizes.size
        channel.metrics.add("stage1", tx=length * cells, rx=length * (members.size - cells))

        # Confirmation: a single believer's bit, r2 noisy copies unless it is
        # the center; silence and collisions decode to 0.
        n_believers = np.add.reduceat(believes, starts, dtype=np.int64)
        first = np.minimum.reduceat(np.where(believes, rows, members.size), starts)
        single = n_believers == 1
        sender = members[np.where(single, first, starts)]
        values = np.where(single, bits[sender], 0)
        sends = np.flatnonzero(single & (sender != centers))
        confirm_slots = confirm_base + np.arange(r2)
        flips = channel.flip_mask(
            (sends.size, r2),
            slots=confirm_slots,
            txs=sender[sends, None],
            rxs=centers[sends, None],
        )
        values[sends] ^= flips.sum(axis=1) * 2 > r2
        heard = n_believers > 0
        channel.metrics.add(
            "stage1",
            tx=r2 * int(n_believers.sum()),
            rx=r2 * int((sizes - n_believers)[heard].sum()),
            slots=span,
        )

        if channel.trace is not None:
            channel.record("identity", centers, id_base, length)
            channel.record("confirmation", members[believes], confirm_base, r2, data_dependent=True)
        result.witnesses.update(zip(cls.cells, witnesses.tolist()))
        result.values.update(zip(cls.cells, values.tolist()))
    return result


def run_stage1_hist(
    grid: CellGrid,
    coloring: list[ScheduleClass],
    config: Stage1Config,
    channel: Channel,
) -> Stage1Result:
    """Count each cell's ones at its center by per-member repetition.

    Members broadcast their bit r2 times in ascending id order (r2 * N
    transmissions per cell); the center majority-decodes each member and
    reports how many decoded to 1.  Every draw count depends only on the
    layout, so a whole color class is drawn and counted at once.
    """
    result = Stage1Result()
    for cls, base, span, _ in stage1_layout(grid, coloring, config, "hist"):
        members, sizes, centers = grid.gather(cls.cells)
        decoded = _majority_at_center(
            members, sizes, centers, config.r2, "hist_count", channel, base
        )
        counts = np.add.reduceat(decoded, np.cumsum(sizes) - sizes, dtype=np.int64)
        result.counts.update(zip(cls.cells, counts.tolist()))
        channel.metrics.add("stage1", slots=span)
    return result
