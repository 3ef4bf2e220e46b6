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

Noise is drawn phase by phase (RNG layout 4).  For MAX: discovery for every
class, then identity for every class, then confirmation for every class, each
phase in class, cell and member order; the histogram's one counting phase in
the same order.  A majority-decoded member (discovery, confirmation,
counting) is one uniform against the majority tail of its copies
(``Channel.majority_mask``); identity draws one flip per codeword bit, as
nearest-codeword decoding reads the whole error pattern.  The slots are the
schedule's, whatever the draw order: classes take turns and a class's cells
run in lockstep.  Confirmation, the one draw whose size depends on the data,
comes last, so it moves no other draw.  Inside a phase the members are drawn
in blocks of whole classes of about ``STAGE1_BLOCK`` receptions; the stream
in C order does not depend on the block size, so the blocks bound memory
without moving a draw.

Discovery and identity schedules are pure functions of the geometry and the
configuration; only the confirmation transmitter is data-dependent, which the
run audit treats as a documented exception.

``witness_discovery``, ``distribute_identity`` and ``confirm_value`` run one
phase in one cell.  They are not on the run path; they are the per-cell
reference that the block-drawn ``run_stage1_max`` is tested against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache
from itertools import chain

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

# Stage-1 phases draw their members in blocks of whole color classes of at
# most this many receptions, a larger class alone (see ``_blocks``).
STAGE1_BLOCK = 1 << 18


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


def _majority_at_center(members, sizes, centers, firsts, reps: int, channel: Channel) -> np.ndarray:
    """Per-member repetition to each cell's center, the cells in lockstep.

    The cells come as CellGrid.gather gives them.  Member i transmits its bit
    in the reps consecutive slots from firsts[i]; the center majority-decodes
    every member, and its own broadcasts are noiseless to itself.  Noise is
    one majority draw (``Channel.majority_mask``), one uniform per member,
    cell by cell, member by member.  Returns the members' decoded bits; the
    caller records and charges the phase.
    """
    centers = centers.repeat(sizes)
    slots = lambda: firsts[:, None] + np.arange(reps)  # built only for an adversary's hook
    bits = channel.instance.bits[members]
    decoded = bits ^ channel.majority_mask(
        (members.size, reps), slots=slots, txs=members[:, None], rxs=centers[:, None]
    )
    is_center = members == centers
    decoded[is_center] = bits[is_center]
    return decoded


def _charge_repetition(channel: Channel, sizes: np.ndarray, reps: int) -> None:
    """Charge reps copies of every member's bit, heard by the rest of its cell."""
    channel.metrics.add("stage1", tx=reps * int(sizes.sum()), rx=reps * int(sizes.dot(sizes - 1)))


def witness_discovery(cell: Cell, config: Stage1Config, channel: Channel, slot0: int = 0) -> int:
    """Run the discovery schedule in one cell and return the chosen witness.

    Members repeat their bit c_rep times each to the center, which picks the
    least id whose decoded bit is 1, falling back to the least id when none
    is seen.  The per-cell reference for ``run_stage1_max``; not on the run
    path.
    """
    members, sizes, centers = cell.members, np.array([cell.size]), np.array([cell.center])
    firsts = _member_firsts(sizes, slot0, config.c_rep)
    decoded = _majority_at_center(members, sizes, centers, firsts, config.c_rep, channel)
    channel.record("discovery", members, firsts, config.c_rep)
    _charge_repetition(channel, sizes, config.c_rep)
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
    believes = config.id_code.decode_equals(local_witness, flips, np.arange(n_members))
    believes[members == cell.center] = witness == cell.center

    channel.record("identity", [cell.center], slot0, length)
    channel.metrics.add("stage1", tx=length, rx=length * (n_members - 1))
    return [int(m) for m in members[believes]]


def confirm_value(
    cell: Cell, believers: list[int], config: Stage1Config, channel: Channel, slot0: int = 0
) -> int:
    """Resolve the r2 confirmation slots into the cell's aggregated bit.

    One believer delivers its bit r2 times for a majority decode, one
    majority row (``Channel.majority_mask``); several believers collide in
    every slot and no believer leaves silence -- both decode to the
    documented default 0.  A believing center knows its own bit noiselessly.
    The per-cell reference for ``run_stage1_max``; not on the run path.
    """
    n_members = cell.size
    n_believers = len(believers)
    if n_believers == 1:
        b = believers[0]
        bit = int(channel.instance.bits[b])
        if b == cell.center:
            value = bit
        else:
            slots = slot0 + np.arange(config.r2)
            value = bit ^ int(channel.majority_mask((config.r2,), slots, b, cell.center))
    else:
        value = 0  # silence or wall-to-wall collisions: every slot is an erasure

    channel.record("confirmation", believers, slot0, config.r2, data_dependent=True)
    channel.metrics.add(
        "stage1",
        tx=config.r2 * n_believers,
        rx=config.r2 * (n_members - n_believers) if n_believers else 0,
    )
    return value


def _classes_end_to_end(grid: CellGrid, coloring: list[ScheduleClass]):
    """The classes' cells end to end, class k's at cells[bounds[k]:bounds[k + 1]],
    with the cells' sizes and centers."""
    counts = [len(cls.cells) for cls in coloring]
    cells = np.fromiter(chain.from_iterable(cls.cells for cls in coloring), np.int64, sum(counts))
    bounds = np.concatenate([[0], np.cumsum(counts)])
    return cells, bounds, grid.occupancies()[cells - 1], grid.centers[cells - 1]


def stage1_layout(
    grid: CellGrid, coloring: list[ScheduleClass], config: Stage1Config, protocol: str
) -> list[tuple[ScheduleClass, int, int, int]]:
    """Each color class's (class, first slot, slot span, largest cell size).

    Classes run one after another in coloring order, and the cells of a class
    in lockstep, so a class spans its largest cell's script: c_rep * N +
    block_len + r2 slots for MAX, r2 * N for the histogram.
    """
    _, bounds, sizes, _ = _classes_end_to_end(grid, coloring)
    largest = np.maximum.reduceat(sizes, bounds[:-1])
    spans = config.script_len(largest) if protocol == "max" else config.r2 * largest
    bases = spans.cumsum() - spans
    return list(zip(coloring, bases.tolist(), spans.tolist(), largest.tolist()))


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


def _blocks(grid: CellGrid, cells, bounds, sizes, reps: int):
    """Runs of whole classes, each of at most STAGE1_BLOCK receptions at reps
    per member (a class with more runs alone), in coloring order.

    Yields each run's classes as a range, its slice of ``cells`` and its
    members, sizes and centers as CellGrid.gather gives them.
    """
    ends = np.add.reduceat(sizes, bounds[:-1]).cumsum() * reps  # flips drawn by each class's end
    lo = 0
    while lo < ends.size:
        drawn = int(ends[lo - 1]) if lo else 0
        hi = max(lo + 1, int(np.searchsorted(ends, drawn + STAGE1_BLOCK, "right")))
        part = slice(int(bounds[lo]), int(bounds[hi]))
        yield range(lo, hi), part, *grid.gather(cells[part])
        lo = hi


def _by_class(classes: range, bounds, sizes, *arrays):
    """(class, pieces) for each class of a block, its per-member arrays split
    class by class; ``sizes`` are the block's cell sizes."""
    firsts = bounds[classes.start + 1 : classes.stop] - bounds[classes.start]
    cuts = sizes.cumsum()[firsts - 1]
    return zip(classes, *(np.split(a, cuts) for a in arrays))


def _majority_phase(grid, stage, bases, reps: int, phase: str, channel: Channel, traced):
    """Per-member repetition to the centers over every class, in blocks of
    whole classes; class k's cells send from slot bases[k].

    Yields each block's slice of the stage's cells, its members, its cell
    sizes and the members' decoded bits.  Queues each class's record on
    ``traced`` (when a trace is captured) and charges the phase once its
    last block has been drawn.
    """
    cells, bounds, sizes, _ = stage
    cell_base = np.repeat(bases, np.diff(bounds))
    for classes, part, members, block_sizes, centers in _blocks(grid, cells, bounds, sizes, reps):
        firsts = _member_firsts(block_sizes, cell_base[part].repeat(block_sizes), reps)
        decoded = _majority_at_center(members, block_sizes, centers, firsts, reps, channel)
        if traced is not None:
            pieces = _by_class(classes, bounds, block_sizes, members, firsts)
            traced += [(k, (phase, m, f, reps)) for k, m, f in pieces]
        yield part, members, block_sizes, decoded
    _charge_repetition(channel, sizes, reps)


def _record_class_major(channel: Channel, traced) -> None:
    """Trace the queued (class, record) pairs class by class, each class's
    records in the order its phases were drawn."""
    if traced is not None:
        for _, args in sorted(traced, key=lambda entry: entry[0]):
            channel.record(*args)


def run_stage1_max(
    grid: CellGrid,
    coloring: list[ScheduleClass],
    config: Stage1Config,
    channel: Channel,
) -> Stage1Result:
    """Run discovery, identity, and confirmation in every cell.

    Color classes execute sequentially; cells inside a class run in lockstep,
    so a class occupies c_rep * max_members + block_len + r2 slots.  Noise is
    drawn phase by phase (RNG layout 4): discovery for every class, then
    identity, then confirmation, each in class, cell and member order.
    Discovery (one majority row per member) and identity (one flip per member
    and codeword bit) draw in blocks of whole classes (``_blocks``);
    confirmation, the one data-dependent draw and the last, draws one
    majority row of r2 copies for each cell whose single believer is not its
    center.
    Each phase is charged once; a captured trace gets one run-length record
    per (class, phase), the class's records phase by phase.
    """
    layout = stage1_layout(grid, coloring, config, "max")
    stage = cells, bounds, sizes, centers = _classes_end_to_end(grid, coloring)
    code, length, r2 = config.id_code, config.block_len, config.r2
    per_cell = lambda per_class: np.repeat(per_class, np.diff(bounds))
    bases, spans, largest = map(np.array, list(zip(*layout))[1:])
    bases, id_bases, confirm_bases = config.phase_slots(bases, largest)
    traced = [] if channel.trace is not None else None

    # Discovery: the least member decoded as 1, else the least member.
    witnesses = np.empty(cells.size, dtype=np.int64)
    local = np.empty(cells.size, dtype=np.int64)  # the witness's in-cell index
    for part, members, block_sizes, decoded in _majority_phase(
        grid, stage, bases, config.c_rep, "discovery", channel, traced
    ):
        starts = block_sizes.cumsum() - block_sizes
        first_one = np.minimum.reduceat(
            np.where(decoded == 1, np.arange(members.size), members.size), starts
        )
        pick = np.where(first_one == members.size, starts, first_one)
        witnesses[part] = members[pick]
        local[part] = pick - starts

    # Identity: every member decodes the witness's in-cell index.
    if traced is not None:
        traced += [
            (k, ("identity", c, id_bases[k], length))
            for k, c in enumerate(np.split(centers, bounds[1:-1]))
        ]
    n_believers = np.empty(cells.size, dtype=np.int64)
    sender = np.empty(cells.size, dtype=np.int64)  # the first believer, else the least member
    for classes, part, members, block_sizes, block_centers in _blocks(
        grid, cells, bounds, sizes, length
    ):
        starts = block_sizes.cumsum() - block_sizes
        rows = np.arange(members.size)
        own_center = block_centers.repeat(block_sizes)
        flips = channel.flip_mask(
            (members.size, length),
            slots=lambda: per_cell(id_bases)[part].repeat(block_sizes)[:, None] + np.arange(length),
            txs=own_center[:, None],
            rxs=members[:, None],
        )
        believes = code.decode_equals(
            local[part].repeat(block_sizes), flips, rows - starts.repeat(block_sizes)
        )
        is_center = members == own_center
        believes[is_center] = (witnesses[part] == block_centers).repeat(block_sizes)[is_center]
        n_believers[part] = np.add.reduceat(believes, starts, dtype=np.int64)
        first = np.minimum.reduceat(np.where(believes, rows, members.size), starts)
        sender[part] = members[np.where(n_believers[part] == 1, first, starts)]
        if traced is not None:
            pieces = _by_class(classes, bounds, block_sizes, members, believes)
            traced += [
                (k, ("confirmation", m[b], confirm_bases[k], r2, True)) for k, m, b in pieces
            ]
    channel.metrics.add("stage1", tx=length * cells.size, rx=length * int(sizes.sum() - cells.size))

    # Confirmation: a single believer's bit, r2 noisy copies unless it is
    # the center; silence and collisions decode to 0.
    single = n_believers == 1
    values = np.where(single, channel.instance.bits[sender], 0)
    sends = np.flatnonzero(single & (sender != centers))
    values[sends] ^= channel.majority_mask(
        (sends.size, r2),
        slots=lambda: per_cell(confirm_bases)[sends, None] + np.arange(r2),
        txs=sender[sends, None],
        rxs=centers[sends, None],
    )
    heard = n_believers > 0
    channel.metrics.add(
        "stage1",
        tx=r2 * int(n_believers.sum()),
        rx=r2 * int((sizes - n_believers)[heard].sum()),
        slots=int(spans.sum()),
    )

    _record_class_major(channel, traced)
    cell_ids = cells.tolist()
    return Stage1Result(
        witnesses=dict(zip(cell_ids, witnesses.tolist())),
        values=dict(zip(cell_ids, values.tolist())),
    )


def run_stage1_hist(
    grid: CellGrid,
    coloring: list[ScheduleClass],
    config: Stage1Config,
    channel: Channel,
) -> Stage1Result:
    """Count each cell's ones at its center by per-member repetition.

    Members broadcast their bit r2 times in ascending id order (r2 * N
    transmissions per cell); the center majority-decodes each member and
    reports how many decoded to 1, one majority row per member.  Every draw
    count depends only on the layout, so the classes are drawn and counted in
    blocks of whole classes, in class, cell and member order.
    """
    layout = stage1_layout(grid, coloring, config, "hist")
    stage = _classes_end_to_end(grid, coloring)
    bases, spans, _ = map(np.array, list(zip(*layout))[1:])
    traced = [] if channel.trace is not None else None
    counts = np.empty(stage[0].size, dtype=np.int64)
    for part, _, block_sizes, decoded in _majority_phase(
        grid, stage, bases, config.r2, "hist_count", channel, traced
    ):
        counts[part] = np.add.reduceat(decoded, block_sizes.cumsum() - block_sizes, dtype=np.int64)
    channel.metrics.add("stage1", slots=int(spans.sum()))
    _record_class_major(channel, traced)
    return Stage1Result(counts=dict(zip(stage[0].tolist(), counts.tolist())))
