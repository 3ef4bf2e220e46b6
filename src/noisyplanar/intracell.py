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
comes last, so it moves no other draw.  A majority phase is one draw over
all its members.  Identity is drawn in blocks of cells of at most
``STAGE1_BLOCK`` receptions (a larger cell alone); the stream in C order
does not depend on the block size, so the blocks bound memory without moving
a draw.  Identity decoding is a shortcut per block and one search per phase:
each block's members are settled by the code's distance shortcuts as their
flips are drawn (``BlockCode.settle``), and the few rows left open are
searched together after the last block (``BlockCode.decode_equals``).
Decoding draws nothing, so this moves no draw either.

A captured trace gets one run-length record per phase, in draw order:
discovery, identity and confirmation for MAX, counting for the histogram.
Discovery and identity schedules are pure functions of the geometry and the
configuration; only the confirmation transmitter is data-dependent, which the
run audit treats as a documented exception.

``witness_discovery``, ``distribute_identity`` and ``confirm_value`` run one
phase in one cell.  They are not on the run path; they are the per-cell
reference that the phase-drawn ``run_stage1_max`` is tested against.
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

# The identity phase draws its members in blocks of cells of at most this many
# receptions, a larger cell alone (see ``_blocks``).
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


def _member_firsts(sizes: np.ndarray, cell_first: np.ndarray, reps: int) -> np.ndarray:
    """Each member's first slot when the members of each cell send reps slots
    each in turn from their cell's first slot; member i's slots are
    firsts[i] + arange(reps)."""
    starts = sizes.cumsum() - sizes
    return (cell_first - reps * starts).repeat(sizes) + reps * np.arange(sizes.sum())


def _majority_phase(members, sizes, centers, cell_base, reps: int, phase: str, channel: Channel):
    """Per-member repetition to each cell's center, the cells in lockstep.

    The cells come as CellGrid.gather gives them; cell i's members send
    their bit in turn from slot cell_base[i], reps slots each.  The center
    majority-decodes every member, and its own broadcasts are noiseless to
    itself.  Noise is one majority draw (``Channel.majority_mask``), one
    uniform per member, cell by cell, member by member.  Traces the phase as
    one record, charges it, and returns the members' decoded bits.
    """
    firsts = _member_firsts(sizes, cell_base, reps)
    own_center = centers.repeat(sizes)
    bits = channel.instance.bits[members]
    decoded = bits ^ channel.majority_mask(
        (members.size, reps),
        slots=lambda: firsts[:, None] + np.arange(reps),  # built only for an adversary's hook
        txs=members[:, None],
        rxs=own_center[:, None],
    )
    is_center = members == own_center
    decoded[is_center] = bits[is_center]
    channel.record(phase, members, firsts, reps)
    channel.metrics.add("stage1", tx=reps * int(sizes.sum()), rx=reps * int(sizes.dot(sizes - 1)))
    return decoded


def witness_discovery(cell: Cell, config: Stage1Config, channel: Channel, slot0: int = 0) -> int:
    """Run the discovery schedule in one cell and return the chosen witness.

    Members repeat their bit c_rep times each to the center, which picks the
    least id whose decoded bit is 1, falling back to the least id when none
    is seen.  The per-cell reference for ``run_stage1_max``; not on the run
    path.
    """
    members, sizes, centers = cell.members, np.array([cell.size]), np.array([cell.center])
    decoded = _majority_phase(
        members, sizes, centers, np.array([slot0]), config.c_rep, "discovery", channel
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

    channel.record("confirmation", believers, slot0, config.r2)
    channel.metrics.add(
        "stage1",
        tx=config.r2 * n_believers,
        rx=config.r2 * (n_members - n_believers) if n_believers else 0,
    )
    return value


def _classes_end_to_end(coloring: list[ScheduleClass]):
    """The classes' cells end to end, class k's at cells[bounds[k]:bounds[k + 1]]."""
    counts = [len(cls.cells) for cls in coloring]
    cells = np.fromiter(chain.from_iterable(cls.cells for cls in coloring), np.int64, sum(counts))
    return cells, np.concatenate([[0], np.cumsum(counts)])


def stage1_layout(
    grid: CellGrid, coloring: list[ScheduleClass], config: Stage1Config, protocol: str
) -> list[tuple[ScheduleClass, int, int, int]]:
    """Each color class's (class, first slot, slot span, largest cell size).

    Classes run one after another in coloring order, and the cells of a class
    in lockstep, so a class spans its largest cell's script: c_rep * N +
    block_len + r2 slots for MAX, r2 * N for the histogram.
    """
    cells, bounds = _classes_end_to_end(coloring)
    largest = np.maximum.reduceat(grid.occupancies()[cells - 1], bounds[:-1])
    spans = config.script_len(largest) if protocol == "max" else config.r2 * largest
    bases = spans.cumsum() - spans
    return list(zip(coloring, bases.tolist(), spans.tolist(), largest.tolist()))


def _cells_of(grid: CellGrid, layout, config: Stage1Config):
    """A stage1_layout's cells end to end; their members end to end, sizes
    and centers as CellGrid.gather gives them; and each cell's first
    discovery (or counting) slot and, for MAX, its first identity and
    confirmation slots."""
    coloring, bases, _, largest = zip(*layout)
    cells, bounds = _classes_end_to_end(list(coloring))
    firsts = config.phase_slots(np.array(bases), np.array(largest))
    return cells, *grid.gather(cells), *(np.repeat(f, np.diff(bounds)) for f in firsts)


def stage1_schedule(
    grid: CellGrid, layout, config: Stage1Config, protocol: str
) -> list[TraceRecord]:
    """The records a run of this stage1_layout leaves for its data-independent phases.

    One run-length record per phase, every class's cells end to end in
    layout order: MAX discovery then identity, or histogram counting.  Every
    cell starts at its class's first slot.  MAX discovery and histogram
    counting send the members in id order, c_rep or r2 slots each; MAX
    identity sends each center for block_len slots from the identity slot.
    """
    _, members, sizes, centers, bases, id_bases, _ = _cells_of(grid, layout, config)
    reps, phase = (config.c_rep, "discovery") if protocol == "max" else (config.r2, "hist_count")
    records = [TraceRecord(phase, members, _member_firsts(sizes, bases, reps), reps)]
    if protocol == "max":
        records.append(TraceRecord("identity", centers, id_bases, config.block_len))
    return records


def _blocks(sizes: np.ndarray, reps: int):
    """Runs of cells, each of at most STAGE1_BLOCK receptions at reps per
    member (a cell with more runs alone), in order.

    Yields each run's slice of the cells and its slice of their members end
    to end.
    """
    ends = sizes.cumsum()  # members by each cell's end
    lo = 0
    while lo < ends.size:
        start = int(ends[lo - 1]) if lo else 0
        hi = max(lo + 1, int(np.searchsorted(ends, start + STAGE1_BLOCK // reps, "right")))
        yield slice(lo, hi), slice(start, int(ends[hi - 1]))
        lo = hi


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
    Discovery is one majority draw, one row per member.  Identity draws one
    flip per member and codeword bit in blocks of cells (``_blocks``),
    settles each block's members by the distance shortcuts and searches the
    rows they leave open once, after its last block.  Confirmation, the one
    data-dependent draw and the last, draws one majority row of r2 copies
    for each cell whose single believer is not its center.
    Each phase is charged once; a captured trace gets one run-length record
    per phase, in draw order.
    """
    layout = stage1_layout(grid, coloring, config, "max")
    cells, members, sizes, centers, bases, id_bases, confirm_bases = _cells_of(grid, layout, config)
    code, length, r2 = config.id_code, config.block_len, config.r2
    starts = sizes.cumsum() - sizes  # each cell's first member

    # Discovery: the least member decoded as 1, else the least member.
    decoded = _majority_phase(members, sizes, centers, bases, config.c_rep, "discovery", channel)
    first_one = np.minimum.reduceat(
        np.where(decoded == 1, np.arange(members.size), members.size), starts
    )
    pick = np.where(first_one == members.size, starts, first_one)
    witnesses, local = members[pick], pick - starts  # local: the witness's in-cell index

    # Identity: every member decodes the witness's in-cell index.
    believes = np.empty(members.size, dtype=bool)
    still_open = []  # per block: its open rows' search inputs
    for part, at in _blocks(sizes, length):
        block_members, block_sizes, block_centers = members[at], sizes[part], centers[part]
        own_center = block_centers.repeat(block_sizes)
        flips = channel.flip_mask(
            (block_members.size, length),
            slots=lambda: id_bases[part].repeat(block_sizes)[:, None] + np.arange(length),
            txs=own_center[:, None],
            rxs=block_members[:, None],
        )
        true_msg = local[part].repeat(block_sizes)
        candidates = np.arange(at.start, at.stop) - starts[part].repeat(block_sizes)  # own index
        settled, rows = code.settle(true_msg, flips, candidates)
        # A center knows whether it named itself.
        is_center = block_members == own_center
        settled[is_center] = (witnesses[part] == block_centers).repeat(block_sizes)[is_center]
        rows = rows[~is_center[rows]]
        believes[at] = settled
        still_open.append((at.start + rows, true_msg[rows], flips[rows], candidates[rows]))
    # The rows the distance shortcuts leave open, searched once for the phase.
    rows, true_msg, flips, candidates = (np.concatenate(a) for a in zip(*still_open))
    believes[rows] = code.decode_equals(true_msg, flips, candidates)
    channel.record("identity", centers, id_bases, length)
    channel.metrics.add("stage1", tx=length * cells.size, rx=length * int(sizes.sum() - cells.size))

    # Confirmation: a cell's single believer, else its least member, sends its
    # bit, r2 noisy copies unless it is the center; silence and collisions
    # decode to 0.  The believers come cell by cell.
    n_believers = np.add.reduceat(believes, starts, dtype=np.int64)
    believers = np.flatnonzero(believes)
    single = n_believers == 1
    sender = members[starts]
    sender[single] = members[believers[single.repeat(n_believers)]]
    values = np.where(single, channel.instance.bits[sender], 0)
    sends = np.flatnonzero(single & (sender != centers))
    values[sends] ^= channel.majority_mask(
        (sends.size, r2),
        slots=lambda: confirm_bases[sends, None] + np.arange(r2),
        txs=sender[sends, None],
        rxs=centers[sends, None],
    )
    if channel.trace is not None:
        channel.record("confirmation", members[believers], confirm_bases.repeat(n_believers), r2)
    heard = n_believers > 0
    channel.metrics.add(
        "stage1",
        tx=r2 * int(n_believers.sum()),
        rx=r2 * int((sizes - n_believers)[heard].sum()),
        slots=sum(span for _, _, span, _ in layout),
    )

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
    reports how many decoded to 1.  The counting phase is one majority draw,
    one row per member in class, cell and member order; a captured trace
    gets the phase's one record.
    """
    layout = stage1_layout(grid, coloring, config, "hist")
    cells, members, sizes, centers, bases, _, _ = _cells_of(grid, layout, config)
    decoded = _majority_phase(members, sizes, centers, bases, config.r2, "hist_count", channel)
    counts = np.add.reduceat(decoded, sizes.cumsum() - sizes, dtype=np.int64)
    channel.metrics.add("stage1", slots=sum(span for _, _, span, _ in layout))
    return Stage1Result(counts=dict(zip(cells.tolist(), counts.tolist())))
