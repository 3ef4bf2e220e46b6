"""Intra-cell computation (stage 1).

Every cell behaves as a single-hop cluster scheduled by the reuse coloring:
all cells of one color class run their scripts in lockstep while other
classes stay silent.  For the MAX protocol the script is

  discovery     -- members broadcast their bit a fixed odd number of times in
                   ascending id order; the center majority-decodes each member
                   and names the least id seen holding a 1 as the witness;
  identity      -- the center broadcasts the witness's in-cell index through
                   the block code, one codeword bit per slot, and every member
                   decodes it independently; the code carries
                   ceil(log2 L) message bits, L the largest cell, since every
                   index it sends or compares with is below L;
  confirmation  -- slots reserved for "the witness": every member believing
                   itself the witness transmits its bit; the center majority-
                   decodes, treating collisions as erasures (all-erased
                   defaults to 0).

The histogram variant replaces the script with per-member repetition: the
center majority-decodes each member's bit and counts the ones.

Noise is drawn phase by phase (RNG layout 6).  For MAX: discovery for every
class, then identity for every class, then confirmation for every class,
each phase in class, cell and member order; the histogram's one counting
phase in the same order.  A majority-decoded member (discovery,
confirmation, counting) is one uniform against the majority tail of its
copies (``Channel.majority_mask``).  Identity draws, per member, only what
nearest-codeword decoding reads (``Channel.code_errors``): under iid noise
the error weight, then where the distance shortcuts need it the overlap with
the candidate's codeword difference, then where they leave the decode open
the error pattern, each a pass over the members; under an adversary one
flip per codeword bit.  Every phase is one draw over all its members, under
every noise model, so a hook sees the channel as it was when its phase's
draw began.  The slots are the schedule's, whatever the draw order: classes
take turns and a class's cells run in lockstep.  Confirmation, the one draw
whose size depends on the data, comes last, so it moves no other draw.  No
stream depends on where the buffers of ``channel.FLIP_CHUNK`` cut, and
decoding draws nothing, so they bound memory without moving a draw.

A captured trace gets one run-length record per phase, in draw order:
discovery, identity and confirmation for MAX, counting for the histogram.
Discovery and identity schedules are pure functions of the geometry and the
configuration; only the confirmation transmitter is data-dependent, which the
run audit treats as a documented exception.

Each MAX phase is stated once, as a function over gathered cells
(``_discovery``, ``_identity``, ``_confirmation``): ``run_stage1_max`` runs
them over every cell, and ``witness_discovery``, ``distribute_identity``
and ``confirm_value`` run one of them in one cell.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

import numpy as np

from .channel import Channel, ScheduleClass, TraceRecord, _classes_end_to_end
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
def _id_code_for(msg_bits: int, block_len: int, seed: int) -> BlockCode:
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
        largest_cell: int | None = None,
    ) -> "Stage1Config":
        """Derive defaults for an n-node network and check the discovery budget.

        r2 defaults to the smallest odd integer >= 3 ln n.  The identity code
        carries ceil(log2 L) message bits (at least one), L the largest cell's
        occupancy, or n when no world is given: every in-cell index is below
        L.  Its block length defaults to 4 ceil(log2 n), whatever L is.  The
        code is shared by every call with the same message bits, block length
        and code seed.  Construction fails if c_rep repetitions cannot keep
        the per-member majority-flip probability within the witness-miss
        budget at the given eps0, or if block_len is below the message bits.
        """
        if r2 is None:
            r2 = smallest_odd_at_least(3.0 * math.log(n))
        if block_len is None:
            block_len = 4 * max(1, math.ceil(math.log2(n)))
        msg_bits = max(1, math.ceil(math.log2(largest_cell or n)))
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
    """Per-cell outcomes of stage 1 as int64 arrays by cell number, entry 0
    unused: each cell's bit (MAX) or count (histogram), and its MAX witness."""

    values: np.ndarray
    witnesses: np.ndarray | None = None


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


def _discovery(members, sizes, centers, bases, config: Stage1Config, channel: Channel):
    """Discovery in the gathered cells: each center names the least member it
    decodes as 1, else the least member.  Returns each witness's index into
    members."""
    starts = sizes.cumsum() - sizes
    decoded = _majority_phase(members, sizes, centers, bases, config.c_rep, "discovery", channel)
    first_one = np.minimum.reduceat(
        np.where(decoded == 1, np.arange(members.size), members.size), starts
    )
    return np.where(first_one == members.size, starts, first_one)


def _identity(members, sizes, centers, id_bases, pick, config: Stage1Config, channel: Channel):
    """Identity in the gathered cells: each center sends the in-cell index of
    its witness members[pick], one codeword bit per slot from its id_bases
    slot, and every member decodes it.  Returns whether each member believes
    it is its cell's witness.

    Every member is one row of one ``Channel.code_errors`` batch, in member
    order: the distance shortcuts settle most rows, and the rows they leave
    open are decoded in one ``BlockCode.decode_equals`` call.  A center
    answers whether it named itself without decoding."""
    code, length = config.id_code, config.block_len
    starts = sizes.cumsum() - sizes
    # Each member's cell, the witness's in-cell index and its own, as int32:
    # they are the phase's only arrays of more than a byte per member.
    rank = np.repeat(np.arange(sizes.size, dtype=np.int32), sizes)
    is_center = members == centers[rank]
    sent = (pick - starts).astype(np.int32)[rank]
    own = np.arange(members.size, dtype=np.int32) - starts.astype(np.int32)[rank]
    believes = sent == own
    slots = lambda: id_bases[rank, None] + np.arange(length)  # built only for a hook
    rows, flips = channel.code_errors(
        code, sent, own, slots=slots, txs=lambda: centers[rank, None], rxs=members[:, None]
    )
    believes[rows] = code.decode_equals(sent[rows], flips, own[rows])
    believes[is_center] = sent[is_center] == own[is_center]
    channel.record("identity", centers, id_bases, length)
    channel.metrics.add("stage1", tx=length * sizes.size, rx=length * int(sizes.sum() - sizes.size))
    return believes


def _confirmation(members, sizes, centers, confirm_bases, believes, config: Stage1Config, channel):
    """Confirmation in the gathered cells: a cell's single believer sends its
    bit from its confirm_bases slot, r2 copies that the center majority-
    decodes unless it is the center; silence and collisions decode to 0.
    Returns each cell's value."""
    r2 = config.r2
    starts = sizes.cumsum() - sizes
    n_believers = np.add.reduceat(believes, starts, dtype=np.int64)
    believers = np.flatnonzero(believes)  # cell by cell
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
        "stage1", tx=r2 * int(n_believers.sum()), rx=r2 * int((sizes - n_believers)[heard].sum())
    )
    return values


def run_stage1_max(
    grid: CellGrid,
    coloring: list[ScheduleClass],
    config: Stage1Config,
    channel: Channel,
) -> Stage1Result:
    """Run discovery, identity, and confirmation in every cell.

    Color classes execute sequentially; cells inside a class run in lockstep,
    so a class occupies c_rep * max_members + block_len + r2 slots.  Noise is
    drawn phase by phase (RNG layout 6): discovery,
    identity, then confirmation, each over every class in class, cell and
    member order.  Each phase is charged once; a captured trace gets one
    run-length record per phase, in draw order.
    """
    layout = stage1_layout(grid, coloring, config, "max")
    cells, members, sizes, centers, bases, id_bases, confirm_bases = _cells_of(grid, layout, config)
    pick = _discovery(members, sizes, centers, bases, config, channel)
    believes = _identity(members, sizes, centers, id_bases, pick, config, channel)
    values = _confirmation(members, sizes, centers, confirm_bases, believes, config, channel)
    channel.metrics.add("stage1", slots=sum(span for _, _, span, _ in layout))
    by_cell = np.zeros((2, len(grid) + 1), dtype=np.int64)
    by_cell[:, cells] = values, members[pick]
    return Stage1Result(*by_cell)


def witness_discovery(cell: Cell, config: Stage1Config, channel: Channel, slot0: int = 0) -> int:
    """Run discovery in one cell from slot0 and return the chosen witness."""
    members, sizes, centers = cell.members, np.array([cell.size]), np.array([cell.center])
    pick = _discovery(members, sizes, centers, np.array([slot0]), config, channel)
    return int(members[pick[0]])


def distribute_identity(
    cell: Cell, witness: int, config: Stage1Config, channel: Channel, slot0: int = 0
) -> list[int]:
    """Run identity in one cell from slot0 and return the members that believe
    they are the witness, a member of the cell."""
    members, sizes, centers = cell.members, np.array([cell.size]), np.array([cell.center])
    pick = np.searchsorted(members, [witness])
    if pick[0] == members.size or members[pick[0]] != witness:
        raise ValueError(f"witness {witness} is not a member of cell {cell.index}")
    believes = _identity(members, sizes, centers, np.array([slot0]), pick, config, channel)
    return members[believes].tolist()


def confirm_value(
    cell: Cell, believers: list[int], config: Stage1Config, channel: Channel, slot0: int = 0
) -> int:
    """Run confirmation in one cell from slot0 and return the cell's bit; the
    believers must be distinct members of the cell."""
    members, sizes, centers = cell.members, np.array([cell.size]), np.array([cell.center])
    believes = np.isin(members, believers)
    if np.count_nonzero(believes) != len(believers):
        raise ValueError(f"believers {believers} are not distinct members of cell {cell.index}")
    values = _confirmation(members, sizes, centers, np.array([slot0]), believes, config, channel)
    return int(values[0])


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
    counts = np.zeros(len(grid) + 1, dtype=np.int64)
    counts[cells] = np.add.reduceat(decoded, sizes.cumsum() - sizes)
    channel.metrics.add("stage1", slots=sum(span for _, _, span, _ in layout))
    return Stage1Result(counts)
