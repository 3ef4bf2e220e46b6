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

Noise is drawn phase by phase (RNG layout 7).  For MAX: discovery in every
cell, then identity in every cell, then confirmation in every cell, each
phase in cell and member order, as the grid lists them; the histogram's one
counting phase in the same order.  A majority-decoded member (discovery,
confirmation, counting) is one uniform against the majority tail of its
copies (``Channel.majority_mask``).  Identity draws only what nearest-
codeword decoding reads (``Channel.code_errors``): under iid noise one
uniform per member, and only for the members whose uniform reaches the
error-weight CDF's partial sum number ceil(min_distance / 2) the weight,
then where the distance shortcuts need it the overlap with the candidate's
codeword difference, then where they leave the decode open the error
pattern; the believers are the witnesses, overwritten by the decodes of
the open rows that are not centers.  Under an adversary identity draws one
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

Each MAX phase is stated once, as a function over cells given end to end
(``_discovery``, ``_identity``, ``_confirmation``): ``run_stage1_max`` runs
them over every cell, and ``witness_discovery``, ``distribute_identity``
and ``confirm_value`` run one of them in one cell.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

import numpy as np

from .channel import Channel, Coloring, TraceRecord
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


def _center_rows(members, sizes, centers) -> np.ndarray:
    """Each given cell's center as an index into members, -1 for an empty
    cell.  A center is its cell's first member except in the sink cell (and
    in any cell of a hand-built grid), whose members alone are searched."""
    starts = sizes.cumsum() - sizes
    rows = np.where(sizes > 0, starts, -1)
    occupied = np.flatnonzero(sizes > 0)
    odd = occupied[members[starts[occupied]] != centers[occupied]]
    counts = sizes[odd]
    at = np.arange(counts.sum()) + np.repeat(starts[odd] - (counts.cumsum() - counts), counts)
    rows[odd] = at[members[at] == centers[odd].repeat(counts)]
    return rows


def _cell_sums(values, sizes) -> np.ndarray:
    """Each given cell's sum of its members' values, 0 for an empty cell:
    one reduceat over the occupied cells' starts."""
    occupied = sizes > 0
    sums = np.zeros(sizes.size, dtype=np.int64)
    sums[occupied] = np.add.reduceat(values, (sizes.cumsum() - sizes)[occupied], dtype=np.int64)
    return sums


def _majority_phase(members, sizes, centers, cell_base, reps: int, phase: str, channel: Channel):
    """Per-member repetition to each cell's center, the cells in lockstep.

    The cells come end to end, as _cells_of gives them; cell i's members
    send their bit in turn from slot cell_base[i], reps slots each.  The
    center majority-decodes every member, and its own broadcasts are
    noiseless to itself.  Noise is one majority draw (``Channel.majority_mask``), one
    uniform per member, cell by cell, member by member; each member's first
    slot and center are built only for a hook or a trace, once.  Traces the
    phase as one record, charges it, and returns the members' decoded bits.
    """
    firsts = cache(lambda: _member_firsts(sizes, cell_base, reps))
    own_center = cache(lambda: centers.repeat(sizes))

    def where(at):  # the members' copies' slots, themselves and their center
        return firsts()[at, None] + np.arange(reps), members[at, None], own_center()[at, None]

    bits = channel.instance.bits[members]
    decoded = bits ^ channel.majority_mask((members.size, reps), where=where)
    own = _center_rows(members, sizes, centers)
    own = own[own >= 0]
    decoded[own] = bits[own]
    if channel.trace is not None:
        channel.record(phase, members, firsts(), reps)
    channel.metrics.add("stage1", tx=reps * int(sizes.sum()), rx=reps * int(sizes.dot(sizes - 1)))
    return decoded


def stage1_layout(
    grid: CellGrid, coloring: Coloring, config: Stage1Config, protocol: str
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each color class's first slot, slot span and largest cell size, as
    (bases, spans, largest): int64 arrays with one entry per class.

    Classes run one after another in coloring order, and the cells of a class
    in lockstep, so a class spans its largest cell's script: c_rep * N +
    block_len + r2 slots for MAX, r2 * N for the histogram.
    """
    largest = np.maximum.reduceat(grid.occupancies()[coloring.cells - 1], coloring.bounds[:-1])
    spans = config.script_len(largest) if protocol == "max" else config.r2 * largest
    return spans.cumsum() - spans, spans, largest


def _cells_of(grid: CellGrid, coloring: Coloring, layout, config: Stage1Config):
    """The cells that run stage 1, every cell of the coloring, in cell order;
    their members end to end, sizes and centers, the grid's own arrays when
    every cell is colored (else as CellGrid.gather gives them); and each
    cell's first discovery (or counting) slot and, for MAX, its first
    identity and confirmation slots: its class's, from the coloring's
    stage1_layout."""
    bases, _, largest = layout
    cells = np.flatnonzero(coloring.colors[1:] >= 0) + 1
    if cells.size == len(grid):
        members, sizes, centers = grid.members, grid.occupancies(), grid.centers
    else:
        members, sizes, centers = grid.gather(cells)
    rank = np.searchsorted(coloring.palette, coloring.colors[cells])  # each cell's class
    firsts = config.phase_slots(bases, largest)
    return cells, members, sizes, centers, *(f[rank] for f in firsts)


def stage1_schedule(
    grid: CellGrid, coloring: Coloring, layout, config: Stage1Config, protocol: str
) -> list[TraceRecord]:
    """The records a run of the coloring's stage1_layout leaves for its
    data-independent phases.

    One run-length record per phase, the coloring's cells end to end in cell
    order: MAX discovery then identity, or histogram counting.  Every cell
    starts at its class's first slot.  MAX discovery and histogram counting
    send the members in id order, c_rep or r2 slots each; MAX identity sends
    each center for block_len slots from the identity slot.
    """
    _, members, sizes, centers, bases, id_bases, _ = _cells_of(grid, coloring, layout, config)
    reps, phase = (config.c_rep, "discovery") if protocol == "max" else (config.r2, "hist_count")
    records = [TraceRecord(phase, members, _member_firsts(sizes, bases, reps), reps)]
    if protocol == "max":
        records.append(TraceRecord("identity", centers, id_bases, config.block_len))
    return records


def _discovery(members, sizes, centers, bases, config: Stage1Config, channel: Channel):
    """Discovery in the given cells: each center names the least member it
    decodes as 1, else the least member.  Returns each witness's index into
    members (an empty cell's start)."""
    starts = sizes.cumsum() - sizes
    decoded = _majority_phase(members, sizes, centers, bases, config.c_rep, "discovery", channel)
    ones = np.append(np.flatnonzero(decoded), members.size)
    first_one = ones[np.searchsorted(ones, starts)]
    return np.where(first_one < starts + sizes, first_one, starts)


def _identity(members, sizes, centers, id_bases, pick, config: Stage1Config, channel: Channel):
    """Identity in the given cells: each center sends the in-cell index of
    its witness members[pick], one codeword bit per slot from its id_bases
    slot, and every member decodes it.  Returns whether each member believes
    it is its cell's witness.

    Every member is one row of one ``Channel.code_errors`` batch, in member
    order, sent its witness's index and asking about its own.  Under iid
    noise a row draws one uniform, and only the rows whose uniform reaches
    the weight CDF's partial sum number ceil(min_distance / 2) draw their
    weight, overlap and pattern.  The believers are the witnesses, overwritten
    by the decodes of the rows the distance shortcuts leave open, in one
    ``BlockCode.decode_equals`` call; a center answers whether it named
    itself without decoding.  Under a hook every row draws one flip per
    codeword bit, and ``where(at)`` gives a chunk of rows' receptions: its
    cell's codeword slots, sent by its cell's center to the row's member.
    ``where`` and ``pairs`` each find their rows' cells once per call and
    read per-cell arrays, so no per-member array is built."""
    code, length = config.id_code, config.block_len
    starts = sizes.cumsum() - sizes
    # The witness's in-cell index and each cell's first row, as int32 like the rows.
    sent, first = (pick - starts).astype(np.int32), starts.astype(np.int32)
    cell_of = lambda at: np.searchsorted(starts, at, side="right") - 1

    def pairs(at):  # the rows' witness index and own in-cell index
        cell = cell_of(at)
        return sent[cell], at - first[cell]

    def where(at):  # the rows' codeword slots, their center and themselves
        cell = cell_of(at)
        return id_bases[cell, None] + np.arange(length), centers[cell, None], members[at, None]

    rows, flips = channel.code_errors(code, members.size, pairs, where=where)
    believes = np.zeros(members.size, dtype=bool)
    believes[pick[sizes > 0]] = True
    witness, own = pairs(rows)
    decoded = code.decode_equals(witness, flips, own)
    listening = rows != _center_rows(members, sizes, centers)[cell_of(rows)]
    believes[rows[listening]] = decoded[listening]
    channel.record("identity", centers, id_bases, length)
    channel.metrics.add("stage1", tx=length * sizes.size, rx=length * int(sizes.sum() - sizes.size))
    return believes


def _confirmation(members, sizes, centers, confirm_bases, believes, config: Stage1Config, channel):
    """Confirmation in the given cells: a cell's single believer sends its
    bit from its confirm_bases slot, r2 copies that the center majority-
    decodes unless it is the center; silence and collisions decode to 0.
    Returns each cell's value."""
    r2 = config.r2
    n_believers = _cell_sums(believes, sizes)
    believers = np.flatnonzero(believes)  # cell by cell
    single = n_believers == 1
    sender = centers.copy()
    sender[single] = members[believers[single.repeat(n_believers)]]
    values = np.where(single, channel.instance.bits[sender], 0)
    sends = np.flatnonzero(single & (sender != centers))

    def where(at):  # the sending cells' slots, sender and center
        cell = sends[at]
        return confirm_bases[cell, None] + np.arange(r2), sender[cell, None], centers[cell, None]

    values[sends] ^= channel.majority_mask((sends.size, r2), where=where)
    if channel.trace is not None:
        channel.record("confirmation", members[believers], confirm_bases.repeat(n_believers), r2)
    heard = n_believers > 0
    channel.metrics.add(
        "stage1", tx=r2 * int(n_believers.sum()), rx=r2 * int((sizes - n_believers)[heard].sum())
    )
    return values


def run_stage1_max(
    grid: CellGrid,
    coloring: Coloring,
    config: Stage1Config,
    channel: Channel,
) -> Stage1Result:
    """Run discovery, identity, and confirmation in every cell.

    Color classes execute sequentially; cells inside a class run in lockstep,
    so a class occupies c_rep * max_members + block_len + r2 slots.  Noise is
    drawn phase by phase (RNG layout 7): discovery, identity, then
    confirmation, each over every cell in cell and member order, each cell at
    its class's slots.  Each phase is charged once; a captured trace gets one
    run-length record per phase, in draw order.
    """
    layout = stage1_layout(grid, coloring, config, "max")
    cells, members, sizes, centers, bases, id_bases, confirm_bases = _cells_of(
        grid, coloring, layout, config
    )
    pick = _discovery(members, sizes, centers, bases, config, channel)
    believes = _identity(members, sizes, centers, id_bases, pick, config, channel)
    values = _confirmation(members, sizes, centers, confirm_bases, believes, config, channel)
    channel.metrics.add("stage1", slots=int(layout[1].sum()))
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
    coloring: Coloring,
    config: Stage1Config,
    channel: Channel,
) -> Stage1Result:
    """Count each cell's ones at its center by per-member repetition.

    Members broadcast their bit r2 times in ascending id order (r2 * N
    transmissions per cell); the center majority-decodes each member and
    reports how many decoded to 1.  The counting phase is one majority draw,
    one row per member in cell and member order; a captured trace
    gets the phase's one record.
    """
    layout = stage1_layout(grid, coloring, config, "hist")
    cells, members, sizes, centers, bases, _, _ = _cells_of(grid, coloring, layout, config)
    decoded = _majority_phase(members, sizes, centers, bases, config.r2, "hist_count", channel)
    counts = np.zeros(len(grid) + 1, dtype=np.int64)
    counts[cells] = _cell_sums(decoded, sizes)
    channel.metrics.add("stage1", slots=int(layout[1].sum()))
    return Stage1Result(counts)
