"""Inter-cell computation (stage 2) over the spanning tree of cells.

The tree is processed in sub-stages: each row is split into consecutive
linear arrays of at most ``levels_per_stage`` hops, run outer-to-inner toward
the sink's column, and the sink's column is then processed the same way
toward the sink.  Arrays inside one sub-stage are disjoint except that two
arrays may share their root (the two sides of a row meeting on the axis).

Each array runs ``simulate_line`` over the chain of its cell centers: a
noiseless line protocol -- running OR for MAX, a pipelined bit-serial adder
for the histogram -- protected by one of the three link simulation modes.
With repetition links, a sub-stage's arrays share one majority draw, one
uniform per decoded bit.  Distribution runs the plan in reverse, each array
root first as a repetition line, then broadcasts in every cell in one
majority draw.  One logical slot (a window in which every active tree link
fires once without protocol-model collisions) costs ``link_slot_span``
physical slots.  ``slot_ids`` numbers every reception by the slot the
counters charge it to.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cache, partial
from typing import Sequence

import numpy as np

from .channel import Channel, ScheduleClass, color_cells
from .coding import LineProtocol, LinkSimConfig, or_chain, repetition_errors, simulate_line
from .geometry import CellGrid, DerivedParams, SpanningTree

__all__ = [
    "CellArray",
    "Substage",
    "SubstagePlan",
    "build_substages",
    "count_bits_for",
    "adder_chain",
    "run_stage2_max",
    "run_stage2_hist",
    "stage2_cost",
    "subslots",
    "slot_ids",
    "distribute_result",
]


@dataclass(frozen=True)
class CellArray:
    """A linear array of cell indices, deepest cell first, root last."""

    cells: tuple[int, ...]

    @property
    def q(self) -> int:
        return len(self.cells)

    @property
    def root(self) -> int:
        return self.cells[-1]


@dataclass(frozen=True)
class Substage:
    phase: str  # "rows-to-axis" | "axis-to-sink"
    arrays: tuple[CellArray, ...]


@dataclass(frozen=True)
class SubstagePlan:
    levels_per_stage: int
    stages: tuple[Substage, ...]

    @property
    def arrays(self) -> list[CellArray]:
        return [a for s in self.stages for a in s.arrays]


def count_bits_for(n: int) -> int:
    """Bits needed to stream any count of ones among n nodes (0..n inclusive)."""
    return math.ceil(math.log2(n + 1))


def _segment(chain: list[int], max_hops: int) -> list[tuple[int, ...]]:
    """Split a chain (outer cell first) into consecutive arrays of <= max_hops."""
    hops = len(chain) - 1
    cuts = list(range(0, hops, max_hops)) + [hops]
    return [tuple(chain[a : b + 1]) for a, b in zip(cuts, cuts[1:])]


def build_substages(
    tree: SpanningTree, params: DerivedParams, levels_per_stage: int | None = None
) -> SubstagePlan:
    """Partition the tree into staged linear arrays of ~ln(n) hops each.

    Row chains flow toward the sink's column and are processed outer-to-inner;
    the sink's column then flows toward the sink.  Concatenating the arrays
    that contain a given cell traces that cell's tree path to the sink.
    """
    if levels_per_stage is None:
        levels_per_stage = max(1, math.ceil(math.log(params.n)))
    m = tree.grid_dim
    sink_row, sink_col = (tree.sink_cell - 1) // m, (tree.sink_cell - 1) % m
    idx = lambda r, c: r * m + c + 1

    row_chains: list[list[int]] = []
    for r in range(m):
        if sink_col > 0:
            row_chains.append([idx(r, c) for c in range(0, sink_col + 1)])
        if sink_col < m - 1:
            row_chains.append([idx(r, c) for c in range(m - 1, sink_col - 1, -1)])
    col_chains: list[list[int]] = []
    if sink_row > 0:
        col_chains.append([idx(r, sink_col) for r in range(0, sink_row + 1)])
    if sink_row < m - 1:
        col_chains.append([idx(r, sink_col) for r in range(m - 1, sink_row - 1, -1)])

    stages: list[Substage] = []
    for phase, chains in (("rows-to-axis", row_chains), ("axis-to-sink", col_chains)):
        segmented = [_segment(chain, levels_per_stage) for chain in chains]
        depth = max((len(s) for s in segmented), default=0)
        for level in range(depth):
            arrays = tuple(CellArray(s[level]) for s in segmented if len(s) > level)
            stages.append(Substage(phase=phase, arrays=arrays))
    return SubstagePlan(levels_per_stage=levels_per_stage, stages=tuple(stages))


def adder_chain(counts: Sequence[int], width: int) -> LineProtocol:
    """Pipelined bit-serial addition along an array, streaming LSB first.

    The deepest node streams its count's bits; each interior node lags one
    round, full-adding its own count into the passing stream, so the schedule
    closes after q + width - 1 rounds.  Serial addition of an LSB-first
    stream is integer addition, so a node's step adds its count to the value
    it receives.  All arithmetic is modulo 2^width -- the stream simply never
    carries a higher bit.
    """
    vals = [int(c) for c in counts]
    q = len(vals)
    if q < 2:
        raise ValueError("a line protocol needs at least two nodes")
    mod = 1 << width
    for c in vals:
        if not (0 <= c < mod):
            raise ValueError(f"count {c} does not fit in {width} bits")
    return LineProtocol(
        q=q,
        rounds=q + width - 1,
        width=width,
        step=lambda i, received: (received + vals[i]) % mod,
        corrupt=lambda rng: int(rng.integers(0, mod)),
    )


def _array_endpoints(cells: tuple[int, ...], grid: CellGrid) -> list[tuple[int, int]]:
    centers = grid.centers[np.asarray(cells) - 1].tolist()
    return list(zip(centers, centers[1:]))


def subslots(coloring: list[ScheduleClass]) -> dict[int, int]:
    """Each cell's subslot in a logical inter-cell slot: its color in the coloring."""
    return {j: cls.color for cls in coloring for j in cls.cells}


def slot_ids(start: int, logical, lane, lanes: int) -> np.ndarray:
    """Slot ids on the clock the counters charge: logical slot l of a stage
    from ``start`` (the slots charged before it) holds ``lanes`` slots, and
    lane k of it is start + l * lanes + k.  A link into or out of deeper cell
    j has link_slot_span lanes and fires in lane subslots(coloring)[j], plus
    interference_bound + 1 when relaying down; the broadcast gives each color
    class one logical slot, its r2 copies in the lanes."""
    return start + np.asarray(logical) * lanes + lane


def _link_slots(start, subslot, params, bank, chains):
    """``slots`` for the chains' links end to end, up (bank 0) or down from the root (1)."""
    colors = lambda: [subslot()[j] for cells in chains for j in (cells[1:] if bank else cells[:-1])]
    lanes = lambda: bank * (params.interference_bound + 1) + np.array(colors(), dtype=np.int64)
    return lambda logical: slot_ids(start, logical.T, lanes(), params.link_slot_span).T


def _link_errors(chains, width, config, channel, grid, clock) -> list:
    """Each chain's link error words from one repetition draw for the whole
    sub-stage (``repetition_errors``), in chain order; in the other modes
    None per chain, as those draw array by array."""
    if config.mode != "repetition":
        return [None] * len(chains)
    tx = [j for cells in chains for j in cells[:-1]]
    rx = [j for cells in chains for j in cells[1:]]
    ends = grid.centers[np.array([tx, rx], dtype=np.int64).T - 1]
    links = [len(cells) - 1 for cells in chains]
    return repetition_errors(links, width, config.r3, channel, ends, clock(chains))


def _run_stage2(plan, state, line_for, width, config, channel, grid, params):
    """Run the plan's arrays stage by stage; each root takes its array's result.

    Arrays run in plan order, so the second of two arrays sharing a root
    (the two sides of a row) builds its protocol on the first one's result.
    """
    subslot = cache(lambda: subslots(color_cells(grid, params)))  # read only by a hook
    for stage in plan.stages:
        stage_logical = 0
        chains = [array.cells for array in stage.arrays]
        clock = partial(_link_slots, channel.metrics.slots_total, subslot, params, 0)
        for cells, errors in zip(chains, _link_errors(chains, width, config, channel, grid, clock)):
            proto = line_for([state[j] for j in cells])
            # Repetition links come with their error words; abstract ones need no ends.
            ends = _array_endpoints(cells, grid) if config.mode == "treecode" else None
            res = simulate_line(proto, config, channel, ends, errors, clock([cells]))
            state[cells[-1]] = res.values[-1]
            # Every inter-cell transmission targets a single center.
            channel.metrics.add("stage2", tx=res.tx, rx=res.tx)
            stage_logical = max(stage_logical, res.slots)
        channel.metrics.add("stage2", slots=stage_logical * params.link_slot_span)
        if channel.trace is not None:
            channel.trace.stage2_stages.append(chains)
    return state


def run_stage2_max(
    plan: SubstagePlan,
    stage1_values: dict[int, int],
    config: LinkSimConfig,
    channel: Channel,
    grid: CellGrid,
    params: DerivedParams,
    tree: SpanningTree,
) -> int:
    """Aggregate the per-cell bits up the tree; returns the value at the sink.

    Each array carries the running OR (``or_chain``) from its deepest cell to
    its root.  Arrays of one sub-stage run in parallel, so a sub-stage costs
    its longest array's logical slots times the link slot span; transmissions
    accumulate per array (r3 per link in abstract mode, per-bit repetition
    otherwise).
    """
    state = _run_stage2(plan, dict(stage1_values), or_chain, 1, config, channel, grid, params)
    return state[tree.sink_cell]


def run_stage2_hist(
    plan: SubstagePlan,
    stage1_counts: dict[int, int],
    config: LinkSimConfig,
    channel: Channel,
    grid: CellGrid,
    params: DerivedParams,
    tree: SpanningTree,
    width: int | None = None,
) -> int:
    """Sum the per-cell counts up the tree through the pipelined adder
    (``adder_chain``); returns the total at the sink."""
    if width is None:
        width = count_bits_for(params.n)
    line_for = partial(adder_chain, width=width)
    state = _run_stage2(plan, dict(stage1_counts), line_for, width, config, channel, grid, params)
    return state[tree.sink_cell]


def stage2_cost(
    plan: SubstagePlan, params: DerivedParams, config: LinkSimConfig, protocol: str
) -> tuple[int, int]:
    """Physical slots and transmissions stage 2 charges, in closed form.

    Both line protocols are oblivious, so the counts depend only on the plan
    and the link configuration.  An array of q cells has q - 1 links and runs
    q - 1 rounds for MAX, or q + g - 1 for the g-bit histogram stream.  Per
    array, abstract mode charges ceil(k_rs * rounds) logical slots and r3
    transmissions per link; repetition r3 slots and transmissions per link
    per streamed bit; treecode 2 * depth * symbol_bits slots, and as many
    transmissions per link (CapacityError past the decoding cap).  A
    sub-stage costs its longest array's logical slots times the link slot
    span.  ``simulate_line`` charges the same counts as it runs.
    """
    width = 1 if protocol == "max" else count_bits_for(params.n)
    slots = tx = 0
    for stage in plan.stages:
        longest = 0
        for array in stage.arrays:
            links = array.q - 1
            rounds = links if protocol == "max" else array.q + width - 1
            if config.mode == "abstract":
                per_link, logical = config.r3, config.guarantee.slots(rounds)
            elif config.mode == "repetition":
                per_link = width * config.r3
                logical = links * per_link  # links repeat their bits one after another
            else:
                per_link = logical = 2 * config.treecode_depth(rounds) * config.symbol_bits
            longest = max(longest, logical)
            tx += links * per_link
        slots += longest * params.link_slot_span
    return slots, tx


def distribute_result(
    tree: SpanningTree,
    plan: SubstagePlan,
    value: int,
    config: LinkSimConfig,
    r2: int,
    channel: Channel,
    grid: CellGrid,
    params: DerivedParams,
    coloring=None,
) -> np.ndarray:
    """Push the sink's one-bit result back to every node.

    The relay runs the sub-stage plan in reverse, each array root first as a
    repetition line (r3 copies per link, majority-decoded), one majority draw
    per sub-stage: a running OR over zeros carries the root's bit to the
    deepest cell.  Each sub-stage is charged as ``stage2_cost`` prices a MAX
    pass over it with repetition links; its links fire in the downward bank
    of ``slot_ids``.  Then every center broadcasts its bit r2 times (r2 odd,
    as ``Stage1Config`` requires) inside its cell, one class of the coloring
    at a time, and the members majority-decode: one majority draw in
    coloring order, one uniform per member, cell by cell, member by member,
    the cells of a class sharing its r2 slots.  In all, (cell_count - 1) *
    r3 + cell_count * r2 transmissions.  Only a bit can be relayed: any
    other value raises ValueError.
    """
    if value not in (0, 1):
        raise ValueError(f"distribute_result relays one bit, got value {value!r}")
    if coloring is None:
        coloring = color_cells(grid, params)
    subslot = cache(lambda: subslots(coloring))  # read only by a hook
    relay = replace(config, mode="repetition")
    down: dict[int, int] = {tree.sink_cell: int(value)}
    for stage in reversed(plan.stages):
        chains = [array.cells[::-1] for array in stage.arrays]
        clock = partial(_link_slots, channel.metrics.slots_total, subslot, params, 1)
        for cells, errors in zip(chains, _link_errors(chains, 1, relay, channel, grid, clock)):
            proto = or_chain([down[cells[0]]] + [0] * (len(cells) - 1))
            res = simulate_line(proto, relay, channel, errors=errors)
            down.update(zip(cells, res.values))
        stage_slots, tx = stage2_cost(replace(plan, stages=(stage,)), params, relay, "max")
        channel.metrics.add("distribute", tx=tx, rx=tx, slots=stage_slots)

    cells = [j for cls in coloring for j in cls.cells]
    members, sizes, centers = grid.gather(cells)
    rank = np.repeat(np.arange(len(cells)), sizes)
    heard = members != centers[rank]
    rank, rxs = rank[heard], members[heard]
    start = channel.metrics.slots_total
    class_of = lambda: np.repeat(np.arange(len(coloring)), [len(cls.cells) for cls in coloring])
    wrong = channel.majority_mask(
        (rxs.size, r2),
        slots=lambda: slot_ids(start, class_of()[rank, None], np.arange(r2), r2),  # hooks only
        txs=centers[rank, None],
        rxs=rxs[:, None],
    )
    bits = np.array([down[j] for j in cells], dtype=np.int8)
    node_values = np.zeros(grid.n, dtype=np.int8)
    node_values[centers] = bits
    node_values[rxs] = bits[rank] ^ wrong
    channel.metrics.add("distribute", tx=r2 * len(cells), rx=r2 * rxs.size, slots=r2 * len(coloring))
    return node_values
