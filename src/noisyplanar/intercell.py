"""Inter-cell computation (stage 2) over the spanning tree of cells.

The tree is processed in sub-stages: each row is split into consecutive
linear arrays of at most ``levels_per_stage`` hops, run outer-to-inner toward
the sink's column, and the sink's column is then processed the same way
toward the sink.  Arrays inside one sub-stage are disjoint except that two
arrays may share their root (the two sides of a row meeting on the axis).

Each array runs a noiseless line protocol -- running OR for MAX, a pipelined
bit-serial adder for the histogram -- protected by one of the three link
simulation modes.  One logical slot (a window in which every active tree link
fires once without protocol-model collisions) costs ``link_slot_span``
physical slots.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .channel import Channel
from .coding import LineProtocol, LinkSimConfig, majority_decode, or_chain, simulate_line
from .geometry import CellGrid, DerivedParams, SpanningTree

__all__ = [
    "CellArray",
    "Substage",
    "SubstagePlan",
    "build_substages",
    "count_bits_for",
    "adder_chain",
    "run_substage_max",
    "run_substage_hist",
    "run_stage2_max",
    "run_stage2_hist",
    "stage2_cost",
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


def _array_endpoints(array: CellArray, grid: CellGrid) -> list[tuple[int, int]]:
    centers = [grid.cell(j).center for j in array.cells]
    return [(centers[i], centers[i + 1]) for i in range(len(centers) - 1)]


def run_substage_max(
    array: CellArray,
    values: dict[int, int],
    config: LinkSimConfig,
    channel: Channel,
    grid: CellGrid,
):
    """Carry the running OR up one array; returns the line-simulation result."""
    proto = or_chain([values[j] for j in array.cells])
    return simulate_line(proto, config, channel, _array_endpoints(array, grid))


def run_substage_hist(
    array: CellArray,
    counts: dict[int, int],
    width: int,
    config: LinkSimConfig,
    channel: Channel,
    grid: CellGrid,
):
    """Stream subtree counts up one array through the pipelined adder."""
    proto = adder_chain([counts[j] for j in array.cells], width)
    return simulate_line(proto, config, channel, _array_endpoints(array, grid))


def _run_stage2(plan, state, channel, params, run_array):
    for stage in plan.stages:
        stage_logical = 0
        for array in stage.arrays:
            res = run_array(array, state)
            state[array.root] = res.values[-1]
            # Every inter-cell transmission targets a single center.
            channel.metrics.add("stage2", tx=res.tx, rx=res.tx)
            stage_logical = max(stage_logical, res.slots)
        channel.metrics.add("stage2", slots=stage_logical * params.link_slot_span)
        if channel.trace is not None:
            channel.trace.stage2_stages.append([a.cells for a in stage.arrays])
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

    Arrays of one sub-stage run in parallel, so a sub-stage costs its longest
    array's logical slots times the link slot span; transmissions accumulate
    per array (r3 per link in abstract mode, per-bit repetition otherwise).
    """
    state = _run_stage2(
        plan, dict(stage1_values), channel, params,
        lambda a, s: run_substage_max(a, s, config, channel, grid),
    )
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
    """Sum the per-cell counts up the tree; returns the total at the sink."""
    if width is None:
        width = count_bits_for(params.n)
    state = _run_stage2(
        plan, dict(stage1_counts), channel, params,
        lambda a, s: run_substage_hist(a, s, width, config, channel, grid),
    )
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

    The sub-stage plan runs in reverse: each array relays the bit from its
    root toward its deepest cell, r3 repetitions per link with majority
    decoding.  Every center then broadcasts the bit r2 times inside its cell
    and members majority-decode, for (cell_count - 1) * r3 + cell_count * r2
    transmissions in total.  Only a bit can be relayed: any other value
    raises ValueError.
    """
    if value not in (0, 1):
        raise ValueError(f"distribute_result relays one bit, got value {value!r}")
    down: dict[int, int] = {tree.sink_cell: int(value)}
    for stage in reversed(plan.stages):
        stage_slots = 0
        for array in stage.arrays:
            cells = array.cells
            centers = [grid.cell(j).center for j in cells]
            v = down[array.root]
            for i in range(len(cells) - 2, -1, -1):
                copies = channel.noisy_copies(
                    v, config.r3, centers[i + 1], centers[i], channel.slot_cursor
                )
                channel.slot_cursor += config.r3
                v = majority_decode(copies)
                down[cells[i]] = v
            link_count = len(cells) - 1
            channel.metrics.add("distribute", tx=link_count * config.r3, rx=link_count * config.r3)
            stage_slots = max(stage_slots, link_count * config.r3)
        channel.metrics.add("distribute", slots=stage_slots * params.link_slot_span)

    node_values = np.zeros(grid.n, dtype=np.int8)
    if coloring is None:
        from .channel import color_cells

        coloring = color_cells(grid, params)
    for cls in coloring:
        for j in cls.cells:
            cell = grid.cell(j)
            v = down[j]
            node_values[cell.center] = v
            for member in cell.members:
                if member == cell.center:
                    continue
                copies = channel.noisy_copies(v, r2, cell.center, member, channel.slot_cursor)
                node_values[member] = majority_decode(copies)
            channel.slot_cursor += r2
            channel.metrics.add("distribute", tx=r2, rx=r2 * (cell.size - 1))
        channel.metrics.add("distribute", slots=r2)
    return node_values
