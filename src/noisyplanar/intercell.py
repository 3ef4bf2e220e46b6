"""Inter-cell computation (stage 2) over the spanning tree of cells.

The tree is processed in sub-stages: each row is split into consecutive
linear arrays of at most ``levels_per_stage`` hops, run outer-to-inner toward
the sink's column, and the sink's column is then processed the same way
toward the sink.  Arrays inside one sub-stage are disjoint except that two
arrays may share their root (the two sides of a row meeting on the axis).

A sub-stage is one array pass: its arrays, right-aligned in an (arrays x
longest array) matrix padded with zeros, fold column by column under the
noiseless line protocol -- running OR for MAX, a pipelined bit-serial adder
for the histogram -- and every root combines what its arrays deliver, in plan
order.  With repetition links, the sub-stage's arrays share one majority
draw, one uniform per decoded bit, and each link's error word flips the value
it carries; abstract arrays draw their failures array by array; tree-code
arrays decode round by round, each through ``simulate_line``.  Distribution
runs the plan in reverse, each sub-stage one repetition draw over its links
root first, then broadcasts in every cell in one majority draw.  All of
these read a sub-stage's links from ``Substage.links``.  One logical slot (a
window in which every active tree link fires once without protocol-model
collisions) costs ``link_slot_span`` physical slots.  ``slot_ids`` numbers
every reception by the slot the counters charge it to.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cache, lru_cache, partial
from itertools import chain
from typing import Sequence

import numpy as np

from .channel import Channel, Coloring, _cell_colors, color_cells
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
    """Arrays that run side by side, with flat read-only views of them for
    the array pass (derived, so outside eq, hash and repr):

    cells      every array's cells end to end, in plan order
    lengths    each array's cell count
    roots      each array's root
    links      each link's (deeper cell, cell it feeds), array by array
    positions  each link's flat index in the (arrays x longest array's links)
               matrix, arrays right-aligned so every root link is in the last column
    """

    phase: str  # "rows-to-axis" | "axis-to-sink"
    arrays: tuple[CellArray, ...]
    cells: np.ndarray = field(init=False, repr=False, compare=False)
    lengths: np.ndarray = field(init=False, repr=False, compare=False)
    roots: np.ndarray = field(init=False, repr=False, compare=False)
    links: np.ndarray = field(init=False, repr=False, compare=False)
    positions: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        lengths = np.array([a.q for a in self.arrays], dtype=np.int64)
        cells = np.fromiter(chain.from_iterable(a.cells for a in self.arrays), np.int64)
        ends = np.cumsum(lengths)
        hops = lengths - 1
        feeds = np.ones(max(cells.size - 1, 0), dtype=bool)  # cell i feeds cell i + 1
        feeds[ends[:-1] - 1] = False
        row = np.repeat(np.arange(hops.size), hops)
        hop = np.arange(hops.sum()) - np.repeat(np.cumsum(hops) - hops, hops)
        longest = int(hops.max(initial=0))
        views = {
            "cells": cells,
            "lengths": lengths,
            "roots": cells[ends - 1],
            "links": np.stack([cells[:-1][feeds], cells[1:][feeds]], axis=1),
            "positions": row * longest + longest - hops[row] + hop,
        }
        for name, view in views.items():
            view.flags.writeable = False
            object.__setattr__(self, name, view)


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


def _segment(chain: Sequence[int], max_hops: int) -> list[tuple[int, ...]]:
    """Split a chain (outer cell first) into consecutive arrays of <= max_hops."""
    hops = len(chain) - 1
    cuts = list(range(0, hops, max_hops)) + [hops]
    return [tuple(chain[a : b + 1]) for a, b in zip(cuts, cuts[1:])]


def build_substages(
    tree: SpanningTree, params: DerivedParams, levels_per_stage: int | None = None
) -> SubstagePlan:
    """Partition the tree into staged linear arrays of ~ln(n) hops each.

    The tree's chains (``SpanningTree.chains``) are cut into arrays of at
    most ``levels_per_stage`` hops: row chains flow toward the sink's column
    and are processed outer-to-inner; the sink's column then flows toward
    the sink.  Concatenating the arrays that contain a given cell traces
    that cell's tree path to the sink.  The plan depends only on the grid's
    shape, so it is built once per (grid_dim, sink_cell, levels_per_stage)
    and shared by every trial on that shape.
    """
    if levels_per_stage is None:
        levels_per_stage = max(1, math.ceil(math.log(params.n)))
    return _plan(tree, levels_per_stage)


@lru_cache(maxsize=16)
def _plan(tree: SpanningTree, levels_per_stage: int) -> SubstagePlan:
    stages: list[Substage] = []
    for phase, chains in zip(("rows-to-axis", "axis-to-sink"), tree.chains):
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
    _check_counts(vals, width)
    mod = 1 << width
    return LineProtocol(
        q=q,
        rounds=q + width - 1,
        width=width,
        step=lambda i, received: (received + vals[i]) % mod,
        corrupt=lambda rng: int(rng.integers(0, mod)),
    )


def _check_counts(counts, width: int) -> None:
    """Raise ValueError at the first count outside 0 .. 2^width - 1."""
    counts = np.asarray(counts)
    bad = np.flatnonzero((counts < 0) | (counts >= 1 << width))
    if bad.size:
        raise ValueError(f"count {counts[bad[0]]} does not fit in {width} bits")


def slot_ids(start: int, logical, lane, lanes: int) -> np.ndarray:
    """Slot ids on the clock the counters charge: logical slot l of a stage
    from ``start`` (the slots charged before it) holds ``lanes`` slots, and
    lane k of it is start + l * lanes + k.  A link into or out of deeper cell
    j has link_slot_span lanes and fires in the lane of j's periodic color
    (``channel._cell_colors``, whatever the run's coloring), plus
    interference_bound + 1 when relaying down; the broadcast gives each color
    class one logical slot, its r2 copies in the lanes."""
    return start + np.asarray(logical) * lanes + lane


def _link_slots(start, grid, params, bank, deeper):
    """``slots`` for links whose deeper cells are ``deeper``, in draw order,
    up (bank 0) or down from the root (bank 1); the lanes are built only
    when a hook asks."""
    colors = lambda: _cell_colors(len(grid), grid.grid_dim, params.reuse_distance)
    lanes = lambda: bank * (params.interference_bound + 1) + colors()[deeper]
    return lambda logical: slot_ids(start, logical.T, lanes(), params.link_slot_span).T


def _rounds(stage: Substage, protocol: str, width: int) -> np.ndarray:
    """Each array's schedule length: q - 1 rounds for MAX, q + width - 1 for the histogram."""
    return stage.lengths - 1 if protocol == "max" else stage.lengths + width - 1


def _substage_cost(stage: Substage, config: LinkSimConfig, protocol: str, width: int):
    """The logical slots of a sub-stage's longest array and the transmissions
    of all its arrays, as ``stage2_cost`` states them."""
    links = stage.lengths - 1
    rounds = _rounds(stage, protocol, width)
    if config.mode == "abstract":
        return config.guarantee.slots(int(rounds.max())), int(links.sum()) * config.r3
    if config.mode == "repetition":
        per_link = width * config.r3  # links repeat their bits one after another
        return int(links.max()) * per_link, int(links.sum()) * per_link
    per_link = [2 * config.treecode_depth(r) * config.symbol_bits for r in rounds.tolist()]
    return max(per_link), int(links @ np.array(per_link, dtype=np.int64))


def _delivered(stage, values, fold, errors) -> np.ndarray:
    """What each array's last link delivers into its root: the sub-stage's
    links, right-aligned in an (arrays x longest array's links) matrix whose
    padding is value 0 and error word 0, folded column by column, each
    link's error word flipping the value it carries.  The adder's sums are
    left unmasked: their low bits, all a root keeps, depend on low bits only."""
    shape = (len(stage.arrays), int(stage.lengths.max()) - 1)
    sent = np.zeros(shape, dtype=np.int64)
    sent.reshape(-1)[stage.positions] = values[stage.links[:, 0]]
    if errors is not None:
        flips = np.zeros(shape, dtype=np.int64)
        flips.reshape(-1)[stage.positions] = errors
    carried = np.zeros(shape[0], dtype=np.int64)
    for col in range(shape[1]):
        carried = fold(carried, sent[:, col])
        if errors is not None:
            carried ^= flips[:, col]
    return carried


def _failures(rounds: np.ndarray, width: int, guarantee, rng) -> list:
    """Abstract arrays' failures as (array index, value left at its root),
    drawn as ``simulate_line`` draws them: per array in plan order one
    uniform, and after a failure one value below 2^width."""
    failures = []
    for k, r in enumerate(rounds.tolist()):
        if rng.random() < guarantee.failure_prob(r):
            failures.append((k, int(rng.integers(0, 1 << width))))
    return failures


def _settle_roots(values, roots, delivered, failures, fold, mask) -> None:
    """Each root combines what its arrays deliver, in plan order; an array
    that failed, at (index, value) in ``failures``, leaves its root ``value``."""
    start = 0
    for k, value in [*failures, (len(roots), None)]:
        fold.at(values, roots[start:k], delivered[start:k])
        if mask is not None:
            values[roots[start:k]] &= mask
        if value is not None:
            values[roots[k]] = value
        start = k + 1


def _run_stage2(plan, stage1, protocol, width, config, channel, grid, params) -> np.ndarray:
    """Run the plan from the stage-1 values by cell number (ValueError unless
    MAX bits or whole counts below 2^width); returns every cell's value the same way.

    Each sub-stage is one array pass (``_delivered``) in abstract and
    repetition mode, where repetition links take their error words from one
    ``repetition_errors`` draw for the sub-stage, and abstract arrays then
    draw their failures one by one in plan order, as ``simulate_line`` does:
    one uniform each, and a failed array's root value after it.  Tree-code
    arrays run one by one through ``simulate_line``.  Two arrays sharing a
    root compose there in plan order (``_settle_roots``).  A sub-stage costs
    its longest array's logical slots times the link slot span, charged with
    its transmissions in one call (``_substage_cost``).
    """
    values = np.asarray(stage1)
    if values.shape != (len(grid) + 1,):
        raise ValueError(f"stage-1 values must have shape ({len(grid) + 1},), got {values.shape}")
    if protocol == "max" and not ((values == 0) | (values == 1)).all():  # before the cast
        raise ValueError("MAX stage-1 values must be 0/1 valued")
    _check_counts(values, width)
    if (values != np.round(values)).any():  # before the cast, which would truncate
        raise ValueError("stage-1 values must be whole numbers")
    values = values.astype(np.int64)  # a copy: the roots fold into it
    fold, mask = (np.bitwise_or, None) if protocol == "max" else (np.add, (1 << width) - 1)
    line_for = or_chain if protocol == "max" else partial(adder_chain, width=width)
    for stage in plan.stages:
        clock = partial(_link_slots, channel.metrics.slots_total, grid, params, 0)
        hops = stage.lengths - 1
        failures = []
        if config.mode == "treecode":
            arrays = np.split(stage.links, np.cumsum(hops)[:-1])
            delivered = np.zeros(len(arrays), dtype=np.int64)
            for k, links in enumerate(arrays):
                proto = line_for(values[np.append(links[:, 0], links[-1, 1])].tolist())
                ends = grid.centers[links - 1]
                res = simulate_line(proto, config, channel, ends, clock(links[:, 0]))
                delivered[k] = res.delivered[-1]
        elif config.mode == "repetition":
            ends, slots = grid.centers[stage.links - 1], clock(stage.links[:, 0])
            errors = repetition_errors(hops, width, config.r3, channel, ends, slots)
            delivered = _delivered(stage, values, fold, errors)
        else:
            delivered = _delivered(stage, values, fold, None)
            # The guarantee models decoding failure under channel noise; a
            # noiseless channel cannot fail, preserving exactness at eps0 = 0.
            if channel.noise.eps0 > 0:
                rounds = _rounds(stage, protocol, width)
                failures = _failures(rounds, width, config.guarantee, channel.rng)
        _settle_roots(values, stage.roots, delivered, failures, fold, mask)
        logical, tx = _substage_cost(stage, config, protocol, width)
        # Every inter-cell transmission targets a single center.
        channel.metrics.add("stage2", tx=tx, rx=tx, slots=logical * params.link_slot_span)
        if channel.trace is not None:
            channel.trace.stage2_stages.append([array.cells for array in stage.arrays])
    return values


def run_stage2_max(
    plan: SubstagePlan,
    stage1_values: np.ndarray,
    config: LinkSimConfig,
    channel: Channel,
    grid: CellGrid,
    params: DerivedParams,
    tree: SpanningTree,
) -> int:
    """Aggregate the per-cell bits, by cell number, up the tree; returns the sink's value.

    Each array carries the running OR (``or_chain``) from its deepest cell to
    its root.  Arrays of one sub-stage run in parallel, so a sub-stage costs
    its longest array's logical slots times the link slot span; transmissions
    accumulate per array (r3 per link in abstract mode, per-bit repetition
    otherwise).
    """
    values = _run_stage2(plan, stage1_values, "max", 1, config, channel, grid, params)
    return int(values[tree.sink_cell])


def run_stage2_hist(
    plan: SubstagePlan,
    stage1_counts: np.ndarray,
    config: LinkSimConfig,
    channel: Channel,
    grid: CellGrid,
    params: DerivedParams,
    tree: SpanningTree,
    width: int | None = None,
) -> int:
    """Sum the per-cell counts, by cell number, up the tree through the
    pipelined adder (``adder_chain``); returns the total at the sink."""
    if width is None:
        width = count_bits_for(params.n)
    values = _run_stage2(plan, stage1_counts, "hist", width, config, channel, grid, params)
    return int(values[tree.sink_cell])


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
    span.  Stage 2 charges each sub-stage from the same per-sub-stage
    closed form (``_substage_cost``) once its arrays have run.
    """
    width = 1 if protocol == "max" else count_bits_for(params.n)
    slots = tx = 0
    for stage in plan.stages:
        logical, stage_tx = _substage_cost(stage, config, protocol, width)
        slots += logical * params.link_slot_span
        tx += stage_tx
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
    coloring: Coloring | None = None,
) -> np.ndarray:
    """Push the sink's one-bit result back to every node.

    The relay runs the sub-stage plan in reverse, each sub-stage one
    repetition draw (r3 copies per link, majority-decoded) over its links
    taken root first: a relayed cell's bit is its root's XOR the error
    words of the links from the root down to it.  Each sub-stage is charged
    as ``stage2_cost`` prices a MAX pass over it with repetition links; its
    links fire in the downward bank of ``slot_ids``.  Then every center
    broadcasts its bit r2 times (r2 odd, as ``Stage1Config`` requires)
    inside its cell, one class of the coloring at a time, and the members
    majority-decode: one majority draw in coloring order, one uniform per
    member, cell by cell, member by member, the cells of a class sharing its
    r2 slots.  In all, (len(grid) - 1) * r3 + len(grid) * r2
    transmissions.  Only a bit can be relayed: any other value raises
    ValueError.
    """
    if value not in (0, 1):
        raise ValueError(f"distribute_result relays one bit, got value {value!r}")
    if coloring is None:
        coloring = color_cells(grid, params)
    relay = replace(config, mode="repetition")
    down = np.zeros(len(grid) + 1, dtype=np.int64)  # each cell's bit, by index
    down[tree.sink_cell] = value
    for stage in reversed(plan.stages):
        hops = stage.lengths - 1
        first = np.repeat(np.cumsum(hops) - hops, hops)  # each link's array's first link
        # (deeper cell, cell it feeds), each array's links root first
        links = stage.links[2 * first + np.repeat(hops, hops) - 1 - np.arange(first.size)]
        slots = _link_slots(channel.metrics.slots_total, grid, params, 1, links[:, 0])
        ends = grid.centers[links[:, ::-1] - 1]  # the fed cell sends down
        errors = repetition_errors(hops, 1, relay.r3, channel, ends, slots)
        # A cell gets its root's bit, flipped by each link from the root down to it.
        flips = np.bitwise_xor.accumulate(errors)
        down[links[:, 0]] = np.repeat(down[stage.roots], hops) ^ flips ^ np.append(0, flips)[first]
        logical, tx = _substage_cost(stage, relay, "max", 1)
        channel.metrics.add("distribute", tx=tx, rx=tx, slots=logical * params.link_slot_span)

    cells, bounds = coloring.cells, coloring.bounds
    members, sizes, centers = grid.gather(cells)
    rank = np.repeat(np.arange(cells.size), sizes)
    heard = members != centers[rank]
    rank, rxs = rank[heard], members[heard]
    start = channel.metrics.slots_total
    class_of = cache(lambda: np.repeat(np.arange(len(coloring)), np.diff(bounds)))  # hooks only

    def where(at):  # the members' slots in their class's lanes, their center and themselves
        cell = rank[at, None]
        return slot_ids(start, class_of()[cell], np.arange(r2), r2), centers[cell], rxs[at, None]

    wrong = channel.majority_mask((rxs.size, r2), where=where)
    bits = down[cells].astype(np.int8)
    node_values = np.zeros(grid.n, dtype=np.int8)
    node_values[centers] = bits
    node_values[rxs] = bits[rank] ^ wrong
    channel.metrics.add("distribute", tx=r2 * cells.size, rx=r2 * rxs.size, slots=r2 * len(coloring))
    return node_values
