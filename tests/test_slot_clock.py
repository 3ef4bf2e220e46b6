"""One slot clock: every reception carries the slot the counters charge it to.

A recording hook checks the ids an adversary sees against the charged
windows.  A literal slot engine lists every scheduled (slot, transmitter,
listeners) of a trial and its distribution -- stage 1 from ``stage1_layout``
and ``stage1_schedule`` plus the traced confirmation records, stage 2 and
distribution from ``intercell.slot_ids`` -- resolves each stage without noise
in one several-slot ``resolve_slot`` call, and compares tx, rx and slots per
stage with ``Metrics``.  Abstract-mode stage 2 is a modelled guarantee
(ceil(k_rs * rounds) slots and r3 transmissions per link), not literal
slots, so the engine leaves it out.
"""

from collections import defaultdict

import numpy as np
import pytest

from noisyplanar import harness
from noisyplanar.channel import COLLIDED, RECEIVED, SILENT, NoiseModel, resolve_slot
from noisyplanar.config import ExperimentConfig
from noisyplanar.harness import run_trial
from noisyplanar.intercell import count_bits_for, distribute_result, slot_ids
from noisyplanar.intracell import Stage1Config, stage1_layout, stage1_schedule

from test_intracell import LOSSY


def distribute(run):
    """Push a trial's MAX result back to every node on the trial's channel."""
    return distribute_result(
        run.tree, run.plan, run.computed, run.link_config, run.stage1_config.r2,
        run.channel, run.grid, run.params, run.coloring,
    )


@pytest.mark.parametrize(
    "protocol, mode",
    [("max", "repetition"), ("max", "treecode"), ("hist", "repetition")],
    ids=["repetition", "treecode", "hist-repetition"],
)
def test_a_recording_hook_sees_every_reception_in_its_charged_window(monkeypatch, protocol, mode):
    # A hook that answers eps0 draws what iid noise drew up to RNG layout 5,
    # so the two runs must agree on everything; layout 6 draws MAX identity
    # from each row's sufficient statistics, so there they may end at other
    # stream states.  The hook also records each reception's slot and the
    # slots charged when its batch was drawn.  A histogram count is not a bit,
    # so only MAX runs are distributed.
    n, eps0 = 2000, 0.1
    cfg = ExperimentConfig(protocol=protocol, n=(n,), trials=1, eps0=eps0, mode=mode)
    calls, marks = [], []

    def hook(slot, tx, rx, channel):
        calls.append((slot, tx, rx, channel.metrics.slots_total))
        return eps0

    stage2_name = f"run_stage2_{protocol}"
    stage2 = getattr(harness, stage2_name)

    def marked(*args):
        marks.append(len(calls))
        return stage2(*args)

    monkeypatch.setattr(harness, stage2_name, marked)
    outcomes = []
    for noise in (NoiseModel(eps0), NoiseModel(eps0, hook)):
        run = run_trial(cfg, n, 0, noise=noise)
        marks.append(len(calls))
        values = distribute(run).tolist() if protocol == "max" else None
        state = run.channel.rng.bit_generator.state
        outcomes.append((run.computed, run.stage1_value, values, run.metrics.snapshot(), state))
    if protocol == "max":
        outcomes = [outcome[:-1] for outcome in outcomes]
    assert outcomes[0] == outcomes[1]

    m, params, grid = run.metrics, run.params, run.grid
    slots, txs, rxs, charged = np.array(calls).T
    s1, s2 = m.slots_stage1, m.slots_stage2
    first2, first_dist = marks[2], marks[3]
    assert 0 <= slots[:first2].min() and slots[:first2].max() < s1
    assert s1 <= slots[first2:first_dist].min() and slots[first2:first_dist].max() < s1 + s2
    assert (first_dist < len(calls)) == (protocol == "max")
    assert (s1 + s2 <= slots[first_dist:]).all() and slots.max() < m.slots_total
    # Each reception lies in the window charged for it: from the slots charged
    # when its batch was drawn to the next charge.
    windows = np.unique(np.append(charged, m.slots_total))
    ends = windows[np.searchsorted(windows, charged, "right")]
    assert ((charged <= slots) & (slots < ends)).all()

    # Stage 2 and the relay: the link whose deeper cell is j fires in j's
    # subslot (downward bank for the relay), every array of a sub-stage from
    # its first logical slot on, and arrays whose deeper cells share their
    # colors share their ids.
    span, down = params.link_slot_span, params.interference_bound + 1
    color = {j: cls.color for cls in run.coloring for j in cls.cells}
    cell_of = {int(c): j for j, c in enumerate(grid.centers.tolist(), start=1)}
    array_of = {
        j: array.cells for stage in run.plan.stages for array in stage.arrays
        for j in array.cells[:-1]
    }
    broadcast = m.slots_total - run.stage1_config.r2 * len(run.coloring) if values else None
    ids = defaultdict(set)
    for slot, tx, rx, start in calls[first2:]:
        if start == broadcast:
            continue
        relay = start >= s1 + s2
        deeper = cell_of[rx if relay else tx]
        assert (slot - start) % span == down * relay + color[deeper]
        ids[relay, start, array_of[deeper]].add(slot)
    shared = 0
    for (relay, start, cells), got in ids.items():
        assert min(got) - start < span  # every array starts at the sub-stage's first slot
        for (relay2, start2, cells2), got2 in ids.items():
            same_colors = [color[j] for j in cells[:-1]] == [color[j] for j in cells2[:-1]]
            if (relay, start) == (relay2, start2) and cells != cells2 and same_colors:
                assert got == got2
                shared += 1
    assert shared > 0

    # The broadcast: all cells of a class share the class's r2 slots.
    by_class = defaultdict(set)
    class_of = {j: k for k, cls in enumerate(run.coloring) for j in cls.cells}
    for slot, tx, rx, start in calls[first_dist:]:
        if start == broadcast:
            by_class[class_of[cell_of[tx]], tx].add(slot)
    r2 = run.stage1_config.r2
    for (k, tx), got in by_class.items():
        assert got == set(range(broadcast + r2 * k, broadcast + r2 * (k + 1)))


class Schedule:
    """One stage's scheduled transmissions and listenings, and what each
    listener must hear: RECEIVED (any bit) or COLLIDED."""

    def __init__(self, start: int):
        self.start = start
        self.end = start
        self.sends, self.listens = [], []

    def add(self, slots, txs, listeners, expect=RECEIVED):
        """Every transmitter sends, and every listener listens, in each slot."""
        slots = np.atleast_1d(np.asarray(slots, dtype=np.int64))
        txs, listeners = np.atleast_1d(txs), np.atleast_1d(listeners)
        self.sends.append((np.repeat(slots, txs.size), np.tile(txs, slots.size)))
        at = np.repeat(slots, listeners.size)
        self.listens.append((at, np.tile(listeners, slots.size), np.full(at.size, expect)))

    def resolve(self, run):
        """One noiseless several-slot resolve_slot call: (tx, rx, kinds, expected kinds)."""
        tx_slots, txs = (np.concatenate(c).astype(np.int64) for c in zip(*self.sends))
        at, listeners, expect = (np.concatenate(c).astype(np.int64) for c in zip(*self.listens))
        assert self.start <= tx_slots.min() and tx_slots.max() < self.end
        kinds = resolve_slot(
            tx_slots, txs, 0, listeners, run.instance.positions, run.params,
            NoiseModel(0.0), np.random.default_rng(0), listen_slots=at,
        )
        return txs.size, int((kinds != SILENT).sum()), kinds, expect


def stage1_literal(run) -> Schedule:
    """Every stage-1 slot: the data-independent phases as ``stage1_schedule``
    gives them, each transmission heard by the rest of its cell, and the
    traced confirmations, heard by the cell's non-believers (a collision when
    several believe).  MAX reserves r2 confirmation slots after each class's
    identity slots."""
    grid, cfg, protocol = run.grid, run.stage1_config, run.config.protocol
    cell_of = np.empty(grid.n, dtype=np.int64)
    cell_of[grid.members] = np.repeat(np.arange(1, len(grid) + 1), grid.occupancies())
    schedule = Schedule(0)
    layout = stage1_layout(grid, run.coloring, cfg, protocol)
    for record in stage1_schedule(grid, run.coloring, layout, cfg, protocol):
        for tx, first in zip(record.txs.tolist(), record.first.tolist()):
            members = grid.cell(cell_of[tx]).members
            schedule.add(first + np.arange(record.copies), tx, members[members != tx])
            schedule.end = max(schedule.end, first + record.copies)
    if protocol == "max":
        schedule.end += cfg.r2
    for record in run.channel.trace.stage1:
        if record.phase != "confirmation":
            continue
        for cell in np.unique(cell_of[record.txs]).tolist():
            mine = cell_of[record.txs] == cell
            believers = record.txs[mine]
            slots = record.first[mine, None] + np.arange(record.copies)  # each believer's own
            schedule.sends.append((slots.ravel(), believers.repeat(record.copies)))
            # The cell's non-believers listen in every slot a believer sends in.
            listeners = np.setdiff1d(grid.cell(cell).members, believers)
            expect = RECEIVED if believers.size == 1 else COLLIDED
            schedule.add(np.unique(slots), [], listeners, expect)
    return schedule


def link(schedule, start, logical, lane, cells, grid, span):
    """Link cells[0] -> cells[1] sends in each of the logical slots, in ``lane``."""
    tx, rx = grid.centers[np.asarray(cells) - 1]
    schedule.add(slot_ids(start, logical, lane, span), tx, rx)
    return int(logical.max()) + 1


def stage2_literal(run, start: int) -> Schedule:
    """Every stage-2 slot of a repetition or tree-code run.  Repetition: hop h
    sends payload bit b, copy c, in logical slot (h * g + b) * r3 + c.  Tree
    code: in round t every link sends its symbol's bits in logical slots
    2 * (t - 1) * sym_bits + bit, and its receiver the reserved reverse bits in
    the sym_bits after them.  A stage is its longest array's logical slots."""
    grid, cfg, span = run.grid, run.link_config, run.params.link_slot_span
    is_max = run.config.protocol == "max"
    width = 1 if is_max else count_bits_for(run.n)
    lane_of = run.coloring.colors
    schedule = Schedule(start)
    for stage in run.plan.stages:
        longest = 0
        for array in stage.arrays:
            cells = array.cells
            for hop in range(array.q - 1):
                lane = lane_of[cells[hop]]
                pair = cells[hop : hop + 2]
                if cfg.mode == "repetition":
                    logical = hop * width * cfg.r3 + np.arange(width * cfg.r3)
                    longest = max(longest, link(schedule, start, logical, lane, pair, grid, span))
                    continue
                rounds = array.q - 1 if is_max else array.q + width - 1
                sym = cfg.symbol_bits
                round_starts = 2 * sym * np.arange(cfg.treecode_depth(rounds))
                forward = (round_starts[:, None] + np.arange(sym)).ravel()
                link(schedule, start, forward, lane, pair, grid, span)
                reverse = link(schedule, start, forward + sym, lane, pair[::-1], grid, span)
                longest = max(longest, reverse)
        start += longest * span
    schedule.end = start
    return schedule


def distribution_literal(run, start: int) -> Schedule:
    """Every distribution slot: the relay runs the plan in reverse, hop h of a
    root-first chain sending copy c in logical slot h * r3 + c of the
    downward bank, then each color class broadcasts in its own r2 slots."""
    grid, params, r3, r2 = run.grid, run.params, run.link_config.r3, run.stage1_config.r2
    span, lane_of = params.link_slot_span, run.coloring.colors
    schedule = Schedule(start)
    for stage in reversed(run.plan.stages):
        longest = 0
        for array in stage.arrays:
            chain = array.cells[::-1]
            for hop in range(array.q - 1):
                lane = params.interference_bound + 1 + lane_of[chain[hop + 1]]
                logical = hop * r3 + np.arange(r3)
                pair = chain[hop : hop + 2]
                longest = max(longest, link(schedule, start, logical, lane, pair, grid, span))
        start += longest * span
    for k, cls in enumerate(run.coloring):
        for j in cls.cells:
            members, center = grid.cell(j).members, grid.cell(j).center
            schedule.add(slot_ids(start, k, np.arange(r2), r2), center, members[members != center])
    schedule.end = start + r2 * len(run.coloring)
    return schedule


def literal_collisions(run) -> int:
    """Check every stage's literal schedule against the counters; return how
    many scheduled receptions are documented confirmation collisions."""
    m = run.metrics
    stages = [("stage1", stage1_literal(run)), ("stage2", stage2_literal(run, m.slots_stage1))]
    if run.config.protocol == "max":
        distribute(run)
        stages.append(("distribute", distribution_literal(run, m.slots_stage1 + m.slots_stage2)))
    collided = 0
    for name, schedule in stages:
        tx, rx, kinds, expect = schedule.resolve(run)
        # Every scheduled receiver receives, bar the documented confirmation collisions.
        assert np.where(expect == RECEIVED, kinds >= RECEIVED, kinds == expect).all(), name
        collided += int((expect == COLLIDED).sum())
        slots = schedule.end - schedule.start
        assert (tx, rx, slots) == (
            getattr(m, f"tx_{name}"), getattr(m, f"rx_{name}"), getattr(m, f"slots_{name}")
        ), name
    assert m.slots_total == stages[-1][1].end
    return collided


@pytest.mark.parametrize("eps0", [0.0, 0.1, 0.25])
@pytest.mark.parametrize("protocol", ["max", "hist"])
@pytest.mark.parametrize("mode,n", [("repetition", 1000), ("treecode", 500)])
def test_literal_slot_engine_agrees_with_the_counters(protocol, mode, n, eps0):
    # Tree-code hist arrays at n = 1000 run 17 rounds, past the decoding cap.
    # At eps0 = 0.25 some cells have several believers, whose confirmations collide.
    cfg = ExperimentConfig(protocol=protocol, n=(n,), trials=1, eps0=eps0, mode=mode)
    collided = literal_collisions(run_trial(cfg, n, 0, capture_trace=True))
    if protocol == "max" and eps0 == 0.25:
        assert collided > 0


@pytest.mark.parametrize("mode,n", [("repetition", 1000), ("treecode", 500)])
def test_literal_slot_engine_resolves_lossy_confirmation_collisions(monkeypatch, mode, n):
    # LOSSY's stage 1 at eps0 = 0.3 leaves several cells with more than one
    # believer in every trial, not only in some, so confirmations collide
    # whatever layout the noise is drawn in.
    monkeypatch.setattr(Stage1Config, "for_network", classmethod(lambda cls, *a, **kw: LOSSY))
    cfg = ExperimentConfig(protocol="max", n=(n,), trials=1, eps0=0.3, mode=mode)
    run = run_trial(cfg, n, 0, capture_trace=True)
    assert run.stage1_config is LOSSY
    assert literal_collisions(run) > 0
