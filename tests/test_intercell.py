"""Sub-stage planning, MAX/histogram aggregation over the tree, distribution."""

import math
from dataclasses import replace
from functools import partial

import numpy as np
import pytest

from noisyplanar.channel import Channel, NoiseModel, color_cells
from noisyplanar.coding import (
    CapacityError,
    LinkSimConfig,
    or_chain,
    simulate_line,
)
from noisyplanar.config import ExperimentConfig
from noisyplanar.geometry import assign_cells, build_tree, derive_params, place_nodes
from noisyplanar import intercell
from noisyplanar.intercell import (
    adder_chain,
    build_substages,
    count_bits_for,
    distribute_result,
    run_stage2_hist,
    run_stage2_max,
    stage2_cost,
)
from noisyplanar.harness import run_trial
from noisyplanar.intracell import Stage1Config, run_stage1_hist, run_stage1_max, stage1_layout

from conftest import make_hand_world

MODES = ("repetition", "treecode", "abstract")


def sampled_world(n, seed, eps0=0.0, bit_p=0.3):
    params = derive_params(n, 0.5)
    inst = place_nodes(n, seed)
    rng = np.random.default_rng(seed + 10)
    inst = inst.with_bits((rng.random(n) < bit_p).astype(np.int8))
    grid = assign_cells(inst, params)
    tree = build_tree(grid, params)
    channel = Channel(inst, params, NoiseModel(eps0), np.random.default_rng(seed + 20))
    return inst, params, grid, tree, channel


def hand_channel(eps0=0.0, seed=0):
    inst, grid, params = make_hand_world(3)
    return grid, Channel(inst, params, NoiseModel(eps0), np.random.default_rng(seed))


class TestBuildSubstages:
    def test_3x3_fixture_plan(self, world3):
        _, grid, params = world3
        tree = build_tree(grid, params)
        plan = build_substages(tree, params, levels_per_stage=2)
        assert len(plan.stages) == 2
        assert plan.stages[0].phase == "rows-to-axis"
        assert {a.cells for a in plan.stages[0].arrays} == {
            (1, 2),
            (3, 2),
            (4, 5),
            (6, 5),
            (7, 8),
            (9, 8),
        }
        assert {a.cells for a in plan.stages[1].arrays} == {(2, 5), (8, 5)}

    def test_15x15_needs_two_stages_at_nine_levels(self):
        _, grid, params = make_hand_world(15)
        tree = build_tree(grid, params)
        plan = build_substages(tree, params, levels_per_stage=9)
        assert len(plan.stages) == 2

    def test_single_cell_gives_empty_plan(self):
        _, grid, params = make_hand_world(1)
        tree = build_tree(grid, params)
        plan = build_substages(tree, params, levels_per_stage=3)
        assert plan.stages == ()

    @pytest.mark.parametrize("n,seed", [(1000, 0), (2500, 1)])
    def test_plan_invariants_on_sampled_worlds(self, n, seed):
        _, params, grid, tree, _ = sampled_world(n, seed)
        plan = build_substages(tree, params)
        l_sub = plan.levels_per_stage

        # Array lengths: at least one hop, at most l_sub hops.
        for array in plan.arrays:
            assert 2 <= array.q <= l_sub + 1

        # Within a stage: no cell is a non-root member of two arrays, and no
        # non-root member of one array is the root of another (shared roots
        # are fine: the two sides of a row meet at the axis).
        for stage in plan.stages:
            seen_nonroot = set()
            roots = {a.root for a in stage.arrays}
            for a in stage.arrays:
                for c in a.cells[:-1]:
                    assert c not in seen_nonroot
                    assert c not in roots
                    seen_nonroot.add(c)

        # Every tree edge lies in exactly one array.
        edges = sorted((j, tree.parent(j)) for j in range(1, len(grid) + 1) if j != tree.sink_cell)
        covered = sorted(
            (child, parent)
            for a in plan.arrays
            for child, parent in zip(a.cells, a.cells[1:])
        )
        assert covered == edges

        # Concatenating a cell's arrays traces its tree path to the sink.
        owner = {}
        for si, stage in enumerate(plan.stages):
            for a in stage.arrays:
                for c in a.cells[:-1]:
                    assert c not in owner
                    owner[c] = (si, a)
        for c in grid:
            if c.index == tree.sink_cell:
                assert c.index not in owner
                continue
            path = [c.index]
            cur, last_stage = c.index, -1
            while cur != tree.sink_cell:
                si, array = owner[cur]
                assert si >= last_stage
                last_stage = si
                i = array.cells.index(cur)
                path.extend(array.cells[i + 1 :])
                cur = array.root
            assert path == tree.path_to_sink(c.index)


def substages_per_chain(tree, params, levels_per_stage=None):
    """build_substages with its own row and column chains, as it was before the
    tree stated them: the reference.  Returns the plan and the chains."""
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

    stages: list[intercell.Substage] = []
    for phase, chains in (("rows-to-axis", row_chains), ("axis-to-sink", col_chains)):
        segmented = [intercell._segment(chain, levels_per_stage) for chain in chains]
        depth = max((len(s) for s in segmented), default=0)
        for level in range(depth):
            arrays = tuple(intercell.CellArray(s[level]) for s in segmented if len(s) > level)
            stages.append(intercell.Substage(phase=phase, arrays=arrays))
    plan = intercell.SubstagePlan(levels_per_stage=levels_per_stage, stages=tuple(stages))
    return plan, (row_chains, col_chains)


class TestPlanAgainstPerChainBuild:
    @pytest.mark.parametrize("m", range(1, 13))
    def test_every_sink_and_stage_length(self, m):
        for sink in range(1, m * m + 1):
            _, grid, params = make_hand_world(m, sink)
            tree = build_tree(grid, params)
            _, chains = substages_per_chain(tree, params)
            assert [[list(c) for c in half] for half in tree.chains] == list(chains)
            for levels in (None, 1, 2, 3, 5, 11):
                plan, _ = substages_per_chain(tree, params, levels)
                assert build_substages(tree, params, levels) == plan


class TestAdderChain:
    def test_schedule_length_is_q_plus_width_minus_one(self):
        assert adder_chain([0] * 9, count_bits_for(5000)).rounds == 9 + 13 - 1 == 21

    def test_hand_transcript_q3_g3(self):
        # Slot-by-slot bits for counts [3, 2, 1]: the deepest cell streams
        # 3 = (1,1,0) starting in slot 1; the middle cell streams 3 + 2 = 5 =
        # (1,0,1) one slot behind; slot 5 is the pipeline drain.
        proto = adder_chain([3, 2, 1], width=3)
        sent, values = proto.noiseless_run()
        assert proto.rounds == 5
        assert sent[0] == [1, 1, 0, 0, 0]
        assert sent[1] == [0, 1, 0, 1, 0]
        assert values[-1] == 6

    def test_counts_must_fit_width(self):
        with pytest.raises(ValueError):
            adder_chain([8, 0], width=3)

    def test_count_bits_cover_all_counts(self):
        assert count_bits_for(5000) == 13
        assert count_bits_for(2000) == 11
        assert 2 ** count_bits_for(7) - 1 >= 7


def endpoints(grid, cells):
    """The (sender, receiver) centers of each link of a chain of cells."""
    centers = [grid.cell(j).center for j in cells]
    return list(zip(centers, centers[1:]))


class TestRunSubstageMax:
    # One array of a sub-stage: the running OR over the chain of its centers.
    @pytest.mark.parametrize("mode", MODES)
    def test_or_reaches_root(self, mode):
        grid, channel = hand_channel()
        res = simulate_line(
            or_chain([0, 1, 0]), LinkSimConfig(mode=mode, r3=9), channel, endpoints(grid, (1, 2, 5))
        )
        assert res.values[-1] == 1

    def test_values_spec_example(self):
        grid, channel = hand_channel()
        res = simulate_line(
            or_chain([0, 1, 0, 0]),
            LinkSimConfig(mode="abstract", r3=9),
            channel,
            endpoints(grid, (1, 2, 3, 6)),
        )
        assert res.values[-1] == 1

    def test_all_zero_stays_zero(self):
        for mode in MODES:
            grid, channel = hand_channel()
            res = simulate_line(
                or_chain([0, 0, 0]), LinkSimConfig(mode=mode, r3=9), channel,
                endpoints(grid, (1, 2, 5)),
            )
            assert res.values[-1] == 0

    def test_repetition_transmission_identity(self):
        grid, channel = hand_channel()
        res = simulate_line(
            or_chain([1, 0, 0, 0]),
            LinkSimConfig(mode="repetition", r3=27),
            channel,
            endpoints(grid, (1, 2, 3, 6)),
        )
        assert res.tx == 3 * 27 == 81


class TestRunSubstageHist:
    # One array of a sub-stage: the pipelined adder over the chain of its centers.
    @pytest.mark.parametrize("mode", MODES)
    def test_three_two_one_sums_to_six(self, mode):
        grid, channel = hand_channel()
        res = simulate_line(
            adder_chain([3, 2, 1], 4), LinkSimConfig(mode=mode, r3=9), channel,
            endpoints(grid, (1, 2, 5)),
        )
        assert res.values[-1] == 6

    def test_zero_counts_leave_own_count(self):
        grid, channel = hand_channel()
        res = simulate_line(
            adder_chain([0, 0, 5], 4), LinkSimConfig(mode="abstract", r3=9), channel,
            endpoints(grid, (1, 2, 5)),
        )
        assert res.values[-1] == 5

    @pytest.mark.parametrize("mode", MODES)
    def test_modes_agree_noiselessly_with_identical_payloads(self, mode):
        grid, channel = hand_channel()
        base = simulate_line(
            adder_chain([3, 2, 1], 4), LinkSimConfig(mode="abstract", r3=9),
            hand_channel()[1], endpoints(grid, (1, 2, 5)),
        )
        res = simulate_line(
            adder_chain([3, 2, 1], 4), LinkSimConfig(mode=mode, r3=9), channel,
            endpoints(grid, (1, 2, 5)),
        )
        assert res.values == base.values
        assert res.delivered == base.delivered


def _stage1_values(grid, inst):
    """Each cell's largest bit, indexed by cell number (entry 0 unused)."""
    return np.array([0] + [int(inst.bits[list(c.members)].max()) for c in grid], dtype=np.int64)


def _stage1_counts(grid, inst):
    """Each cell's count of ones, indexed by cell number (entry 0 unused)."""
    return np.array([0] + [int(inst.bits[list(c.members)].sum()) for c in grid], dtype=np.int64)


class TestRunStage2Max:
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("seed", [0, 1])
    def test_noiseless_oracle_equivalence(self, mode, seed):
        inst, params, grid, tree, channel = sampled_world(600, seed)
        plan = build_substages(tree, params)
        values = _stage1_values(grid, inst)
        got = run_stage2_max(
            plan, values, LinkSimConfig(mode=mode, r3=9), channel, grid, params, tree
        )
        assert got == values.max() == int(inst.bits.max())

    def test_transmission_identity_covers_every_link_once(self):
        # (cell_count - 1) * r3 in both abstract and repetition modes.
        inst, params, grid, tree, channel = sampled_world(1000, 2)
        plan = build_substages(tree, params)
        values = _stage1_values(grid, inst)
        for mode in ("abstract", "repetition"):
            ch = Channel(inst, params, NoiseModel(0.0), np.random.default_rng(0))
            run_stage2_max(plan, values, LinkSimConfig(mode=mode, r3=21), ch, grid, params, tree)
            assert ch.metrics.tx_stage2 == (params.grid_dim**2 - 1) * 21

    def test_abstract_slot_accounting(self):
        inst, params, grid, tree, channel = sampled_world(1000, 3)
        plan = build_substages(tree, params)
        run_stage2_max(
            plan, _stage1_values(grid, inst), LinkSimConfig(mode="abstract", r3=9),
            channel, grid, params, tree,
        )
        expect = sum(
            max(math.ceil(3.0 * (a.q - 1)) for a in stage.arrays) * params.link_slot_span
            for stage in plan.stages
        )
        assert channel.metrics.slots_stage2 == expect

    def test_stage_order_within_stage_is_immaterial(self):
        inst, params, grid, tree, _ = sampled_world(1000, 4)
        plan = build_substages(tree, params)
        from noisyplanar.intercell import Substage, SubstagePlan

        flipped = SubstagePlan(
            levels_per_stage=plan.levels_per_stage,
            stages=tuple(
                Substage(phase=s.phase, arrays=tuple(reversed(s.arrays))) for s in plan.stages
            ),
        )
        values = _stage1_values(grid, inst)
        cfg = LinkSimConfig(mode="abstract", r3=9)
        ch1 = Channel(inst, params, NoiseModel(0.0), np.random.default_rng(0))
        ch2 = Channel(inst, params, NoiseModel(0.0), np.random.default_rng(0))
        a = run_stage2_max(plan, values, cfg, ch1, grid, params, tree)
        b = run_stage2_max(flipped, values, cfg, ch2, grid, params, tree)
        assert a == b

    def test_abstract_failure_rate_bounded_by_union_bound(self):
        # Union bound over arrays: sum of exp(-gamma * rounds); corruption
        # draws an independent uniform bit, so the realized sink error rate
        # must stay at or below the bound (checked with 3 sigma slack).
        inst, params, grid, tree, _ = sampled_world(5000, 7, bit_p=0.002)
        plan = build_substages(tree, params)
        values = _stage1_values(grid, inst)
        truth = values.max()
        for gamma, trials in ((0.5, 600), (1.2, 600)):
            cfg = LinkSimConfig(mode="abstract", r3=27, gamma=gamma)
            bound = sum(math.exp(-gamma * (a.q - 1)) for a in plan.arrays)
            wrong = 0
            for t in range(trials):
                ch = Channel(inst, params, NoiseModel(0.1), np.random.default_rng(t))
                wrong += run_stage2_max(plan, values, cfg, ch, grid, params, tree) != truth
            sigma = math.sqrt(max(bound * (1 - min(bound, 1.0)), 1e-6) / trials)
            assert wrong / trials <= min(bound, 1.0) + 3 * sigma

    @pytest.mark.parametrize("value", [2, -3])
    def test_values_other_than_bits_raise(self, value):
        # The deepest cell of the first array: its value would reach the sink.
        inst, params, grid, tree, channel = sampled_world(600, 5)
        plan = build_substages(tree, params)
        values = _stage1_values(grid, inst)
        values[plan.arrays[0].cells[0]] = value
        link = LinkSimConfig(mode="abstract", r3=9)
        with pytest.raises(ValueError, match="0/1 valued"):
            run_stage2_max(plan, values, link, channel, grid, params, tree)
        assert channel.metrics.slots_stage2 == 0

    def test_a_missing_cell_raises(self):
        inst, params, grid, tree, channel = sampled_world(600, 5)
        plan = build_substages(tree, params)
        link = LinkSimConfig(mode="abstract", r3=9)
        with pytest.raises(ValueError, match=rf"shape \({len(grid) + 1},\)"):
            run_stage2_max(plan, _stage1_values(grid, inst)[:-1], link, channel, grid, params, tree)


class TestRunStage2Hist:
    @pytest.mark.parametrize("mode", MODES)
    def test_noiseless_total_count(self, mode):
        inst, params, grid, tree, channel = sampled_world(600, 5)
        plan = build_substages(tree, params)
        counts = _stage1_counts(grid, inst)
        got = run_stage2_hist(plan, counts, LinkSimConfig(mode=mode, r3=9), channel, grid, params, tree)
        assert got == counts.sum() == int(inst.bits.sum())

    def test_repetition_carries_g_bits_per_link(self):
        inst, params, grid, tree, channel = sampled_world(1000, 6)
        plan = build_substages(tree, params)
        g = count_bits_for(1000)
        run_stage2_hist(
            plan, _stage1_counts(grid, inst), LinkSimConfig(mode="repetition", r3=21),
            channel, grid, params, tree,
        )
        assert channel.metrics.tx_stage2 == (params.grid_dim**2 - 1) * g * 21

    def test_abstract_charges_r3_per_link(self):
        inst, params, grid, tree, channel = sampled_world(1000, 6)
        plan = build_substages(tree, params)
        run_stage2_hist(
            plan, _stage1_counts(grid, inst), LinkSimConfig(mode="abstract", r3=21),
            channel, grid, params, tree,
        )
        assert channel.metrics.tx_stage2 == (params.grid_dim**2 - 1) * 21

    @pytest.mark.parametrize("mode", MODES)
    def test_counts_past_the_width_raise(self, mode):
        inst, params, grid, tree, channel = sampled_world(600, 5)
        plan = build_substages(tree, params)
        counts = _stage1_counts(grid, inst)
        width = count_bits_for(600)
        link = LinkSimConfig(mode=mode, r3=9)
        # The deepest cell of the first array, then the sink, the last root.
        for cell, count in ((plan.arrays[0].cells[0], 1 << width), (tree.sink_cell, -1)):
            with pytest.raises(ValueError, match=f"count {count} does not fit in {width} bits"):
                bad = counts.copy()
                bad[cell] = count
                run_stage2_hist(plan, bad, link, channel, grid, params, tree)

    def test_a_missing_cell_raises(self):
        inst, params, grid, tree, channel = sampled_world(600, 5)
        plan = build_substages(tree, params)
        link = LinkSimConfig(mode="abstract", r3=9)
        with pytest.raises(ValueError, match=rf"shape \({len(grid) + 1},\)"):
            run_stage2_hist(plan, _stage1_counts(grid, inst)[:-1], link, channel, grid, params, tree)

    def test_counts_that_are_not_whole_raise(self):
        # A cast to int64 would truncate every count: 27 for a total of 45.0.
        inst, params, grid, tree, channel = sampled_world(600, 5)
        plan = build_substages(tree, params)
        counts = np.r_[0, grid.occupancies() % 3 + 0.5]
        link = LinkSimConfig(mode="abstract", r3=9)
        with pytest.raises(ValueError, match="whole numbers"):
            run_stage2_hist(plan, counts, link, channel, grid, params, tree)
        assert channel.metrics.slots_stage2 == 0

    def test_whole_float_counts_give_the_integer_total(self):
        inst, params, grid, tree, channel = sampled_world(600, 5)
        plan = build_substages(tree, params)
        counts = _stage1_counts(grid, inst)
        link = LinkSimConfig(mode="abstract", r3=9)
        got = run_stage2_hist(plan, counts.astype(np.float64), link, channel, grid, params, tree)
        assert got == counts.sum() == int(inst.bits.sum())


class TestClosedFormCosts:
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("protocol", ["max", "hist"])
    def test_closed_form_equals_simulated_counters(self, protocol, mode):
        # n = 600 keeps histogram tree-code arrays within the decoding cap.
        cfg = ExperimentConfig(protocol=protocol, mode=mode, n=(600,), trials=1, eps0=0.05)
        run = run_trial(cfg, 600, 0)
        m = run.metrics
        assert stage2_cost(run.plan, run.params, run.link_config, protocol) == (
            m.slots_stage2,
            m.tx_stage2,
        )
        _, spans, _ = stage1_layout(run.grid, run.coloring, run.stage1_config, protocol)
        assert spans.sum() == m.slots_stage1

    def test_past_the_tree_code_cap_both_raise(self):
        # Histogram arrays at n = 4000 need 21 rounds, beyond the cap of 16.
        inst, params, grid, tree, channel = sampled_world(4000, 1)
        plan = build_substages(tree, params)
        link = LinkSimConfig(mode="treecode", r3=9)
        with pytest.raises(CapacityError):
            stage2_cost(plan, params, link, "hist")
        with pytest.raises(CapacityError):
            run_stage2_hist(plan, _stage1_counts(grid, inst), link, channel, grid, params, tree)


class TestEndToEndStageComposition:
    @pytest.mark.parametrize("protocol", ["max", "hist"])
    def test_stage1_into_stage2_noiseless(self, protocol):
        inst, params, grid, tree, channel = sampled_world(800, 8)
        coloring = color_cells(grid, params)
        cfg1 = Stage1Config.for_network(800, 0.0)
        plan = build_substages(tree, params)
        link = LinkSimConfig(mode="abstract", r3=21)
        if protocol == "max":
            s1 = run_stage1_max(grid, coloring, cfg1, channel)
            got = run_stage2_max(plan, s1.values, link, channel, grid, params, tree)
            assert got == int(inst.bits.max())
        else:
            s1 = run_stage1_hist(grid, coloring, cfg1, channel)
            got = run_stage2_hist(plan, s1.values, link, channel, grid, params, tree)
            assert got == int(inst.bits.sum())


class TestDistributeResult:
    def test_noiseless_every_node_learns_the_value(self):
        inst, params, grid, tree, channel = sampled_world(800, 9)
        plan = build_substages(tree, params)
        cfg = LinkSimConfig(mode="repetition", r3=9)
        got = distribute_result(tree, plan, 1, cfg, r2=15, channel=channel, grid=grid, params=params)
        assert got.shape == (800,)
        assert (got == 1).all()

    def test_transmission_identity(self):
        inst, params, grid, tree, channel = sampled_world(800, 9)
        plan = build_substages(tree, params)
        cfg = LinkSimConfig(mode="repetition", r3=9)
        distribute_result(tree, plan, 0, cfg, r2=15, channel=channel, grid=grid, params=params)
        m = params.grid_dim**2
        assert channel.metrics.tx_distribute == (m - 1) * 9 + m * 15

    def test_noisy_distribution_rarely_wrong(self):
        # r2 = 27 majority tail at eps0 = 0.1 is ~2.1e-9 per node: across
        # 10 runs of 800 nodes, not a single wrong value is expected.
        wrong = 0
        for seed in range(10):
            inst, params, grid, tree, channel = sampled_world(800, seed, eps0=0.1)
            plan = build_substages(tree, params)
            cfg = LinkSimConfig(mode="repetition", r3=27)
            got = distribute_result(
                tree, plan, 1, cfg, r2=27, channel=channel, grid=grid, params=params
            )
            wrong += int((got != 1).sum())
        assert wrong == 0

    @pytest.mark.parametrize("value", [2, 984])
    def test_non_bit_values_are_rejected(self, value):
        # A hist count is not a bit: it must not overflow or collapse to 0/1.
        inst, params, grid, tree, channel = sampled_world(800, 9)
        plan = build_substages(tree, params)
        cfg = LinkSimConfig(mode="repetition", r3=9)
        with pytest.raises(ValueError, match=str(value)):
            distribute_result(
                tree, plan, value, cfg, r2=15, channel=channel, grid=grid, params=params
            )
        assert channel.metrics.tx_distribute == 0


def reference_distribute_result(
    tree, plan, value, config, r2, channel, grid, params, coloring=None
):
    """The per-link, per-member distribution loop that ``distribute_result``
    replaced, kept as its oracle (bar the import of ``color_cells``, the slot
    ids and the noise rule): one majority draw per link and per member.

    Slot ids come from the slots charged so far: a relay link into cell j
    sends copy c of hop h at start + (h * r3 + c) * link_slot_span +
    interference_bound + 1 + color(j), and every cell of a class broadcasts
    in the class's r2 slots."""
    if value not in (0, 1):
        raise ValueError(f"distribute_result relays one bit, got value {value!r}")
    if coloring is None:
        coloring = color_cells(grid, params)
    color = {j: cls.color for cls in coloring for j in cls.cells}
    down: dict[int, int] = {tree.sink_cell: int(value)}
    for stage in reversed(plan.stages):
        stage_slots = 0
        start = channel.metrics.slots_total
        for array in stage.arrays:
            cells = array.cells
            centers = grid.centers[np.asarray(cells) - 1].tolist()
            v = down[array.root]
            for i in range(len(cells) - 2, -1, -1):
                logical = (len(cells) - 2 - i) * config.r3 + np.arange(config.r3)
                lane = params.interference_bound + 1 + color[cells[i]]
                slots = start + logical * params.link_slot_span + lane
                where = lambda at: (slots, centers[i + 1], centers[i])
                v ^= int(channel.majority_mask((config.r3,), where=where))
                down[cells[i]] = v
            link_count = len(cells) - 1
            channel.metrics.add("distribute", tx=link_count * config.r3, rx=link_count * config.r3)
            stage_slots = max(stage_slots, link_count * config.r3)
        channel.metrics.add("distribute", slots=stage_slots * params.link_slot_span)

    node_values = np.zeros(grid.n, dtype=np.int8)
    for cls in coloring:
        slot0 = channel.metrics.slots_total
        for j in cls.cells:
            cell = grid.cell(j)
            v = down[j]
            node_values[cell.center] = v
            for member in cell.members.tolist():
                if member == cell.center:
                    continue
                where = lambda at: (slot0 + np.arange(r2), cell.center, member)
                wrong = channel.majority_mask((r2,), where=where)
                node_values[member] = v ^ int(wrong)
            channel.metrics.add("distribute", tx=r2, rx=r2 * (cell.size - 1))
        channel.metrics.add("distribute", slots=r2)
    return node_values


def distribution_world(n):
    """A sampled world with its sub-stage plan and coloring."""
    inst, params, grid, tree, _ = sampled_world(n, n % 97)
    return inst, params, grid, tree, build_substages(tree, params), color_cells(grid, params)


def run_distribution(distribute, world, eps0, r3, r2, coloring, adversarial):
    """One distribution of the bit 1 on a fresh channel; returns what a run
    leaves behind: node values, metrics, RNG state, hook calls."""
    inst, params, grid, tree, plan, classes = world
    calls = []

    def hook(slot, tx, rx, history):
        calls.append((slot, tx, rx))
        return eps0 * ((7 * slot + 3 * tx + rx) % 5) / 4

    noise = NoiseModel(eps0, hook) if adversarial else NoiseModel(eps0)
    channel = Channel(inst, params, noise, np.random.default_rng(inst.n + r2))
    channel.metrics.add("stage2", slots=1000)  # distribution follows the stages before it
    values = distribute(
        tree, plan, 1, LinkSimConfig(mode="abstract", r3=r3), r2, channel, grid, params,
        classes if coloring else None,
    )
    state = channel.rng.bit_generator.state
    return values, channel.metrics.snapshot(), state, calls


class TestDistributeMatchesReference:
    @pytest.mark.parametrize("n", [800, 2000, 8000, 32768])
    def test_bit_identical_to_the_per_member_loop(self, n):
        # The hook-recording adversary costs a Python call per copy, so it
        # runs at the two smaller n; iid noise covers all four.
        world = distribution_world(n)
        noisy_wrong = 0
        for eps0 in (0.0, 0.1, 0.3):
            for r3, r2 in ((9, 15), (3, 3), (1, 1)):
                for coloring in (False, True):
                    for adversarial in (False, True) if n <= 2000 else (False,):
                        args = (world, eps0, r3, r2, coloring, adversarial)
                        want = run_distribution(reference_distribute_result, *args)
                        got = run_distribution(distribute_result, *args)
                        np.testing.assert_array_equal(got[0], want[0])
                        assert got[1:] == want[1:]
                        if eps0 == 0.3 and r2 == 1:
                            noisy_wrong += int((got[0] != 1).sum())
        # The comparison covers noisy values, not only all-correct ones.
        assert noisy_wrong > 0

    def test_no_per_member_draws(self, monkeypatch):
        # One majority draw per relay sub-stage plus one for the whole
        # broadcast, and no per-reception draw.
        inst, params, grid, tree, plan, classes = distribution_world(2000)

        def refuse(*args, **kwargs):
            raise AssertionError("distribute_result drew noise per link, member or copy")

        draws = []
        majority_mask = Channel.majority_mask

        def counted(self, shape, *args, **kwargs):
            draws.append(shape)
            return majority_mask(self, shape, *args, **kwargs)

        monkeypatch.setattr(Channel, "noisy_copies", refuse)
        monkeypatch.setattr(Channel, "flip_mask", refuse)
        monkeypatch.setattr(Channel, "majority_mask", counted)
        channel = Channel(inst, params, NoiseModel(0.1), np.random.default_rng(0))
        distribute_result(tree, plan, 1, LinkSimConfig(r3=9), 15, channel, grid, params, classes)
        assert len(draws) == len(plan.stages) + 1


def scheduled(start, deeper, params, coloring, bank=0):
    """The slot ids of links whose deeper cells are ``deeper``, from logical
    slots with links along axis 0: start + l * link_slot_span + the deeper
    cell's color, plus interference_bound + 1 on the downward bank."""
    color = {j: cls.color for cls in coloring for j in cls.cells}
    lanes = bank * (params.interference_bound + 1) + np.array([color[j] for j in deeper])
    return lambda logical: (
        start + logical * params.link_slot_span + lanes.reshape(-1, *[1] * (logical.ndim - 1))
    )


def per_array_run_stage2(plan, state, line_for, config, channel, grid, params):
    """The per-array loop that ``_run_stage2`` replaced, kept verbatim (bar
    looking ``simulate_line`` up on its module, so a recorder can see it, the
    scheduled slot ids and the endpoint helper) as its oracle: in repetition
    mode one majority draw per array."""
    coloring = color_cells(grid, params)
    for stage in plan.stages:
        stage_logical = 0
        start = channel.metrics.slots_total
        for array in stage.arrays:
            proto = line_for([state[j] for j in array.cells])
            ends = endpoints(grid, array.cells)
            slots = scheduled(start, array.cells[:-1], params, coloring)
            res = intercell.simulate_line(proto, config, channel, ends, slots=slots)
            state[array.root] = res.values[-1]
            # Every inter-cell transmission targets a single center.
            channel.metrics.add("stage2", tx=res.tx, rx=res.tx)
            stage_logical = max(stage_logical, res.slots)
        channel.metrics.add("stage2", slots=stage_logical * params.link_slot_span)
        if channel.trace is not None:
            channel.trace.stage2_stages.append([a.cells for a in stage.arrays])
    return state


def per_array_distribute_result(
    tree, plan, value, config, r2, channel, grid, params, coloring=None
):
    """``distribute_result`` as it was with one relay draw per array,
    kept verbatim (bar the ``simulate_line`` lookup, the scheduled slot ids,
    the endpoint helper and the broadcast's majority draw) as the oracle of
    the per-sub-stage relay draw.  Relay sub-stages
    follow each other from the slots charged before the distribution, each
    its longest array's r3 * links logical slots long, and every cell of a
    class broadcasts in the class's r2 slots after them."""
    if value not in (0, 1):
        raise ValueError(f"distribute_result relays one bit, got value {value!r}")
    if coloring is None:
        coloring = color_cells(grid, params)
    relay = replace(config, mode="repetition")
    down: dict[int, int] = {tree.sink_cell: int(value)}
    start = channel.metrics.slots_total
    for stage in reversed(plan.stages):
        for array in stage.arrays:
            cells = array.cells[::-1]
            proto = or_chain([down[array.root]] + [0] * (array.q - 1))
            slots = scheduled(start, cells[1:], params, coloring, bank=1)
            res = intercell.simulate_line(proto, relay, channel, endpoints(grid, cells),
                                          slots=slots)
            down.update(zip(cells, res.values))
        start += max(a.q - 1 for a in stage.arrays) * relay.r3 * params.link_slot_span
    slots, tx = stage2_cost(plan, params, relay, "max")
    channel.metrics.add("distribute", tx=tx, rx=tx, slots=slots)

    cells = [j for cls in coloring for j in cls.cells]
    members, sizes, centers = grid.gather(cells)
    rank = np.repeat(np.arange(len(cells)), sizes)
    heard = members != centers[rank]
    rank, rxs = rank[heard], members[heard]
    base = channel.metrics.slots_total
    class_of = np.repeat(np.arange(len(coloring)), [len(cls.cells) for cls in coloring])
    wrong = channel.majority_mask(
        (rxs.size, r2),
        where=lambda at: (
            base + r2 * class_of[rank[at], None] + np.arange(r2),  # iid never reads it
            centers[rank[at], None],
            rxs[at, None],
        ),
    )
    bits = np.array([down[j] for j in cells], dtype=np.int8)
    node_values = np.zeros(grid.n, dtype=np.int8)
    node_values[centers] = bits
    node_values[rxs] = bits[rank] ^ wrong
    channel.metrics.add("distribute", tx=r2 * len(cells), rx=r2 * rxs.size, slots=r2 * len(coloring))
    return node_values


class TestStage2MatchesPerArrayLoop:
    """One repetition draw per sub-stage against the per-array draws it replaced:
    same values, delivered words, counters, RNG state and hook calls."""

    R3 = 9

    @staticmethod
    def _world(n):
        inst, params, grid, tree, _ = sampled_world(n, n % 97, bit_p=0.3)
        plan = build_substages(tree, params)
        # The two sides of a row meet on the axis: the second array of such a
        # stage must build its protocol on the first one's result.
        assert any(len({a.root for a in s.arrays}) < len(s.arrays) for s in plan.stages)
        return inst, params, grid, tree, plan

    def _run(self, monkeypatch, world, job, eps0, adversarial):
        inst, params, grid, tree, plan = world
        calls, lines = [], []

        def hook(slot, tx, rx, history):
            calls.append((slot, tx, rx))
            return eps0 * ((7 * slot + 3 * tx + rx) % 5) / 4

        def recorded(*args, **kwargs):
            res = simulate_line(*args, **kwargs)
            lines.append(res)
            return res

        monkeypatch.setattr(intercell, "simulate_line", recorded)
        noise = NoiseModel(eps0, hook) if adversarial else NoiseModel(eps0)
        channel = Channel(inst, params, noise, np.random.default_rng(inst.n + 5))
        channel.metrics.add("stage1", slots=1000)  # stage 2 follows the slots charged before it
        out = job(channel)
        state = channel.rng.bit_generator.state
        return out, lines, channel.metrics.snapshot(), state, calls

    @pytest.mark.parametrize("n", [800, 8000, 32768])
    def test_bit_identical_to_the_per_array_loop(self, monkeypatch, n):
        world = self._world(n)
        inst, params, grid, tree, plan = world
        config = LinkSimConfig(mode="repetition", r3=self.R3)
        values, counts = _stage1_values(grid, inst), _stage1_counts(grid, inst)
        width = count_bits_for(n)
        adder = partial(adder_chain, width=width)
        narrow = count_bits_for(counts.max())
        jobs = {
            "max": (
                lambda ch: run_stage2_max(plan, values, config, ch, grid, params, tree),
                lambda ch: per_array_run_stage2(
                    plan, values.copy(), or_chain, config, ch, grid, params
                )[tree.sink_cell],
            ),
            "hist": (
                lambda ch: run_stage2_hist(plan, counts, config, ch, grid, params, tree),
                lambda ch: per_array_run_stage2(
                    plan, counts.copy(), adder, config, ch, grid, params
                )[tree.sink_cell],
            ),
            # A width just fitting the largest count, so the sums wrap mod 2^width.
            "hist-wrapping": (
                lambda ch: run_stage2_hist(
                    plan, counts, config, ch, grid, params, tree, width=narrow
                ),
                lambda ch: per_array_run_stage2(
                    plan, counts.copy(), partial(adder_chain, width=narrow), config, ch, grid,
                    params,
                )[tree.sink_cell],
            ),
            "distribute": tuple(
                lambda ch, distribute=distribute: distribute(
                    tree, plan, 1, config, 15, ch, grid, params
                ).tolist()
                for distribute in (distribute_result, per_array_distribute_result)
            ),
        }
        corrupted = 0
        for eps0 in (0.0, 0.1, 0.3):
            # The hook-recording adversary costs a Python call per copy.
            for adversarial in (False, True) if n <= 2000 else (False,):
                for name, (new, reference) in jobs.items():
                    got = self._run(monkeypatch, world, new, eps0, adversarial)
                    want = self._run(monkeypatch, world, reference, eps0, adversarial)
                    # Value, metrics, RNG state and hook calls; stage 2 folds
                    # its arrays without a simulate_line call per array.
                    assert (got[0], *got[2:]) == (want[0], *want[2:]), (name, eps0, adversarial)
                    if adversarial:
                        assert len(got[4]) == got[2]["rx_stage2"] + got[2]["rx_distribute"]
                    corrupted += sum(
                        res.delivered != res.values[:-1] for res in want[1]
                    )
        # Some compared links delivered a corrupted value, not only clean ones.
        assert corrupted > 0

    def test_one_draw_per_substage(self, monkeypatch):
        world = self._world(2000)
        inst, params, grid, tree, plan = world
        draws = []
        majority_mask = Channel.majority_mask

        def counted(self, shape, *args, **kwargs):
            draws.append(shape)
            return majority_mask(self, shape, *args, **kwargs)

        monkeypatch.setattr(Channel, "majority_mask", counted)
        channel = Channel(inst, params, NoiseModel(0.1), np.random.default_rng(0))
        config = LinkSimConfig(mode="repetition", r3=self.R3)
        run_stage2_hist(plan, _stage1_counts(grid, inst), config, channel, grid, params, tree)
        assert len(draws) == len(plan.stages)
        width = count_bits_for(2000)
        assert draws == [
            (sum(a.q - 1 for a in s.arrays), width, self.R3) for s in plan.stages
        ]


class TestStage2AbstractMatchesPerArrayLoop:
    """Abstract arrays fold in one pass per sub-stage, yet draw their failures
    as the per-array loop does: one uniform per array in plan order, and a
    failed array's root value right after it."""

    @pytest.mark.parametrize("eps0", [0.0, 0.1, 0.3])
    @pytest.mark.parametrize("protocol", ["max", "hist"])
    def test_bit_identical_to_the_per_array_loop(self, protocol, eps0):
        inst, params, grid, tree, plan = TestStage2MatchesPerArrayLoop._world(2000)
        config = LinkSimConfig(mode="abstract", r3=9, gamma=0.05)  # arrays fail often
        if protocol == "max":
            state, line_for, run = _stage1_values(grid, inst), or_chain, run_stage2_max
        else:
            state, run = _stage1_counts(grid, inst), run_stage2_hist
            line_for = partial(adder_chain, width=count_bits_for(inst.n))
        built, failed = [], []

        def noting_failures(values):  # the oracle's protocols note the arrays that fail
            proto, k = line_for(values), len(built) % len(plan.arrays)
            built.append(k)
            return replace(proto, corrupt=lambda rng: failed.append(k) or proto.corrupt(rng))

        for seed in range(6):
            outcomes = []
            for job in (
                lambda ch: run(plan, state, config, ch, grid, params, tree),
                lambda ch: per_array_run_stage2(
                    plan, state.copy(), noting_failures, config, ch, grid, params
                )[tree.sink_cell],
            ):
                channel = Channel(inst, params, NoiseModel(eps0), np.random.default_rng(seed))
                channel.metrics.add("stage1", slots=1000)
                value = job(channel)
                state_after = channel.rng.bit_generator.state
                outcomes.append((value, channel.metrics.snapshot(), state_after))
            assert outcomes[0] == outcomes[1], (seed, eps0)
        # The first of two arrays sharing a root failed, so the second one
        # combined its delivery with the failed array's value.
        offsets = np.cumsum([0] + [len(s.arrays) for s in plan.stages]).tolist()
        firsts = {
            offset + i
            for offset, s in zip(offsets, plan.stages)
            for i, a in enumerate(s.arrays)
            if a.root in [b.root for b in s.arrays[i + 1 :]]
        }
        assert bool(firsts & set(failed)) == (eps0 > 0)


@pytest.mark.parametrize("protocol", ["max", "hist"])
@pytest.mark.parametrize("mode, per_array", [("abstract", 0), ("repetition", 0), ("treecode", 1)])
def test_only_tree_code_arrays_run_simulate_line(monkeypatch, protocol, mode, per_array):
    inst, params, grid, tree, channel = sampled_world(600, 5, eps0=0.1)
    plan = build_substages(tree, params)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[0].q)
        return simulate_line(*args, **kwargs)

    monkeypatch.setattr(intercell, "simulate_line", counted)
    config = LinkSimConfig(mode=mode, r3=9)
    if protocol == "max":
        run_stage2_max(plan, _stage1_values(grid, inst), config, channel, grid, params, tree)
    else:
        run_stage2_hist(plan, _stage1_counts(grid, inst), config, channel, grid, params, tree)
    assert calls == [a.q for a in plan.arrays] * per_array
    # The relay down the plan is repetition sub-stages too: no array of it runs alone.
    calls.clear()
    distribute_result(tree, plan, 1, config, 15, channel, grid, params)
    assert calls == []
