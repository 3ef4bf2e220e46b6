"""Witness discovery, identity distribution, confirmation, per-cell counting."""

import math
from dataclasses import replace

import numpy as np
import pytest

from noisyplanar import coding, intracell
from noisyplanar.channel import (
    Channel,
    NoiseModel,
    ScheduleClass,
    Trace,
    color_cells,
)
from noisyplanar.coding import BlockCode, RepetitionScheme
from noisyplanar.geometry import (
    CellGrid,
    DerivedParams,
    NetworkInstance,
    assign_cells,
    derive_params,
    place_nodes,
)
from noisyplanar.intracell import (
    Stage1Config,
    Stage1Result,
    confirm_value,
    distribute_identity,
    run_stage1_hist,
    run_stage1_max,
    stage1_layout,
    stage1_schedule,
    witness_discovery,
)

from conftest import schedule_per_cell, stage1_keys


def make_cell_world(bits, eps0=0.0, seed=0, msg_bits=4):
    """A single-cell world holding len(bits) tightly packed nodes."""
    n = len(bits)
    rng = np.random.default_rng(1)
    positions = 0.5 + 0.01 * (rng.random((n, 2)) - 0.5)
    inst = NetworkInstance(
        n=n, seed=0, positions=positions, bits=np.array(bits, dtype=np.int8)
    )
    params = DerivedParams(
        n=n,
        delta=0.5,
        grid_dim=1,
        cell_side=1.0,
        cell_count=1,
        radius=1.5,
        interference_bound=8,
        link_slot_span=36,
    )
    grid = CellGrid(
        members=np.arange(n), offsets=np.array([0, n]), centers=np.array([0]), grid_dim=1,
        n=n, sink_cell=1, sink_node=0,
    )
    cell = grid.cell(1)
    config = Stage1Config(eps1=0.05, c_rep=9, r2=27, id_code=BlockCode(msg_bits, seed=2))
    channel = Channel(inst, params, NoiseModel(eps0), np.random.default_rng(seed))
    return cell, grid, config, channel


def build_world(n, seed, eps0, protocol_cfg=None, bit_p=0.3):
    params = derive_params(n, 0.5)
    inst = place_nodes(n, seed)
    rng = np.random.default_rng(seed + 1)
    inst = inst.with_bits((rng.random(n) < bit_p).astype(np.int8))
    grid = assign_cells(inst, params)
    coloring = color_cells(grid, params)
    config = protocol_cfg or Stage1Config.for_network(n, eps0)
    channel = Channel(inst, params, NoiseModel(eps0), np.random.default_rng(seed + 2))
    return inst, params, grid, coloring, config, channel


class TestStage1Config:
    def test_network_defaults_n5000(self):
        cfg = Stage1Config.for_network(5000, 0.1)
        assert cfg.r2 == 27
        assert cfg.id_code.msg_bits == 13
        assert cfg.block_len == 52
        assert cfg.script_len(20) == 9 * 20 + 52 + 27

    def test_discovery_budget_checked_at_construction(self):
        # At eps0 = 0.4 nine repetitions leave a ~27% majority-flip chance,
        # far above the 5% witness-miss budget.
        with pytest.raises(ValueError, match="c_rep"):
            Stage1Config.for_network(1000, 0.4)

    def test_even_repeat_counts_rejected(self):
        with pytest.raises(ValueError):
            Stage1Config.for_network(1000, 0.0, c_rep=8)

    def test_identity_code_is_shared_and_read_only(self):
        # One code per (message bits, block length, seed), shared by every
        # trial: no trial may be able to alter it for the next.
        first = Stage1Config.for_network(5000, 0.1, block_len=60, code_seed=7)
        second = Stage1Config.for_network(5000, 0.05, block_len=60, code_seed=7)
        code = first.id_code
        assert second.id_code is code
        assert Stage1Config.for_network(5000, 0.1, block_len=60, code_seed=8).id_code is not code
        for array in (code.generator, code._packed, code._sorted_words, code.codebook):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0, 0] ^= 1


class TestWitnessDiscovery:
    def test_noiseless_picks_least_id_holding_one(self):
        cell, grid, config, channel = make_cell_world([0, 1, 1])
        assert witness_discovery(cell, config, channel) == 1

    def test_all_zero_falls_back_to_least_id(self):
        cell, grid, config, channel = make_cell_world([0, 0, 0])
        assert witness_discovery(cell, config, channel) == 0

    def test_transmission_count_is_exact(self):
        cell, grid, config, channel = make_cell_world([0, 1, 0, 0, 1])
        witness_discovery(cell, config, channel)
        assert channel.metrics.tx_stage1 == config.c_rep * 5
        assert channel.metrics.rx_stage1 == config.c_rep * 5 * 4

    def test_miss_probability_matches_binomial_tail(self):
        # Single 1-holder at the least id: the witness is missed exactly when
        # its nine copies majority-flip, a ~8.9e-4 binomial tail.
        tail = RepetitionScheme(9).error_bound(0.1)
        trials = 10_000
        cell, grid, config, channel = make_cell_world([0, 1, 0, 0, 0], eps0=0.1, seed=5)
        # move the one to the center-adjacent least non-center id? The center
        # id 0 decodes itself noiselessly, so give the one to member 1.
        misses = 0
        for _ in range(trials):
            assert channel.instance.bits[1] == 1
            misses += witness_discovery(cell, config, channel) != 1
        sigma = math.sqrt(tail * (1 - tail) / trials)
        assert abs(misses / trials - tail) <= 3 * sigma


class TestDistributeIdentity:
    def test_noiseless_every_member_decodes_the_witness(self):
        cell, grid, config, channel = make_cell_world([0, 0, 1, 0])
        believers = distribute_identity(cell, 2, config, channel)
        assert believers == [2]

    def test_transmissions_charged_exactly_block_len(self):
        cell, grid, config, channel = make_cell_world([0, 0, 1, 0])
        distribute_identity(cell, 2, config, channel)
        assert channel.metrics.tx_stage1 == config.block_len

    def test_center_believes_only_when_it_is_the_witness(self):
        cell, grid, config, channel = make_cell_world([1, 0, 0], eps0=0.25, seed=3)
        for _ in range(50):
            believers = distribute_identity(cell, 0, config, channel)
            assert (0 in believers) is True
        cell, grid, config, channel = make_cell_world([0, 1, 0], eps0=0.25, seed=4)
        for _ in range(50):
            believers = distribute_identity(cell, 1, config, channel)
            assert 0 not in believers

    def test_noisy_believer_set_rarely_deviates(self):
        # 22 members under eps0 = 0.1 with the network-scale code (13 message
        # bits, 52-bit blocks): per-member decode failure is well under 1%,
        # so across 200 runs the believer set almost always equals exactly
        # the witness singleton.
        bits = [0] * 21 + [1]
        cell, grid, config, channel = make_cell_world(bits, eps0=0.1, seed=9, msg_bits=13)
        deviations = sum(
            distribute_identity(cell, 21, config, channel) != [21] for _ in range(200)
        )
        assert deviations <= 10


class TestConfirmValue:
    def test_unique_believer_delivers_its_bit(self):
        cell, grid, config, channel = make_cell_world([0, 1, 0])
        assert confirm_value(cell, [1], config, channel) == 1

    def test_two_believers_collide_to_zero(self):
        cell, grid, config, channel = make_cell_world([1, 1, 0])
        assert confirm_value(cell, [0, 1], config, channel) == 0

    def test_no_believers_default_zero(self):
        cell, grid, config, channel = make_cell_world([0, 0, 0])
        assert confirm_value(cell, [], config, channel) == 0
        assert channel.metrics.tx_stage1 == 0

    def test_false_one_is_practically_impossible(self):
        # True bit 0, r2 = 27, eps0 = 0.1: the majority-flip tail is ~2.1e-9,
        # so 1e4 trials must show no false ones.
        cell, grid, config, channel = make_cell_world([0, 0, 0], eps0=0.1, seed=6)
        assert all(confirm_value(cell, [1], config, channel) == 0 for _ in range(10_000))

    def test_transmissions_scale_with_believers(self):
        cell, grid, config, channel = make_cell_world([1, 1, 1])
        confirm_value(cell, [0, 1, 2], config, channel)
        assert channel.metrics.tx_stage1 == 3 * config.r2


class TestRunStage1Max:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_noiseless_values_equal_cell_maxima(self, seed):
        inst, params, grid, coloring, config, channel = build_world(1200, seed, 0.0)
        result = run_stage1_max(grid, coloring, config, channel)
        for c in grid:
            assert result.values[c.index] == int(inst.bits[list(c.members)].max())
            assert result.witnesses[c.index] in c.members

    def test_n5000_transmission_identity(self):
        # 9 per node plus 52 + 27 per cell: 9 * 5000 + 225 * 79 = 62775.
        inst, params, grid, coloring, config, channel = build_world(5000, 7, 0.0)
        run_stage1_max(grid, coloring, config, channel)
        assert channel.metrics.tx_stage1 == 9 * 5000 + 225 * 79 == 62775

    def test_slot_bound(self):
        inst, params, grid, coloring, config, channel = build_world(2000, 3, 0.0)
        run_stage1_max(grid, coloring, config, channel)
        max_members = int(grid.occupancies().max())
        bound = (params.interference_bound + 1) * config.script_len(max_members)
        assert channel.metrics.slots_stage1 <= bound

    def test_reception_to_transmission_ratio_in_occupancy_band(self):
        # Every intra-cell broadcast is heard by its cell's other members,
        # whose count sits inside the occupancy band.
        inst, params, grid, coloring, config, channel = build_world(5000, 7, 0.0)
        run_stage1_max(grid, coloring, config, channel)
        m = channel.metrics
        ratio = m.rx_stage1 / m.tx_stage1
        log_n = math.log(5000)
        assert 0.5 * 0.091 * log_n <= ratio <= 5.41 * log_n

    def test_noiseless_monotone_in_added_ones(self):
        inst, params, grid, coloring, config, channel = build_world(800, 2, 0.0)
        base = run_stage1_max(grid, coloring, config, channel)
        bits = inst.bits.copy()
        bits[int(np.flatnonzero(bits == 0)[0])] = 1
        channel2 = Channel(
            inst.with_bits(bits), params, NoiseModel(0.0), np.random.default_rng(0)
        )
        bumped = run_stage1_max(grid, coloring, config, channel2)
        assert max(bumped.values.values()) >= max(base.values.values())


class TestRunStage1Hist:
    @pytest.mark.parametrize("seed", [0, 3])
    def test_noiseless_counts_are_exact(self, seed):
        inst, params, grid, coloring, config, channel = build_world(1200, seed, 0.0)
        result = run_stage1_hist(grid, coloring, config, channel)
        for c in grid:
            assert result.counts[c.index] == int(inst.bits[list(c.members)].sum())

    def test_transmissions_are_r2_per_node(self):
        inst, params, grid, coloring, config, channel = build_world(2000, 5, 0.0)
        run_stage1_hist(grid, coloring, config, channel)
        assert channel.metrics.tx_stage1 == config.r2 * 2000

    def test_noisy_miscounts_bounded_by_majority_tail(self):
        # Per-member miscount probability is the r2 = 27 majority tail
        # (~2.1e-9 at eps0 = 0.1): 20 runs of 1200 nodes must decode cleanly.
        miscounts = 0
        for seed in range(20):
            inst, params, grid, coloring, config, channel = build_world(1200, seed, 0.1)
            result = run_stage1_hist(grid, coloring, config, channel)
            for c in grid:
                truth = int(inst.bits[list(c.members)].sum())
                miscounts += result.counts[c.index] != truth
        assert miscounts == 0


def hist_per_cell(grid, coloring, config, channel):
    """Histogram counting with one draw and one count per cell: the reference
    for counting a whole color class at once."""
    counts = {}
    reps = config.r2
    for cls, base, span, _ in stage1_layout(grid, coloring, config, "hist"):
        for j in cls.cells:
            cell = grid.cell(j)
            members = np.array(cell.members)
            n_members = len(members)
            bits = channel.instance.bits[members]
            slots = base + np.arange(n_members * reps).reshape(n_members, reps)
            txs = members[:, None]
            wrong = channel.majority_mask((n_members, reps), slots=slots, txs=txs, rxs=cell.center)
            decoded = (bits ^ wrong).astype(np.int8)
            decoded[members == cell.center] = bits[members == cell.center]
            channel.record("hist_count", members, slots[:, 0], reps)
            channel.metrics.add("stage1", tx=reps * n_members, rx=reps * n_members * (n_members - 1))
            counts[j] = int(decoded.sum())
        channel.metrics.add("stage1", slots=span)
    return counts


def traced_rows(trace):
    """Each traced phase's (slot, tx) rows as sorted keys, the phases in the
    order they were first traced: what ran, whatever the records' grouping."""
    return {
        phase: stage1_keys(trace.stage1, (phase,)).tolist()
        for phase in dict.fromkeys(r.phase for r in trace.stage1)
    }


class TestHistClassBatching:
    @staticmethod
    def count_both(eps0, r2=None, noise=None):
        """(counts, metrics, trace rows, rng state, truth) for batched and per-cell
        counting, each on a fresh channel."""
        config = Stage1Config.for_network(2000, 0.0)
        config = replace(config, r2=r2) if r2 is not None else config
        out = []
        for count in ("batched", "per-cell"):
            inst, params, grid, coloring, config, channel = build_world(2000, 4, eps0, config)
            channel.noise = noise if noise is not None else channel.noise
            channel.trace = Trace()
            if count == "batched":
                counts = run_stage1_hist(grid, coloring, config, channel).counts
                # one record for the phase
                assert [r.phase for r in channel.trace.stage1] == ["hist_count"]
            else:
                counts = hist_per_cell(grid, coloring, config, channel)
            rows = traced_rows(channel.trace)
            truth = {c.index: int(inst.bits[list(c.members)].sum()) for c in grid}
            out.append((
                list(counts.items()),
                channel.metrics.snapshot(),
                rows,
                channel.rng.bit_generator.state,
                truth,
            ))
        return out

    @pytest.mark.parametrize("eps0,r2", [(0.0, None), (0.1, None), (0.3, None), (0.3, 3)])
    def test_batched_counting_equals_the_per_cell_loop(self, eps0, r2):
        batched, per_cell = self.count_both(eps0, r2)
        assert batched == per_cell
        counts, _, _, _, truth = batched
        if r2 == 3:  # miscounts happen, so the comparison covers them
            assert any(truth[j] != c for j, c in counts)

    def test_adversary_sees_the_same_receptions(self):
        calls = []

        def hook(slot, tx, rx, history):
            calls.append((slot, tx, rx))
            return 0.2

        noise = NoiseModel(0.2, mode="adversarial", adversary=hook)
        batched, per_cell = self.count_both(0.2, 5, noise)
        assert batched == per_cell
        half = len(calls) // 2
        assert half > 0 and calls[:half] == calls[half:]


def max_phase_major(grid, coloring, config, channel):
    """MAX stage 1 through the per-cell oracles in phase-major order (RNG
    layouts 3 and 4) -- discovery in every cell, then identity, then
    confirmation, each class by class and cell by cell: the reference for
    the block-drawn run."""
    result = Stage1Result()
    layout = stage1_layout(grid, coloring, config, "max")
    cells = [
        (grid.cell(j), *config.phase_slots(base, max_members))
        for cls, base, _, max_members in layout
        for j in cls.cells
    ]
    for cell, base, _, _ in cells:
        result.witnesses[cell.index] = witness_discovery(cell, config, channel, slot0=base)
    believers = [
        distribute_identity(cell, result.witnesses[cell.index], config, channel, slot0=id_base)
        for cell, _, id_base, _ in cells
    ]
    for (cell, _, _, confirm_base), believing in zip(cells, believers):
        result.values[cell.index] = confirm_value(
            cell, believing, config, channel, slot0=confirm_base
        )
    channel.metrics.add("stage1", slots=sum(span for _, _, span, _ in layout))
    return result


# A code with no redundancy, one discovery copy and three confirmation copies:
# at eps0 = 0.3 witnesses are missed, identities mis-decode, cells go without
# a believer or with several, and confirmations flip.
LOSSY = Stage1Config(eps1=0.05, c_rep=1, r2=3, id_code=BlockCode(6, 6, seed=2))
# A 70-bit identity code spans two uint64 words, as the codes of n > 2^16 do.
TWO_WORDS = replace(Stage1Config.for_network(2000, 0.0), id_code=BlockCode(11, 70, seed=404))


class TestMaxClassBatching:
    @staticmethod
    def run_both(n, eps0, config=None, noise=None, reference=max_phase_major, bit_p=0.3):
        """(witnesses, values, metrics, trace rows, rng state) of the batched
        run and of the reference, each on a fresh channel, and the world's grid."""
        config = config or Stage1Config.for_network(2000, 0.0)
        out = []
        for run in (run_stage1_max, reference):
            inst, params, grid, coloring, config, channel = build_world(n, 4, eps0, config, bit_p)
            channel.noise = noise if noise is not None else channel.noise
            channel.trace = Trace()
            result = run(grid, coloring, config, channel)
            if run is run_stage1_max:  # one record per phase, in draw order
                phases = [r.phase for r in channel.trace.stage1]
                assert phases == ["discovery", "identity", "confirmation"]
            rows = traced_rows(channel.trace)
            out.append((
                list(result.witnesses.items()),
                list(result.values.items()),
                channel.metrics.snapshot(),
                rows,
                channel.rng.bit_generator.state,
            ))
        return out, grid

    @pytest.mark.parametrize("eps0", [0.0, 0.1, 0.3])
    def test_batched_run_equals_the_schedule_order_loop(self, eps0):
        (batched, reference), grid = self.run_both(2000, eps0)
        assert batched == reference
        rows = batched[3]
        assert list(rows) == ["discovery", "identity", "confirmation"]
        assert all(rows.values())

    def test_cells_without_a_one_are_compared(self):
        # With sparse bits many cells hold no 1 and name their least member.
        (batched, reference), grid = self.run_both(2000, 0.0, bit_p=0.02)
        assert batched == reference
        witnesses, values = dict(batched[0]), dict(batched[1])
        empty = [c for c in grid if values[c.index] == 0]
        assert len(empty) > 10
        assert all(witnesses[c.index] == c.members[0] for c in empty)

    def test_every_confirmation_case_is_compared(self):
        (batched, reference), grid = self.run_both(2000, 0.3, LOSSY)
        assert batched == reference
        witnesses, values, _, rows, _ = batched
        witness = dict(witnesses)
        cell_of = {int(m): c.index for c in grid for m in c.members}
        believers = {c.index: set() for c in grid}
        for key in rows["confirmation"]:
            tx = key & 0xFFFFFFFF
            believers[cell_of[tx]].add(tx)
        believers = {j: sorted(b) for j, b in believers.items()}
        centers = {c.index: c.center for c in grid}
        assert any(believers[j] != [witness[j]] for j in believers)  # identity mis-decodes
        assert any(len(b) == 0 for b in believers.values())
        assert any(len(b) >= 2 for b in believers.values())
        assert any(centers[j] in b for j, b in believers.items())
        assert any(len(b) == 1 and b[0] != centers[j] for j, b in believers.items())

    def test_two_word_code_is_compared(self, monkeypatch):
        searched = []
        decode_equals = BlockCode.decode_equals

        def counted(code, true_msg, flips, candidates):
            searched.append(len(candidates))
            return decode_equals(code, true_msg, flips, candidates)

        monkeypatch.setattr(BlockCode, "decode_equals", counted)
        (batched, reference), grid = self.run_both(2000, 0.3, TWO_WORDS)
        assert batched == reference
        # The batched run searches its open rows in one call, the reference
        # every member of every cell, one call per cell.
        members = sum(c.size for c in grid)
        assert len(searched) == 1 + len(grid) and sum(searched[1:]) == members
        assert 0 < searched[0] < members // 10

    @pytest.mark.parametrize(
        "config, chunks",
        [(LOSSY, (1, 7)), (TWO_WORDS, (7, 1000))],  # 1000: a row over codeword chunks
        ids=["lossy", "two-words"],
    )
    def test_search_chunk_moves_nothing(self, config, chunks, monkeypatch):
        # The cap on the search's (row, codeword) distances at a time bounds
        # memory only: a cap of 1 searches one distance at a time.
        runs = []
        for chunk in (*chunks, coding.SEARCH_CHUNK):
            monkeypatch.setattr(coding, "SEARCH_CHUNK", chunk)
            _, _, grid, coloring, _, channel = build_world(2000, 4, 0.3, config)
            result = run_stage1_max(grid, coloring, config, channel)
            runs.append((result, channel.metrics.snapshot(), channel.rng.bit_generator.state))
        assert runs[0] == runs[1] == runs[2]

    def test_adversary_sees_the_same_receptions(self):
        calls = []

        def hook(slot, tx, rx, history):
            calls.append((slot, tx, rx))
            return 0.2

        noise = NoiseModel(0.2, mode="adversarial", adversary=hook)
        (batched, reference), _ = self.run_both(2000, 0.2, noise=noise)
        assert batched == reference
        half = len(calls) // 2
        assert half > 0 and calls[:half] == calls[half:]


class TestStage1Blocks:
    """Identity's members are drawn in blocks of cells and each majority phase
    in one draw; the block size bounds memory and moves no draw."""

    SIZES = [1, 7, 3000, intracell.STAGE1_BLOCK, 1 << 62]  # 1 << 62: every flip in one block

    @staticmethod
    def run_at(block, protocol, adversarial, monkeypatch):
        """(result, metrics, trace records, rng state, hook calls) of one run, the
        shapes it drew and its grid."""
        monkeypatch.setattr(intracell, "STAGE1_BLOCK", block)
        config = LOSSY if protocol == "max" else replace(Stage1Config.for_network(2000, 0.0), r2=3)
        inst, params, grid, coloring, config, channel = build_world(2000, 4, 0.3, config)
        calls = []

        def hook(slot, tx, rx, history):
            calls.append((slot, tx, rx))
            return 0.3

        if adversarial:
            channel.noise = NoiseModel(0.3, mode="adversarial", adversary=hook)
        channel.trace = Trace()
        draws = []  # per-reception and majority draws alike
        for name in ("flip_mask", "majority_mask"):
            draw = getattr(channel, name)
            counted = lambda shape, draw=draw, **kw: draws.append(shape) or draw(shape, **kw)
            setattr(channel, name, counted)
        runner = run_stage1_max if protocol == "max" else run_stage1_hist
        result = runner(grid, coloring, config, channel)
        records = [
            (r.phase, r.txs.tolist(), r.first.tolist(), r.copies) for r in channel.trace.stage1
        ]
        state = channel.rng.bit_generator.state
        return (result, channel.metrics.snapshot(), records, state, calls), draws, grid

    @pytest.mark.parametrize("adversarial", [False, True], ids=["iid", "adversarial"])
    @pytest.mark.parametrize("protocol", ["max", "hist"])
    def test_every_block_size_gives_the_same_run(self, protocol, adversarial, monkeypatch):
        runs = [self.run_at(b, protocol, adversarial, monkeypatch) for b in self.SIZES]
        (first, _, grid), *rest = runs
        for run, _, _ in rest:
            assert run == first
        draws = [len(d) for _, d, _ in runs]
        # Each majority phase is one draw.  Sizes 1 and 7 draw identity cell by
        # cell; the default and the unbounded block draw it at once at n = 2000;
        # 3000 flips lie in between.
        if protocol == "max":
            assert draws[0] == draws[1] > draws[2] > draws[3] == draws[4]
            assert draws[0] == len(grid) + 2
        else:
            assert draws == [1] * len(self.SIZES)
        # A block passes the bound only where one cell does: at most the
        # largest cell's receptions.  Only identity, MAX's draws between
        # discovery and confirmation, is drawn in blocks.
        largest = max(cell.size for cell in grid)
        for block, (_, shapes, _) in zip(self.SIZES, runs):
            blocked = shapes[1:-1] if protocol == "max" else []
            assert all(math.prod(s) <= max(block, largest * s[-1]) for s in blocked)
        assert (len(first[4]) > 0) == adversarial


class TestStage1Schedule:
    @pytest.mark.parametrize("merged", [False, True], ids=["coloring", "merged-pairwise"])
    @pytest.mark.parametrize("protocol", ["max", "hist"])
    def test_equals_the_per_cell_loop(self, protocol, merged):
        _, _, grid, coloring, config, _ = build_world(2000, 3, 0.1)
        if merged:  # twice the cells per class, and classes of different sizes
            coloring = [
                ScheduleClass(a.color, tuple(sorted(a.cells + b.cells)))
                for a, b in zip(coloring[::2], coloring[1::2])
            ] + coloring[len(coloring) // 2 * 2 :]
        layout = stage1_layout(grid, coloring, config, protocol)
        assert len({c.size for c in grid}) > 3
        assert len({len(cls.cells) for cls, *_ in layout}) > 1
        records = stage1_schedule(grid, layout, config, protocol)
        phases = ["discovery", "identity"] if protocol == "max" else ["hist_count"]
        assert [r.phase for r in records] == phases  # one per phase
        got = stage1_keys(records, ("discovery", "identity", "hist_count"))
        want = schedule_per_cell(grid, layout, config, protocol)
        assert got.dtype == want.dtype and np.array_equal(got, want)


class TestObliviousness:
    def test_discovery_and_identity_schedules_ignore_bits(self):
        from noisyplanar.channel import Trace

        inst, params, grid, coloring, config, channel = build_world(800, 6, 0.1)
        channel.trace = Trace()
        run_stage1_max(grid, coloring, config, channel)
        flipped = Channel(
            inst.with_bits(1 - inst.bits),
            params,
            NoiseModel(0.1),
            np.random.default_rng(99),
            trace=Trace(),
        )
        run_stage1_max(grid, coloring, config, flipped)
        phases = ("discovery", "identity")
        assert np.array_equal(
            stage1_keys(channel.trace.stage1, phases), stage1_keys(flipped.trace.stage1, phases)
        )
