"""Witness discovery, identity distribution, confirmation, per-cell counting."""

import math
from dataclasses import replace

import numpy as np
import pytest

from noisyplanar import channel as channel_module
from noisyplanar.channel import (
    Channel,
    NoiseModel,
    Trace,
    color_cells,
)
from noisyplanar.coding import BlockCode, RepetitionScheme
from noisyplanar.config import ExperimentConfig
from noisyplanar.geometry import (
    Cell,
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
    _confirmation,
    _discovery,
    _identity,
    _majority_phase,
    _member_firsts,
    confirm_value,
    distribute_identity,
    run_stage1_hist,
    run_stage1_max,
    stage1_layout,
    stage1_schedule,
    witness_discovery,
)
from noisyplanar.harness import run_trial
from noisyplanar.intercell import run_stage2_max

from conftest import merge_pairwise, schedule_per_cell, stage1_keys


def make_cell_world(bits, eps0=0.0, seed=0, msg_bits=4, center=0):
    """A single-cell world holding len(bits) tightly packed nodes, centered on
    node ``center`` (as the sink cell is on the sink node)."""
    n = len(bits)
    rng = np.random.default_rng(1)
    positions = 0.5 + 0.01 * (rng.random((n, 2)) - 0.5)
    inst = NetworkInstance(seed=0, positions=positions, bits=np.array(bits, dtype=np.int8))
    params = DerivedParams(
        n=n,
        delta=0.5,
        grid_dim=1,
        radius=1.5,
        interference_bound=8,
    )
    grid = CellGrid(
        members=np.arange(n), offsets=np.array([0, n]), centers=np.array([center]), grid_dim=1,
        sink_cell=1,
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

    @pytest.mark.parametrize("largest, bits", [(1, 1), (2, 1), (32, 5), (33, 6), (64, 6), (65, 7)])
    def test_message_bits_fit_the_largest_cell(self, largest, bits):
        # Every in-cell index is below the largest occupancy L, so the code
        # carries ceil(log2 L) bits (at least one); the block stays 4 ceil(log2 n).
        cfg = Stage1Config.for_network(5000, 0.1, largest_cell=largest)
        assert cfg.id_code.msg_bits == bits
        assert cfg.block_len == 52

    @pytest.mark.parametrize("n, block_len", [(1000, 40), (70000, 68)])
    def test_trial_code_fits_its_world(self, n, block_len):
        cfg = ExperimentConfig(protocol="max", n=(n,), trials=1, eps0=0.1, base_seed=13)
        run = run_trial(cfg, n, 0)
        largest = int(run.grid.occupancies().max())
        assert run.stage1_config.id_code.msg_bits == math.ceil(math.log2(largest))
        assert run.stage1_config.block_len == block_len

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
        for array in (code.generator, code._packed, code.codebook):
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

    @pytest.mark.parametrize("adversarial", [False, True], ids=["iid", "adversarial"])
    def test_a_center_inside_the_batch_answers_for_itself(self, adversarial):
        # The sink cell's center need not be its least member, and identity
        # decodes every member in one batch, the center among them; it must
        # answer from its own pick, not from its noisy copy.  The hook answers
        # eps0 (``layout_5``).
        cell, grid, config, channel = make_cell_world([0, 0, 0, 1, 0], eps0=0.25, seed=3, center=3)
        if adversarial:
            channel.noise = layout_5(0.25)
        for _ in range(50):
            assert 3 in distribute_identity(cell, 3, config, channel)
            assert 3 not in distribute_identity(cell, 1, config, channel)

    @pytest.mark.parametrize("witness", [-1, 3])
    def test_witness_outside_the_cell_is_refused(self, witness):
        cell, grid, config, channel = make_cell_world([0, 1, 0])
        with pytest.raises(ValueError, match="not a member"):
            distribute_identity(cell, witness, config, channel)


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

    def test_believers_must_be_distinct_members_of_the_cell(self):
        cell, grid, config, channel = make_cell_world([1, 1, 0])
        with pytest.raises(ValueError, match="distinct members"):
            confirm_value(cell, [1, 1], config, channel)
        _, _, grid, _, config, channel = build_world(1200, 0, 0.0)
        with pytest.raises(ValueError, match="distinct members"):
            confirm_value(grid.cell(1), [int(grid.cell(2).members[0])], config, channel)


class TestRunStage1Max:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_noiseless_values_equal_cell_maxima(self, seed):
        inst, params, grid, coloring, config, channel = build_world(1200, seed, 0.0)
        result = run_stage1_max(grid, coloring, config, channel)
        for c in grid:
            assert result.values[c.index] == int(inst.bits[list(c.members)].max())
            assert result.witnesses[c.index] in c.members

    def test_noiseless_max_where_the_largest_cell_is_a_power_of_two(self):
        # The n = 2000 world of base seed 2 (base seed 1 up to RNG layout 6)
        # has a largest cell of exactly 32 nodes, so its last member's index,
        # 31, takes all five message bits.  Explicit bits are relabelled, so
        # the trial's own world and code run again on bits set by id.
        cfg = ExperimentConfig(protocol="max", n=(2000,), trials=1, eps0=0.0, base_seed=2)
        run = run_trial(cfg, 2000, 0)
        grid = run.grid
        assert int(grid.occupancies().max()) == 32
        bits = np.zeros(2000, dtype=np.int8)
        bits[[c.members[-1] for c in grid]] = 1  # each cell's last member is its witness
        channel = Channel(
            run.instance.with_bits(bits), run.params, NoiseModel(0.0), np.random.default_rng(0)
        )
        stage1 = run_stage1_max(grid, run.coloring, run.stage1_config, channel)
        computed = run_stage2_max(
            run.plan, stage1.values, run.link_config, channel, grid, run.params, run.tree
        )
        assert run.stage1_config.id_code.msg_bits == 5
        assert stage1.witnesses[1:].tolist() == [int(c.members[-1]) for c in grid]
        assert set(stage1.values[1:].tolist()) == {1} and computed == 1

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
        assert bumped.values.max() >= base.values.max()


class TestRunStage1Hist:
    @pytest.mark.parametrize("seed", [0, 3])
    def test_noiseless_counts_are_exact(self, seed):
        inst, params, grid, coloring, config, channel = build_world(1200, seed, 0.0)
        result = run_stage1_hist(grid, coloring, config, channel)
        for c in grid:
            assert result.values[c.index] == int(inst.bits[list(c.members)].sum())

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
                miscounts += result.values[c.index] != truth
        assert miscounts == 0


def hist_per_cell(grid, coloring, config, channel):
    """Histogram counting with one draw and one count per cell, cell by cell
    in cell order at its class's first slot: the reference for counting
    every cell at once."""
    counts = np.zeros(len(grid) + 1, dtype=np.int64)
    reps = config.r2
    layout = stage1_layout(grid, coloring, config, "hist")
    base_of = {j: base for cls, base in zip(coloring, layout[0]) for j in cls.cells}
    for j in sorted(base_of):
        cell = grid.cell(j)
        members = np.array(cell.members)
        n_members = len(members)
        bits = channel.instance.bits[members]
        slots = base_of[j] + np.arange(n_members * reps).reshape(n_members, reps)
        txs = members[:, None]
        where = lambda at: (slots[at], txs[at], cell.center)
        wrong = channel.majority_mask((n_members, reps), where=where)
        decoded = (bits ^ wrong).astype(np.int8)
        decoded[members == cell.center] = bits[members == cell.center]
        channel.record("hist_count", members, slots[:, 0], reps)
        channel.metrics.add("stage1", tx=reps * n_members, rx=reps * n_members * (n_members - 1))
        counts[j] = int(decoded.sum())
    channel.metrics.add("stage1", slots=int(layout[1].sum()))
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
                counts = run_stage1_hist(grid, coloring, config, channel).values
                # one record for the phase
                assert [r.phase for r in channel.trace.stage1] == ["hist_count"]
            else:
                counts = hist_per_cell(grid, coloring, config, channel)
            rows = traced_rows(channel.trace)
            truth = [0] + [int(inst.bits[list(c.members)].sum()) for c in grid]
            out.append((
                counts.tolist(),
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
            assert any(t != c for t, c in zip(truth, counts))

    def test_adversary_sees_the_same_receptions(self):
        calls = []

        def hook(slot, tx, rx, history):
            calls.append((slot, tx, rx))
            return 0.2

        noise = NoiseModel(0.2, adversary=hook)
        batched, per_cell = self.count_both(0.2, 5, noise)
        assert batched == per_cell
        half = len(calls) // 2
        assert half > 0 and calls[:half] == calls[half:]


# The per-cell phases as they were written before stage 1 stated each phase
# once: code that the batched run does not share, to compare it with.
def reference_witness_discovery(
    cell: Cell, config: Stage1Config, channel: Channel, slot0: int = 0
) -> int:
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


def reference_distribute_identity(
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
        (n_members, length), where=lambda at: (slots[None, :], cell.center, members[at, None])
    )
    believes = config.id_code.decode_equals(local_witness, flips, np.arange(n_members))
    believes[members == cell.center] = witness == cell.center

    channel.record("identity", [cell.center], slot0, length)
    channel.metrics.add("stage1", tx=length, rx=length * (n_members - 1))
    return [int(m) for m in members[believes]]


def reference_confirm_value(
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
            where = lambda at: (slots, b, cell.center)
            value = bit ^ int(channel.majority_mask((config.r2,), where=where))
    else:
        value = 0  # silence or wall-to-wall collisions: every slot is an erasure

    channel.record("confirmation", believers, slot0, config.r2)
    channel.metrics.add(
        "stage1",
        tx=config.r2 * n_believers,
        rx=config.r2 * (n_members - n_believers) if n_believers else 0,
    )
    return value


def cell_lists(result):
    """A Stage1Result's arrays as lists, so that two results compare with ==."""
    return [None if a is None else a.tolist() for a in (result.values, result.witnesses)]


REFERENCES = (reference_witness_discovery, reference_distribute_identity, reference_confirm_value)
ENTRY_POINTS = (witness_discovery, distribute_identity, confirm_value)


def max_phase_major(grid, coloring, config, channel, phases=REFERENCES):
    """MAX stage 1 through per-cell phases (the references by default) in
    phase-major order -- discovery in every cell, then identity, then
    confirmation, each cell by cell in cell order at its class's slots (RNG
    layout 7; layouts 3 to 6 went class by class): the reference for the
    block-drawn run."""
    discover, identify, confirm = phases
    result = Stage1Result(*(np.zeros(len(grid) + 1, dtype=np.int64) for _ in range(2)))
    layout = stage1_layout(grid, coloring, config, "max")
    cells = sorted(
        ((grid.cell(j), *config.phase_slots(base, max_members))
         for cls, base, _, max_members in zip(coloring, *layout)
         for j in cls.cells),
        key=lambda entry: entry[0].index,
    )
    for cell, base, _, _ in cells:
        result.witnesses[cell.index] = discover(cell, config, channel, slot0=base)
    believers = [
        identify(cell, result.witnesses[cell.index], config, channel, slot0=id_base)
        for cell, _, id_base, _ in cells
    ]
    for (cell, _, _, confirm_base), believing in zip(cells, believers):
        result.values[cell.index] = confirm(cell, believing, config, channel, slot0=confirm_base)
    channel.metrics.add("stage1", slots=int(layout[1].sum()))
    return result


# A code with no redundancy, one discovery copy and three confirmation copies:
# at eps0 = 0.3 witnesses are missed, identities mis-decode, cells go without
# a believer or with several, and confirmations flip.
LOSSY = Stage1Config(eps1=0.05, c_rep=1, r2=3, id_code=BlockCode(6, 6, seed=2))
# A 70-bit identity code spans two uint64 words, as the codes of n > 2^16 do.
TWO_WORDS = replace(Stage1Config.for_network(2000, 0.0), id_code=BlockCode(11, 70, seed=404))


def layout_5(eps0):
    """Noise whose hook answers eps0: the per-reception stream that iid noise
    drew up to RNG layout 5, and that the per-cell references draw."""
    return NoiseModel(eps0, adversary=lambda slot, tx, rx, history: eps0)


class TestMaxClassBatching:
    @staticmethod
    def run_both(n, eps0, config=None, noise=None, reference=max_phase_major, bit_p=0.3):
        """(witnesses, values, metrics, trace rows, rng state) of the batched
        run and of the reference, each on a fresh channel, and the world's grid.
        The noise is a hook that answers eps0 unless given (``layout_5``)."""
        config = config or Stage1Config.for_network(2000, 0.0)
        out = []
        for run in (run_stage1_max, reference):
            inst, params, grid, coloring, config, channel = build_world(n, 4, eps0, config, bit_p)
            channel.noise = noise if noise is not None else layout_5(eps0)
            channel.trace = Trace()
            result = run(grid, coloring, config, channel)
            if run is run_stage1_max:  # one record per phase, in draw order
                phases = [r.phase for r in channel.trace.stage1]
                assert phases == ["discovery", "identity", "confirmation"]
            rows = traced_rows(channel.trace)
            out.append((
                result.witnesses.tolist(),
                result.values.tolist(),
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
        witnesses, values = batched[0], batched[1]
        empty = [c for c in grid if values[c.index] == 0]
        assert len(empty) > 10
        assert all(witnesses[c.index] == c.members[0] for c in empty)

    def test_every_confirmation_case_is_compared(self):
        (batched, reference), grid = self.run_both(2000, 0.3, LOSSY)
        assert batched == reference
        witness, values, _, rows, _ = batched
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
        calls = []  # per decode_equals call: [its rows, the rows it decodes in full]
        decode_equals, decode_batch = BlockCode.decode_equals, BlockCode.decode_batch

        def counted(code, true_msg, flips, candidates):
            calls.append([len(candidates), 0])
            return decode_equals(code, true_msg, flips, candidates)

        def counted_batch(code, words):
            calls[-1][1] += len(words)
            return decode_batch(code, words)

        monkeypatch.setattr(BlockCode, "decode_equals", counted)
        monkeypatch.setattr(BlockCode, "decode_batch", counted_batch)
        (batched, reference), grid = self.run_both(2000, 0.3, TWO_WORDS)
        assert batched == reference
        # The batched run decodes the rows its shortcuts leave open in one
        # call, the reference every cell in one call each.
        members = sum(c.size for c in grid)
        assert len(calls) == 1 + len(grid) and calls[0][0] == calls[0][1]
        assert sum(rows for rows, _ in calls[1:]) == members
        assert sum(full for _, full in calls[1:]) == calls[0][1]
        # The shortcuts leave few of the batched run's rows to the full decode.
        assert 0 < calls[0][1] < members // 10

    def test_adversary_sees_the_same_receptions(self):
        calls = []

        def hook(slot, tx, rx, history):
            calls.append((slot, tx, rx))
            return 0.2

        noise = NoiseModel(0.2, adversary=hook)
        (batched, reference), _ = self.run_both(2000, 0.2, noise=noise)
        assert batched == reference
        half = len(calls) // 2
        assert half > 0 and calls[:half] == calls[half:]

    @pytest.mark.parametrize("adversarial", [False, True], ids=["iid", "adversarial"])
    def test_entry_points_run_as_the_references(self, adversarial):
        # The per-cell entry points are one-cell calls of the batched phases:
        # the same results, draws, hook calls, trace records and metrics as
        # the per-cell references, in every confirmation case (LOSSY).  The
        # "iid" runs draw layout 5's iid stream, which the references draw
        # (``layout_5``).
        out = []
        for phases in (REFERENCES, ENTRY_POINTS):
            inst, params, grid, coloring, config, channel = build_world(2000, 0, 0.3, LOSSY)
            calls = []
            if adversarial:
                hook = lambda slot, tx, rx, history: calls.append((slot, tx, rx)) or 0.3
                channel.noise = NoiseModel(0.3, adversary=hook)
            else:
                channel.noise = layout_5(0.3)
            channel.trace = Trace()
            result = max_phase_major(grid, coloring, config, channel, phases)
            records = [
                (r.phase, r.txs.tolist(), r.first.tolist(), r.copies) for r in channel.trace.stage1
            ]
            state = channel.rng.bit_generator.state
            out.append((cell_lists(result), channel.metrics.snapshot(), records, state, calls))
        assert out[0] == out[1]
        assert (len(calls) > 0) == adversarial


class TestStage1Blocks:
    """Each stage-1 phase is one draw under every noise model.  iid noise
    draws its uniforms, and identity its weights, overlaps and patterns,
    through FLIP_CHUNK buffers; a hook is asked in chunks of at most
    FLIP_CHUNK receptions.  Buffers and chunks bound memory and move no draw."""

    @staticmethod
    def run_at(protocol, adversarial, seed=4):
        """(result, metrics, trace records, rng state, hook calls) of one run, the
        shapes it drew and its grid."""
        config = LOSSY if protocol == "max" else replace(Stage1Config.for_network(2000, 0.0), r2=3)
        inst, params, grid, coloring, config, channel = build_world(2000, seed, 0.3, config)
        calls = []

        def hook(slot, tx, rx, history):
            calls.append((slot, tx, rx))
            return 0.3

        if adversarial:
            channel.noise = NoiseModel(0.3, adversary=hook)
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
        return (cell_lists(result), channel.metrics.snapshot(), records, state, calls), draws, grid

    @pytest.mark.parametrize("adversarial", [False, True], ids=["iid", "adversarial"])
    @pytest.mark.parametrize("protocol", ["max", "hist"])
    def test_each_phase_is_one_draw(self, protocol, adversarial):
        run, draws, grid = self.run_at(protocol, adversarial)
        # An adversary's MAX run draws discovery, identity (one flip per member
        # and codeword bit) and confirmation; iid identity draws no flip per
        # reception (RNG layout 6), and the histogram counts in one draw.
        if protocol == "max" and adversarial:
            assert draws[1] == (grid.n, LOSSY.block_len) and len(draws) == 3
        else:
            assert len(draws) == (2 if protocol == "max" else 1)
        assert (len(run[4]) > 0) == adversarial

    def test_a_hook_sees_each_phase_as_its_draw_began(self):
        # Every reception of a stage-1 phase sees one RNG state, the one right
        # after the phase's uniforms; identity's 88,000 receptions span three
        # FLIP_CHUNK chunks.  Stage-1 phases charge their metrics after their
        # draws, so the stage-1 counters tell the phases apart.
        states, calls = {}, {}

        def hook(slot, tx, rx, history):
            m = history.metrics
            phase = (m.slots_stage1, m.tx_stage1)
            states.setdefault(phase, set()).add(history.rng.bit_generator.state["state"]["state"])
            calls[phase] = calls.get(phase, 0) + 1
            return 0.1

        cfg = ExperimentConfig(protocol="max", n=(2000,), trials=1, eps0=0.1, base_seed=13)
        run = run_trial(cfg, 2000, 0, noise=NoiseModel(0.1, hook))
        c_rep, length, cells = run.stage1_config.c_rep, run.stage1_config.block_len, len(run.grid)
        discovery, identity = (0, 0), (0, c_rep * 2000)
        assert calls[discovery] == c_rep * 2000 and calls[identity] == length * 2000
        confirmation = (0, c_rep * 2000 + length * cells)
        assert all(len(states[phase]) == 1 for phase in (discovery, identity, confirmation))
        rng = np.random.default_rng()
        state = run.channel.rng.bit_generator.state
        state["state"]["state"] = states[discovery].pop()
        rng.bit_generator.state = state
        rng.random((2000, length))  # identity's uniforms
        assert states[identity] == {rng.bit_generator.state["state"]["state"]}

    @pytest.mark.parametrize("adversarial", [False, True], ids=["iid", "adversarial"])
    @pytest.mark.parametrize("after", [0, 1], ids=["center-opens-a-chunk", "center-ends-a-chunk"])
    def test_a_cut_inside_the_sink_cell_gives_the_same_run(self, after, adversarial, monkeypatch):
        # The sink cell's center is the sink node, which need not be its least
        # member (in the n = 2000 world of seed 0 it is its tenth).  A chunk
        # boundary just before or just after it splits the cell's members, and
        # the center must still answer for itself.  A hook is asked about
        # FLIP_CHUNK // block_len identity rows at a time, so there the boundary
        # cuts the identity batch.  Under iid noise it cuts only the buffers of
        # one uniform per member (discovery's majority draw and identity's
        # weight draw); identity's overlap and pattern passes run over blocks
        # of the rows that reach the weight threshold, and cut elsewhere.
        whole, _, grid = self.run_at("max", adversarial, seed=0)
        order = whole[2][0][1]  # discovery's transmitters: every member end to end
        sink = grid.cell(grid.sink_cell)
        first, center = order.index(int(sink.members[0])), order.index(sink.center)
        assert first < center < first + sink.size - 1  # neither least nor last
        step = center + after  # members per chunk: a boundary at center + after
        chunk = step * LOSSY.block_len if adversarial else step
        monkeypatch.setattr(channel_module, "FLIP_CHUNK", chunk)
        assert self.run_at("max", adversarial, seed=0)[0] == whole

    @pytest.mark.parametrize("chunk", [1, 5, 64])
    @pytest.mark.parametrize("adversarial", [False, True], ids=["iid", "adversarial"])
    @pytest.mark.parametrize("protocol", ["max", "hist"])
    def test_every_flip_chunk_gives_the_same_run(self, protocol, adversarial, chunk, monkeypatch):
        # LOSSY's 6-bit code leaves many rows to each iid identity pass at eps0 0.3.
        whole, _, _ = self.run_at(protocol, adversarial)
        monkeypatch.setattr(channel_module, "FLIP_CHUNK", chunk)
        assert self.run_at(protocol, adversarial)[0] == whole


def per_member_majority_phase(members, sizes, centers, cell_base, reps, phase, channel):
    """``_majority_phase`` by per-member arrays: each member's first slot and
    center, and a center found as the member equal to its cell's center."""
    firsts = _member_firsts(sizes, cell_base, reps)
    own_center = centers.repeat(sizes)
    bits = channel.instance.bits[members]
    decoded = bits ^ channel.majority_mask(
        (members.size, reps),
        where=lambda at: (firsts[at, None] + np.arange(reps), members[at, None],
                          own_center[at, None]),
    )
    is_center = members == own_center
    decoded[is_center] = bits[is_center]
    channel.record(phase, members, firsts, reps)
    channel.metrics.add("stage1", tx=reps * int(sizes.sum()), rx=reps * int(sizes.dot(sizes - 1)))
    return decoded


def per_member_identity(members, sizes, centers, id_bases, pick, config, channel):
    """``_identity`` by per-member arrays: each member's cell, the witness's
    in-cell index it is sent and its own; a member believes where its decode
    says so, a center where sent == own."""
    code, length = config.id_code, config.block_len
    starts = sizes.cumsum() - sizes
    rank = np.repeat(np.arange(sizes.size), sizes)
    sent = (pick - starts)[rank]
    own = np.arange(members.size) - starts[rank]
    believes = sent == own
    rows, flips = channel.code_errors(
        code,
        members.size,
        lambda at: (sent[at], own[at]),
        where=lambda at: (id_bases[rank[at], None] + np.arange(length), centers[rank[at], None],
                          members[at, None]),
    )
    believes[rows] = code.decode_equals(sent[rows], flips, own[rows])
    is_center = members == centers[rank]
    believes[is_center] = sent[is_center] == own[is_center]
    channel.record("identity", centers, id_bases, length)
    channel.metrics.add("stage1", tx=length * sizes.size, rx=length * int(sizes.sum() - sizes.size))
    return believes


def hand_grid_with_empty_cells():
    """A 3 x 3 hand-built grid whose first, middle and last cells are empty
    (center -1), and three of whose centers are not their cell's first
    member; member ids are shuffled across cells, ascending inside each."""
    rng = np.random.default_rng(11)
    sizes = np.array([0, 3, 5, 2, 0, 4, 6, 3, 0])
    center_at = [None, 0, 2, 1, None, 0, 3, 0, None]  # in-cell index of each center
    n = int(sizes.sum())
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    ids = rng.permutation(n)
    members = np.concatenate([np.sort(ids[a:b]) for a, b in zip(offsets[:-1], offsets[1:])])
    centers = np.array([-1 if k is None else members[o + k] for o, k in zip(offsets, center_at)])
    inst = NetworkInstance(
        seed=0, positions=rng.random((n, 2)), bits=(rng.random(n) < 0.5).astype(np.int8)
    )
    params = DerivedParams(n=n, delta=0.5, grid_dim=3, radius=1.5, interference_bound=8)
    grid = CellGrid(members=members, offsets=offsets, centers=centers, grid_dim=3, sink_cell=2)
    return inst, params, grid


class TestPerMemberRules:
    """Discovery's majority phase and identity find each cell's center through
    its row and name believers per cell; they must equal the per-member rules
    (members == centers.repeat(sizes), sent == own), empty cells and centers
    that are not their cell's first member included.  Confirmation and
    histogram counting sum per-member arrays cell by cell; they must equal
    the per-cell loops, an empty cell reading 0."""

    @staticmethod
    def world(kind):
        """(instance, params, cells gathered in cell order, id code)."""
        if kind == "hand-built":
            inst, params, grid = hand_grid_with_empty_cells()
            code = BlockCode(3, 6, seed=2)
        else:
            inst, params, grid, _, _, _ = build_world(2000, 0, 0.3, LOSSY)
            sink = grid.cell(grid.sink_cell)
            assert sink.center != sink.members[0]
            code = LOSSY.id_code
        cells = np.arange(1, len(grid) + 1)
        return inst, params, grid.gather(cells), code

    @pytest.mark.parametrize("adversarial", [False, True], ids=["iid", "adversarial"])
    @pytest.mark.parametrize("kind", ["hand-built", "sampled"])
    def test_phases_equal_the_per_member_rules(self, kind, adversarial):
        inst, params, (members, sizes, centers), code = self.world(kind)
        config = Stage1Config(eps1=0.05, c_rep=3, r2=3, id_code=code)
        starts = sizes.cumsum() - sizes
        bases, id_bases = 50 * np.arange(sizes.size), 7 + 40 * np.arange(sizes.size)
        # Witnesses: the center in every third occupied cell from the third,
        # else the cell's last member, not its center in these worlds; an
        # empty cell's start, as discovery names it, which is the next cell's
        # center in the hand-built grid.
        occupied = sizes > 0
        pick = np.where(occupied, starts + sizes - 1, starts)
        centered = np.flatnonzero(occupied)[2::3]
        pick[centered] = [
            starts[c] + np.flatnonzero(members[starts[c] :] == centers[c])[0] for c in centered
        ]
        wrong_last, mixed = [], []  # per noise seed
        for seed in range(13, 43 if kind == "hand-built" else 14):
            out = [self.run(phases, inst, params, members, sizes, centers, bases, id_bases, pick,
                            config, adversarial, seed)
                   for phases in ((_majority_phase, _identity),
                                  (per_member_majority_phase, per_member_identity))]
            assert out[0] == out[1]
            decoded, believes, *_, calls = out[0]
            assert (len(calls) > 0) == adversarial
            wrong_last.append(decoded[-1] != inst.bits[members[-1]])
            mixed.append(np.flatnonzero(believes).tolist() != sorted(pick[occupied]))
        # Some believers are not witnesses; the hand-built grid's last member,
        # before an empty cell (center -1), is no center and sometimes decodes
        # its bit wrong.
        assert any(mixed)
        if kind == "hand-built":
            assert members[-1] not in centers and any(wrong_last)

    @staticmethod
    def run(phases, inst, params, members, sizes, centers, bases, id_bases, pick, config,
            adversarial, seed):
        """(decoded, believers, trace records, metrics, rng state, hook calls)
        of one discovery majority phase and one identity phase."""
        majority, identity = phases
        calls = []

        def hook(slot, tx, rx, history):
            calls.append((slot, tx, rx))
            return 0.3 * ((7 * slot + 3 * tx + rx) % 5) / 4

        noise = NoiseModel(0.3, hook) if adversarial else NoiseModel(0.3)
        channel = Channel(inst, params, noise, np.random.default_rng(seed), trace=Trace())
        decoded = majority(members, sizes, centers, bases, 3, "discovery", channel)
        believes = identity(members, sizes, centers, id_bases, pick, config, channel)
        records = [
            (r.phase, r.txs.tolist(), r.first.tolist(), r.copies) for r in channel.trace.stage1
        ]
        state = channel.rng.bit_generator.state
        metrics = channel.metrics.snapshot()
        return decoded.tolist(), believes.tolist(), records, metrics, state, calls

    @pytest.mark.parametrize("kind", ["hand-built", "sampled"])
    def test_discovery_names_each_cells_first_one(self, kind):
        # Sparse ones, so that many cells decode none and name their start.
        inst, params, (members, sizes, centers), code = self.world(kind)
        inst = inst.with_bits((np.random.default_rng(14).random(inst.n) < 0.05).astype(np.int8))
        config = Stage1Config(eps1=0.05, c_rep=3, r2=3, id_code=code)
        bases = 50 * np.arange(sizes.size)
        channel = Channel(inst, params, NoiseModel(0.3), np.random.default_rng(13))
        pick = _discovery(members, sizes, centers, bases, config, channel)
        channel = Channel(inst, params, NoiseModel(0.3), np.random.default_rng(13))
        decoded = per_member_majority_phase(members, sizes, centers, bases, 3, "discovery", channel)
        starts = sizes.cumsum() - sizes
        want, without = [], 0  # occupied cells that decode no 1
        for start, size in zip(starts.tolist(), sizes.tolist()):
            ones = np.flatnonzero(decoded[start : start + size])
            want.append(start + int(ones[0]) if ones.size else start)
            without += size > 0 and ones.size == 0
        assert pick.tolist() == want
        assert (pick > starts).any() and without > 0

    @staticmethod
    def grid_world(kind):
        """(instance, params, grid) of ``world``'s hand-built grid or sampled world."""
        if kind == "hand-built":
            return hand_grid_with_empty_cells()
        inst, params, grid, _, _, _ = build_world(2000, 0, 0.3, LOSSY)
        return inst, params, grid

    @staticmethod
    def noisy_channel(inst, params, adversarial, seed, calls):
        def hook(slot, tx, rx, history):
            calls.append((slot, tx, rx))
            return 0.3 * ((7 * slot + 3 * tx + rx) % 5) / 4

        noise = NoiseModel(0.3, hook) if adversarial else NoiseModel(0.3)
        return Channel(inst, params, noise, np.random.default_rng(seed), trace=Trace())

    @staticmethod
    def outcome(values, channel, calls):
        """What a run leaves: values, traced rows, metrics, rng state, hook calls."""
        state = channel.rng.bit_generator.state
        return values, traced_rows(channel.trace), channel.metrics.snapshot(), state, calls

    @pytest.mark.parametrize("adversarial", [False, True], ids=["iid", "adversarial"])
    @pytest.mark.parametrize("kind", ["hand-built", "sampled"])
    def test_confirmation_equals_the_per_cell_loop(self, kind, adversarial):
        inst, params, grid = self.grid_world(kind)
        cells = np.arange(1, len(grid) + 1)
        members, sizes, centers = grid.gather(cells)
        config = Stage1Config(eps1=0.05, c_rep=3, r2=3, id_code=BlockCode(3, 6, seed=2))
        confirm_bases = 11 + 30 * np.arange(sizes.size)
        # Occupied cells take turns: no believer, one that is not the center,
        # the center alone, and the first two members.
        believes = np.zeros(members.size, dtype=bool)
        starts = sizes.cumsum() - sizes
        for k, c in enumerate(np.flatnonzero(sizes > 0).tolist()):
            cell = members[starts[c] : starts[c] + sizes[c]]
            case = k % 4
            if case == 1:
                believes[starts[c] + (0 if cell[-1] == centers[c] else sizes[c] - 1)] = True
            elif case == 2:
                believes[starts[c] + np.flatnonzero(cell == centers[c])] = True
            elif case == 3:
                believes[starts[c] : starts[c] + 2] = True
        by_cell = np.split(believes, grid.offsets[1:-1])
        for seed in range(13, 23):
            calls = [], []
            channel = self.noisy_channel(inst, params, adversarial, seed, calls[0])
            values = _confirmation(members, sizes, centers, confirm_bases, believes, config, channel)
            batched = self.outcome(values.tolist(), channel, calls[0])
            channel = self.noisy_channel(inst, params, adversarial, seed, calls[1])
            values = [
                reference_confirm_value(
                    cell, cell.members[b].tolist(), config, channel, slot0=int(base)
                )
                for cell, b, base in zip(map(grid.cell, cells.tolist()), by_cell, confirm_bases)
            ]
            assert batched == self.outcome(values, channel, calls[1])
            assert (len(calls[0]) > 0) == adversarial
        if kind == "hand-built":
            assert values[0] == values[4] == values[-1] == 0 and sizes[[0, 4, -1]].sum() == 0

    @pytest.mark.parametrize("adversarial", [False, True], ids=["iid", "adversarial"])
    @pytest.mark.parametrize("kind", ["hand-built", "sampled"])
    def test_counting_equals_the_per_cell_loop(self, kind, adversarial):
        inst, params, grid = self.grid_world(kind)
        coloring = color_cells(grid, params)
        config = Stage1Config(eps1=0.05, c_rep=3, r2=3, id_code=BlockCode(3, 6, seed=2))
        for seed in range(13, 23):
            calls = [], []
            channel = self.noisy_channel(inst, params, adversarial, seed, calls[0])
            counts = run_stage1_hist(grid, coloring, config, channel).values
            batched = self.outcome(counts.tolist(), channel, calls[0])
            channel = self.noisy_channel(inst, params, adversarial, seed, calls[1])
            counts = hist_per_cell(grid, coloring, config, channel)
            assert batched == self.outcome(counts.tolist(), channel, calls[1])
            assert (len(calls[0]) > 0) == adversarial
        empty = np.flatnonzero(grid.occupancies() == 0) + 1
        assert counts[empty].tolist() == ([0, 0, 0] if kind == "hand-built" else [])


class TestStage1Schedule:
    @pytest.mark.parametrize("merged", [False, True], ids=["coloring", "merged-pairwise"])
    @pytest.mark.parametrize("protocol", ["max", "hist"])
    def test_equals_the_per_cell_loop(self, protocol, merged):
        _, _, grid, coloring, config, _ = build_world(2000, 3, 0.1)
        if merged:  # twice the cells per class, and classes of different sizes
            coloring = merge_pairwise(coloring)
        layout = stage1_layout(grid, coloring, config, protocol)
        assert len({c.size for c in grid}) > 3
        assert len({len(cls.cells) for cls in coloring}) > 1
        records = stage1_schedule(grid, coloring, layout, config, protocol)
        phases = ["discovery", "identity"] if protocol == "max" else ["hist_count"]
        assert [r.phase for r in records] == phases  # one per phase
        got = stage1_keys(records, ("discovery", "identity", "hist_count"))
        want = schedule_per_cell(grid, coloring, layout, config, protocol)
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
