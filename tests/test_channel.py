"""BSC flips, protocol-model slot resolution, coloring, energy accounting."""

import math
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

from noisyplanar.channel import (
    COLLISION,
    SILENCE,
    Channel,
    EnergyConfig,
    Metrics,
    NoiseModel,
    Trace,
    TxEvent,
    account,
    color_cells,
    flip,
    received,
    resolve_slot,
)
from noisyplanar.geometry import assign_cells, derive_params, place_nodes

from conftest import make_hand_world


class TestFlip:
    def test_noiseless_identity(self):
        rng = np.random.default_rng(0)
        assert flip(1, 0.0, rng) == 1
        assert flip(0, 0.0, rng) == 0

    def test_flip_fraction_matches_binomial_oracle(self):
        # At p = 0.499 over 1e6 draws the binomial sd is ~0.0005, so the
        # +/- 0.003 band is a six-sigma check.
        rng = np.random.default_rng(42)
        p = 0.499
        n = 1_000_000
        flips = (rng.random(n) < p).sum()
        assert abs(flips / n - p) <= 0.003

    def test_composition_doubles_flip_probability(self):
        # Two independent BSC uses compose to 2p(1-p); at p = 0.1 that is 0.18.
        rng = np.random.default_rng(7)
        p = 0.1
        trials = 200_000
        out = sum(flip(flip(0, p, rng), p, rng) for _ in range(trials))
        expect = 2 * p * (1 - p)
        sigma = math.sqrt(expect * (1 - expect) / trials)
        assert abs(out / trials - expect) <= 3 * sigma

    @pytest.mark.parametrize("p", [-0.01, 0.5, 0.7])
    def test_rejects_out_of_range_probability(self, p):
        with pytest.raises(ValueError):
            flip(0, p, np.random.default_rng(0))


def _layout(*points):
    return np.array(points, dtype=float)


class TestResolveSlot:
    def setup_method(self):
        self.params = derive_params(5000, 0.5)
        self.noise = NoiseModel(0.0)
        self.rng = np.random.default_rng(0)

    def test_single_in_range_transmitter_delivers(self):
        r = self.params.radius
        pos = _layout((0.5, 0.5), (0.5 + 0.5 * r, 0.5))
        out = resolve_slot([TxEvent(0, 0, 1)], [1], pos, self.params, self.noise, self.rng)
        assert out[1].is_received and out[1].bit == 1

    def test_two_in_range_transmitters_collide(self):
        r = self.params.radius
        pos = _layout((0.5 - 0.4 * r, 0.5), (0.5 + 0.4 * r, 0.5), (0.5, 0.5))
        events = [TxEvent(0, 0, 1), TxEvent(0, 1, 0)]
        out = resolve_slot(events, [2], pos, self.params, self.noise, self.rng)
        assert out[2] == COLLISION

    def test_guard_band_interferer_collides(self):
        # Second transmitter at 1.2 r with delta = 0.5 sits inside the guard
        # ring (1.5 r): it cannot deliver but still destroys the reception.
        r = self.params.radius
        pos = _layout((0.5 + 0.5 * r, 0.5), (0.5 - 1.2 * r, 0.5), (0.5, 0.5))
        events = [TxEvent(0, 0, 1), TxEvent(0, 1, 0)]
        out = resolve_slot(events, [2], pos, self.params, self.noise, self.rng)
        assert out[2] == COLLISION

    def test_interferer_beyond_guard_ring_is_harmless(self):
        r = self.params.radius
        pos = _layout((0.5 + 0.5 * r, 0.5), (0.5 - 1.6 * r, 0.5), (0.5, 0.5))
        events = [TxEvent(0, 0, 1), TxEvent(0, 1, 0)]
        out = resolve_slot(events, [2], pos, self.params, self.noise, self.rng)
        assert out[2].is_received and out[2].bit == 1

    def test_nobody_in_range_is_silence(self):
        r = self.params.radius
        pos = _layout((0.5 + 1.2 * r, 0.5), (0.5, 0.5))
        out = resolve_slot([TxEvent(0, 0, 1)], [1], pos, self.params, self.noise, self.rng)
        assert out[1] == SILENCE

    def test_received_bits_are_exact_when_noiseless(self):
        rng = np.random.default_rng(3)
        r = self.params.radius
        for _ in range(50):
            bit = int(rng.integers(2))
            pos = _layout((0.5, 0.5), (0.5 + rng.random() * 0.9 * r, 0.5))
            out = resolve_slot([TxEvent(0, 0, bit)], [1], pos, self.params, self.noise, self.rng)
            assert out[1].bit == bit

    def test_rejects_multi_slot_event_sets(self):
        pos = _layout((0.5, 0.5), (0.6, 0.5))
        with pytest.raises(ValueError):
            resolve_slot(
                [TxEvent(0, 0, 1), TxEvent(1, 1, 0)], [0], pos, self.params, self.noise, self.rng
            )


def _reference_slot(events, listeners, positions, params, noise, rng, history=None):
    """The reception rule written out pair by pair: the oracle for resolve_slot."""
    slot = events[0].slot if events else 0
    guard = (1.0 + params.delta) * params.radius
    outcomes = {}
    for j in listeners:
        dists = [float(np.linalg.norm(positions[e.tx] - positions[j])) for e in events]
        in_range = [i for i, d in enumerate(dists) if d <= params.radius]
        if not in_range:
            outcomes[j] = SILENCE
        elif len(in_range) == 1 and all(
            d >= guard for i, d in enumerate(dists) if i != in_range[0]
        ):
            e = events[in_range[0]]
            p = noise.flip_prob(slot, e.tx, j, history)
            outcomes[j] = received(flip(e.bit, p, rng))
        else:
            outcomes[j] = COLLISION
    return outcomes


def _reference_rx(events, listeners, positions, params):
    """The listeners with some transmitter in range, counted pair by pair."""
    rx = 0
    for j in listeners:
        if any(np.linalg.norm(positions[e.tx] - positions[j]) <= params.radius for e in events):
            rx += 1
    return rx


def _random_slot(rng, nodes=14, max_events=6):
    """A layout a few radii wide and 0..max_events transmitters among its nodes."""
    positions = rng.random((nodes, 2)) * 0.45
    txs = rng.choice(nodes, size=int(rng.integers(max_events + 1)), replace=False)
    return positions, [TxEvent(7, int(t), int(rng.integers(2))) for t in txs]


class TestReceptionRuleAgainstReference:
    @pytest.mark.parametrize("delta", [0.5, 0.0])
    def test_outcomes_and_rx_counts_match(self, delta):
        # Every node listens, transmitters included, passed as a range.
        params = derive_params(5000, delta)
        rng = np.random.default_rng(11)
        kinds, empty, self_heard = set(), 0, 0
        for _ in range(300):
            pos, events = _random_slot(rng)
            listeners = range(len(pos))
            noise, noise_rng = NoiseModel(0.0), np.random.default_rng(0)
            got = resolve_slot(events, listeners, pos, params, noise, noise_rng)
            want = _reference_slot(events, listeners, pos, params, noise, noise_rng)
            assert list(got.items()) == list(want.items())
            metrics = account(Metrics(), events, listeners, pos, params)
            assert metrics.rx_stage1 == _reference_rx(events, listeners, pos, params)
            assert metrics.tx_stage1 == len(events)
            kinds |= {o.kind for o in got.values()}
            empty += not events
            self_heard += sum(got[e.tx].is_received for e in events)
        assert kinds == {"received", "collision", "silence"}
        assert empty and self_heard

    def test_noisy_bits_and_draw_count_match_under_equal_seeds(self):
        params = derive_params(5000, 0.5)
        layouts = np.random.default_rng(5)
        ours, theirs = np.random.default_rng(9), np.random.default_rng(9)
        noise = NoiseModel(0.3)
        for _ in range(200):
            pos, events = _random_slot(layouts)
            listeners = list(layouts.permutation(len(pos)))
            got = resolve_slot(events, listeners, pos, params, noise, ours)
            want = _reference_slot(events, listeners, pos, params, noise, theirs)
            assert list(got.items()) == list(want.items())
        assert ours.bit_generator.state == theirs.bit_generator.state

    def test_adversary_sees_the_same_call_sequence(self):
        params = derive_params(5000, 0.5)
        layouts = np.random.default_rng(6)
        calls = {"ours": [], "theirs": []}

        def model(log):
            hook = lambda slot, tx, rx, history: log.append((slot, tx, rx, history)) or 0.2
            return NoiseModel(0.25, mode="adversarial", adversary=hook)

        for _ in range(200):
            pos, events = _random_slot(layouts)
            listeners = list(layouts.permutation(len(pos)))
            seed = int(layouts.integers(1 << 30))
            got = resolve_slot(
                events, listeners, pos, params, model(calls["ours"]),
                np.random.default_rng(seed), history="h",
            )
            want = _reference_slot(
                events, listeners, pos, params, model(calls["theirs"]),
                np.random.default_rng(seed), history="h",
            )
            assert list(got.items()) == list(want.items())
        assert calls["ours"] and calls["ours"] == calls["theirs"]


class TestNoiseModel:
    def test_validation(self):
        with pytest.raises(ValueError):
            NoiseModel(0.5)
        with pytest.raises(ValueError):
            NoiseModel(-0.1)
        with pytest.raises(ValueError):
            NoiseModel(0.1, mode="adversarial")
        with pytest.raises(ValueError):
            NoiseModel(0.1, mode="weird")

    def test_adversary_capped_at_eps0(self):
        greedy = NoiseModel(0.2, mode="adversarial", adversary=lambda s, t, r, h: 0.4)
        with pytest.raises(ValueError, match="outside"):
            greedy.flip_prob(0, 0, 1, None)

    def test_constant_adversary_matches_iid_distribution(self):
        # KS test over per-block flip counts at desk scale.
        inst = place_nodes(10, seed=0)
        params = derive_params(100, 0.5)

        def counts(noise, seed):
            ch = Channel(inst, params, noise, np.random.default_rng(seed))
            return [
                ch.flip_mask((64,), slots=np.arange(64), txs=0, rxs=1).sum() for _ in range(400)
            ]

        iid = counts(NoiseModel(0.3), seed=1)
        adv = counts(
            NoiseModel(0.3, mode="adversarial", adversary=lambda s, t, r, h: 0.3), seed=2
        )
        assert stats.ks_2samp(iid, adv).pvalue > 0.01


class TestColorCells:
    def test_n5000_uses_exactly_k1_plus_1_colors(self):
        params = derive_params(5000, 0.5)
        grid = assign_cells(place_nodes(5000, seed=7), params)
        classes = color_cells(grid, params)
        assert len(classes) == params.interference_bound + 1 == 81
        assert sorted(j for cls in classes for j in cls.cells) == list(range(1, 226))

    def test_zero_radius_degenerates_to_one_color(self):
        _, grid, params = make_hand_world(3)
        params = replace(params, radius=0.0)
        assert params.reuse_distance == 1
        classes = color_cells(grid, params)
        assert len(classes) == 1
        assert classes[0].cells == tuple(range(1, 10))

    def test_same_class_transmissions_never_collide_at_intended_receivers(self):
        # Exhaustive audit per class on a sampled world: every cell of a class
        # transmits at once and each cell's own members must still receive.
        params = derive_params(1000, 0.5)
        inst = place_nodes(1000, seed=2)
        grid = assign_cells(inst, params)
        noise = NoiseModel(0.0)
        rng = np.random.default_rng(0)
        for cls in color_cells(grid, params):
            for pick in (lambda c: c.members[0], lambda c: c.center):
                events = [TxEvent(0, pick(grid.cell(j)), 1) for j in cls.cells]
                for j, event in zip(cls.cells, events):
                    listeners = [m for m in grid.cell(j).members if m != event.tx]
                    out = resolve_slot(events, listeners, inst.positions, params, noise, rng)
                    assert all(o.is_received for o in out.values())


class TestMetricsAndAccount:
    def test_account_energy_arithmetic(self):
        params = derive_params(5000, 0.5)
        pos = np.vstack([[0.5, 0.5]] + [[0.5 + 0.001 * k, 0.5] for k in range(1, 11)])
        metrics = Metrics(energy=EnergyConfig(e_t=1.0, e_r=0.1))
        account(metrics, [TxEvent(0, 0, 1)], range(1, 11), pos, params)
        assert metrics.em1 == pytest.approx(2.0)
        assert metrics.em2 == pytest.approx(1.0)
        assert metrics.tx_count == 1 and metrics.rx_count == 10

    def test_account_zero_events_changes_nothing(self):
        params = derive_params(5000, 0.5)
        metrics = Metrics()
        account(metrics, [], range(5), np.zeros((5, 2)), params)
        assert metrics.tx_count == 0 and metrics.rx_count == 0 and metrics.em1 == 0.0

    def test_silent_listeners_cost_nothing(self):
        params = derive_params(5000, 0.5)
        pos = np.array([[0.0, 0.0], [0.9, 0.9]])
        metrics = Metrics()
        account(metrics, [TxEvent(0, 0, 1)], [1], pos, params)
        assert metrics.tx_count == 1 and metrics.rx_count == 0

    def test_energy_identities_hold_after_every_update(self):
        rng = np.random.default_rng(0)
        metrics = Metrics(energy=EnergyConfig(e_t=1.0, e_r=0.1))
        for _ in range(200):
            stage = ("stage1", "stage2", "distribute")[rng.integers(3)]
            metrics.add(stage, tx=int(rng.integers(5)), rx=int(rng.integers(50)))
            assert metrics.em2 == metrics.energy.e_t * metrics.tx_count
            assert metrics.em1 == (
                metrics.energy.e_t * metrics.tx_count + metrics.energy.e_r * metrics.rx_count
            )

    def test_stage_split_sums_to_totals(self):
        metrics = Metrics()
        metrics.add("stage1", tx=10, rx=20, slots=5)
        metrics.add("stage2", tx=3, rx=3, slots=7)
        metrics.add("distribute", tx=1, rx=2, slots=1)
        assert metrics.tx_count == 14
        assert metrics.rx_count == 25
        assert metrics.slots_total == 13


class TestTrace:
    def test_records_broadcast_and_slot_map_sorts_the_chosen_phases(self):
        ch = Channel(place_nodes(16, seed=0), None, NoiseModel(0.0), np.random.default_rng(0))
        ch.record("identity", 0, np.array([5, 6]), 3)  # untraced: nothing to write
        ch.trace = Trace()
        ch.record("identity", 0, np.array([5, 6]), 3)
        ch.record("discovery", 1, np.array([[5], [2]]), np.array([[1], [9]]))
        ch.record("confirmation", 0, np.array([1]), np.array([[4]]), data_dependent=True)
        assert [(r.phase, r.txs.tolist()) for r in ch.trace.stage1] == [
            ("identity", [3, 3]),
            ("discovery", [1, 9]),
            ("confirmation", [4]),
        ]
        keys = ch.trace.stage1_keys(("discovery", "identity"))
        assert keys.tolist() == [(slot << 32) + tx for slot, tx in [(2, 9), (5, 1), (5, 3), (6, 3)]]
