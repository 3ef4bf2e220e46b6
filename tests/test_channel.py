"""BSC flips, protocol-model slot resolution, coloring, energy accounting."""

import itertools
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

from noisyplanar import channel as channel_module
from noisyplanar.channel import (
    COLLIDED,
    FLIP_CHUNK,
    RECEIVED,
    SILENT,
    Channel,
    Coloring,
    EnergyConfig,
    Metrics,
    NoiseModel,
    ScheduleClass,
    Trace,
    _cell_colors,
    _iid_counts,
    _uniform_chunks,
    _weights_reaching,
    color_cells,
    distances,
    majority_tail,
    resolve_slot,
)
from noisyplanar.coding import BlockCode, LinkSimConfig, RepetitionScheme
from noisyplanar.config import ExperimentConfig
from noisyplanar.geometry import assign_cells, derive_params, place_nodes
from noisyplanar.harness import run_trial, wilson_interval
from noisyplanar.intercell import distribute_result

from conftest import make_hand_world, slot_by_slot, stage1_keys


class TestFlip:
    def test_flip_fraction_matches_binomial_oracle(self):
        # At p = 0.499 over 1e6 draws the binomial sd is ~0.0005, so the
        # +/- 0.003 band is a six-sigma check.
        rng = np.random.default_rng(42)
        p = 0.499
        n = 1_000_000
        flips = (rng.random(n) < p).sum()
        assert abs(flips / n - p) <= 0.003


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
        out = resolve_slot(0, [0], [1], [1], pos, self.params, self.noise, self.rng)
        assert out.tolist() == [RECEIVED + 1]

    def test_two_in_range_transmitters_collide(self):
        r = self.params.radius
        pos = _layout((0.5 - 0.4 * r, 0.5), (0.5 + 0.4 * r, 0.5), (0.5, 0.5))
        out = resolve_slot(0, [0, 1], [1, 0], [2], pos, self.params, self.noise, self.rng)
        assert out.tolist() == [COLLIDED]

    def test_guard_band_interferer_collides(self):
        # Second transmitter at 1.2 r with delta = 0.5 sits inside the guard
        # ring (1.5 r): it cannot deliver but still destroys the reception.
        r = self.params.radius
        pos = _layout((0.5 + 0.5 * r, 0.5), (0.5 - 1.2 * r, 0.5), (0.5, 0.5))
        out = resolve_slot(0, [0, 1], [1, 0], [2], pos, self.params, self.noise, self.rng)
        assert out.tolist() == [COLLIDED]

    def test_interferer_beyond_guard_ring_is_harmless(self):
        r = self.params.radius
        pos = _layout((0.5 + 0.5 * r, 0.5), (0.5 - 1.6 * r, 0.5), (0.5, 0.5))
        out = resolve_slot(0, [0, 1], [1, 0], [2], pos, self.params, self.noise, self.rng)
        assert out.tolist() == [RECEIVED + 1]

    def test_nobody_in_range_is_silence(self):
        r = self.params.radius
        pos = _layout((0.5 + 1.2 * r, 0.5), (0.5, 0.5))
        out = resolve_slot(0, [0], [1], [1], pos, self.params, self.noise, self.rng)
        assert out.tolist() == [SILENT]

    def test_received_bits_are_exact_when_noiseless(self):
        rng = np.random.default_rng(3)
        r = self.params.radius
        for _ in range(50):
            bit = int(rng.integers(2))
            pos = _layout((0.5, 0.5), (0.5 + rng.random() * 0.9 * r, 0.5))
            out = resolve_slot(0, [0], [bit], [1], pos, self.params, self.noise, self.rng)
            assert out.tolist() == [RECEIVED + bit]

    def test_one_bit_broadcasts_to_every_transmitter(self):
        r = self.params.radius
        pos = _layout((0.5, 0.5), (0.5 + 0.5 * r, 0.5), (0.9, 0.9), (0.9 - 0.5 * r, 0.9))
        out = resolve_slot(0, [0, 2], 1, [1, 3], pos, self.params, self.noise, self.rng)
        assert out.tolist() == [RECEIVED + 1, RECEIVED + 1]

    def test_rejects_multi_slot_event_sets(self):
        # A slot array stands for transmissions spread over several slots, and
        # without a slot per listener it says nothing of who listens when.
        pos = _layout((0.5, 0.5), (0.6, 0.5))
        for slots in ([0, 1], np.array([0, 1]), np.array([3])):
            with pytest.raises(ValueError):
                resolve_slot(slots, [0, 1], [1, 0], [0], pos, self.params, self.noise, self.rng)

    def test_zero_transmitters_is_silence_for_every_listener(self):
        pos = _layout((0.5, 0.5), (0.6, 0.5), (0.7, 0.5))
        out = resolve_slot(0, [], [], [2, 0, 1], pos, self.params, self.noise, self.rng)
        assert out.dtype == np.int64 and out.tolist() == [SILENT] * 3

    def test_zero_listeners_is_an_empty_array(self):
        r = self.params.radius
        pos = _layout((0.5, 0.5), (0.5 + 0.5 * r, 0.5))
        state = self.rng.bit_generator.state
        for txs in ([0], []):
            out = resolve_slot(0, txs, 1, [], pos, self.params, NoiseModel(0.3), self.rng)
            assert out.shape == (0,) and out.dtype == np.int64
        assert self.rng.bit_generator.state == state


def _reference_slot(slot, txs, bits, listeners, positions, params, noise, rng, history=None):
    """The reception rule written out pair by pair: the oracle for resolve_slot."""
    guard = (1.0 + params.delta) * params.radius
    kinds = []
    for j in listeners:
        dists = [float(np.linalg.norm(positions[t] - positions[j])) for t in txs]
        in_range = [i for i, d in enumerate(dists) if d <= params.radius]
        if not in_range:
            kinds.append(SILENT)
        elif len(in_range) == 1 and all(
            d >= guard for i, d in enumerate(dists) if i != in_range[0]
        ):
            i = in_range[0]
            p = noise.flip_prob(slot, txs[i], j, history)
            kinds.append(RECEIVED + (int(bits[i]) ^ int(rng.random() < p)))
        else:
            kinds.append(COLLIDED)
    return kinds


def _reference_rx(txs, listeners, positions, params):
    """The listeners with some transmitter in range, counted pair by pair."""
    rx = 0
    for j in listeners:
        if any(np.linalg.norm(positions[t] - positions[j]) <= params.radius for t in txs):
            rx += 1
    return rx


def _random_slot(rng, nodes=14, max_events=6):
    """A layout a few radii wide and 0..max_events transmitters among its nodes,
    as (positions, transmitters, their bits); the slot is 7."""
    positions = rng.random((nodes, 2)) * 0.45
    txs = rng.choice(nodes, size=int(rng.integers(max_events + 1)), replace=False)
    bits = [int(rng.integers(2)) for _ in txs]
    return positions, [int(t) for t in txs], bits


def _boundary_slots(params):
    """Layouts at the edges of the reception rule, each with several transmitter
    sets, as (positions, transmitters, their bits): nodes on a lattice of half
    a hair over the reach, pairs exactly at the radius and at the guard
    radius and one ulp either side, coordinates below 0 and above 1, and
    clusters many reaches apart."""
    r = params.radius
    g = (1.0 + params.delta) * r
    width = max(r, g) * (1.0 + 1e-9)
    rng = np.random.default_rng(17)
    edges = np.arange(5) * width / 2
    layouts = [np.array([(a, b) for a in edges for b in edges[:3]])]
    # sqrt(d * d) == d, so a node d along an axis from the origin sits exactly d away.
    at = [r, g, np.nextafter(r, 0), np.nextafter(r, 1), np.nextafter(g, 0), np.nextafter(g, 1)]
    for a, b in itertools.permutations(at, 2):
        layouts.append(np.array([(0, 0), (a, 0), (0, b), (-b, 0)]))
    for shift in ((-0.7, -0.2), (1.3, 0.8), (-0.2, 0.9)):
        layouts.append(rng.random((14, 2)) * 0.45 + shift)
    # The second spans far more than 2**20 reaches.
    for offsets in (((0, 0), (5, 0), (11, 3)), ((0, 0), (37.3, -5), (1e3, 1e3), (-2.5e6, 7e5))):
        layouts.append(np.concatenate([rng.random((4, 2)) * 2 * r + o for o in offsets]))
    for positions in layouts:
        for _ in range(12):
            size = int(rng.integers(len(positions) + 1))
            txs = rng.choice(len(positions), size=size, replace=False)
            yield positions, [int(t) for t in txs], [int(rng.integers(2)) for _ in txs]


class TestReceptionRuleAgainstReference:
    @pytest.mark.parametrize("delta", [0.5, 0.0])
    def test_outcomes_and_rx_counts_match(self, delta):
        # Every node listens, transmitters included, passed as a range.
        params = derive_params(5000, delta)
        rng = np.random.default_rng(11)
        kinds, empty, self_heard = set(), 0, 0
        layouts = (_random_slot(rng) for _ in range(300))
        for pos, txs, bits in itertools.chain(layouts, _boundary_slots(params)):
            listeners = range(len(pos))
            noise, noise_rng = NoiseModel(0.0), np.random.default_rng(0)
            got = resolve_slot(7, txs, bits, listeners, pos, params, noise, noise_rng)
            want = _reference_slot(7, txs, bits, listeners, pos, params, noise, noise_rng)
            assert got.tolist() == want
            assert int((got != SILENT).sum()) == _reference_rx(txs, listeners, pos, params)
            kinds |= {min(k, RECEIVED) for k in got.tolist()}
            empty += not txs
            self_heard += int((got[txs] >= RECEIVED).sum())
        assert kinds == {RECEIVED, COLLIDED, SILENT}
        assert empty and self_heard

    def test_noisy_bits_and_draw_count_match_under_equal_seeds(self):
        params = derive_params(5000, 0.5)
        layouts = np.random.default_rng(5)
        ours, theirs = np.random.default_rng(9), np.random.default_rng(9)
        noise = NoiseModel(0.3)
        slots = (_random_slot(layouts) for _ in range(200))
        for pos, txs, bits in itertools.chain(slots, _boundary_slots(params)):
            listeners = list(layouts.permutation(len(pos)))
            got = resolve_slot(7, txs, bits, listeners, pos, params, noise, ours)
            want = _reference_slot(7, txs, bits, listeners, pos, params, noise, theirs)
            assert got.tolist() == want
        assert ours.bit_generator.state == theirs.bit_generator.state

    def test_adversary_sees_the_same_call_sequence(self):
        params = derive_params(5000, 0.5)
        layouts = np.random.default_rng(6)
        calls = {"ours": [], "theirs": []}

        def model(log):
            hook = lambda slot, tx, rx, history: log.append((slot, tx, rx, history)) or 0.2
            return NoiseModel(0.25, adversary=hook)

        slots = (_random_slot(layouts) for _ in range(200))
        for pos, txs, bits in itertools.chain(slots, _boundary_slots(params)):
            listeners = list(layouts.permutation(len(pos)))
            seed = int(layouts.integers(1 << 30))
            got = resolve_slot(
                7, txs, bits, listeners, pos, params, model(calls["ours"]),
                np.random.default_rng(seed), history="h",
            )
            want = _reference_slot(
                7, txs, bits, listeners, pos, params, model(calls["theirs"]),
                np.random.default_rng(seed), history="h",
            )
            assert got.tolist() == want
        assert calls["ours"] and calls["ours"] == calls["theirs"]


def _several_slots(rng, nodes=14, max_events=8):
    """A _random_slot layout whose transmitters and listeners spread over slots
    3, 5 and 8 (listeners also over 9, where nobody sends), as (positions,
    slots, transmitters, bits, listeners, listening slots)."""
    positions, txs, bits = _random_slot(rng, nodes, max_events)
    slots = rng.choice([3, 5, 8], size=len(txs))
    listeners = rng.integers(nodes, size=int(rng.integers(nodes + 1)))  # repeats allowed
    listen_slots = rng.choice([3, 5, 8, 9], size=listeners.size)
    return positions, slots, txs, bits, listeners, listen_slots


class TestSeveralSlotsPerCall:
    @pytest.mark.parametrize("eps0", [0.0, 0.3])
    def test_equals_one_call_per_distinct_slot(self, eps0):
        params = derive_params(5000, 0.5)
        layouts = np.random.default_rng(12)
        kinds = set()
        for _ in range(300):
            pos, slots, txs, bits, listeners, listen_slots = _several_slots(layouts)
            seed = int(layouts.integers(1 << 30))
            ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
            noise = NoiseModel(eps0)
            got = resolve_slot(
                slots, txs, bits, listeners, pos, params, noise, ours, listen_slots=listen_slots
            )
            want = slot_by_slot(
                slots, txs, bits, listeners, listen_slots, pos, params, noise, theirs
            )
            assert got.dtype == np.int64 and got.tolist() == want.tolist()
            assert ours.bit_generator.state == theirs.bit_generator.state
            kinds |= {min(k, RECEIVED) for k in got.tolist()}
        assert kinds == {RECEIVED, COLLIDED, SILENT}

    def test_adversary_sees_each_receptions_own_slot(self):
        params = derive_params(5000, 0.5)
        layouts = np.random.default_rng(13)
        calls = {"ours": [], "theirs": []}

        def model(log):
            hook = lambda slot, tx, rx, history: log.append((slot, tx, rx, history)) or 0.2
            return NoiseModel(0.25, adversary=hook)

        for _ in range(200):
            pos, slots, txs, bits, listeners, listen_slots = _several_slots(layouts)
            seed = int(layouts.integers(1 << 30))
            start = len(calls["ours"])
            got = resolve_slot(
                slots, txs, bits, listeners, pos, params, model(calls["ours"]),
                np.random.default_rng(seed), history="h", listen_slots=listen_slots,
            )
            want = slot_by_slot(
                slots, txs, bits, listeners, listen_slots, pos, params, model(calls["theirs"]),
                np.random.default_rng(seed), history="h",
            )
            assert got.tolist() == want.tolist()
            slot_of = dict(zip(txs, slots.tolist()))
            for slot, tx, rx, _ in calls["ours"][start:]:
                assert slot == slot_of[tx] and slot in listen_slots[listeners == rx]
        assert calls["ours"] == calls["theirs"]
        assert len({slot for slot, *_ in calls["ours"]}) == 3

    def test_a_slot_per_transmitter_needs_a_slot_per_listener(self):
        params = derive_params(5000, 0.5)
        pos = _layout((0.5, 0.5), (0.6, 0.5))
        rng = np.random.default_rng(0)
        for listen_slots in (None, 0, [0, 1]):
            with pytest.raises(ValueError):
                resolve_slot(
                    [0, 1], [0, 1], 1, [0], pos, params, NoiseModel(0.0), rng,
                    listen_slots=listen_slots,
                )


class TestDistances:
    @pytest.mark.parametrize("scale", [1e-6, 0.01, 1.0, 100.0])
    @pytest.mark.parametrize("nodes", [2, 40, 3000])
    def test_bit_identical_to_the_dot_product_formula(self, nodes, scale):
        # The audit's exact guard comparisons and its {dist:.4f} strings rest
        # on these bits, so the kernel must round as the einsum formula does.
        rng = np.random.default_rng(nodes)
        positions = rng.random((nodes, 2)) * scale
        rows, cols = rng.integers(nodes, size=300), rng.integers(nodes, size=200)
        diff = positions[rows][:, None, :] - positions[cols][None, :, :]
        want = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
        got = distances(positions, rows.tolist(), cols)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


class TestNoiseModel:
    def test_validation(self):
        with pytest.raises(ValueError):
            NoiseModel(0.5)
        with pytest.raises(ValueError):
            NoiseModel(-0.1)
        # A hook is what makes noise adversarial: no mode names it, and the
        # old three-field and mode forms fail instead of running iid noise.
        hook = lambda s, t, r, h: 0.1
        with pytest.raises(TypeError):
            NoiseModel(0.1, "adversarial", hook)
        with pytest.raises(TypeError):
            NoiseModel(0.1, mode="adversarial", adversary=hook)
        with pytest.raises(TypeError, match="callable"):
            NoiseModel(0.1, "adversarial")

    @pytest.mark.parametrize("keyword", [False, True], ids=["positional", "keyword"])
    def test_a_hook_is_asked_about_every_reception(self, keyword):
        calls = []

        def hook(slot, tx, rx, history):
            calls.append((slot, tx, rx))
            return 0.1

        noise = NoiseModel(0.1, adversary=hook) if keyword else NoiseModel(0.1, hook)
        noise.flips(np.random.default_rng(0), 1000, where=lambda at: (at, 0, 1))
        assert calls == [(slot, 0, 1) for slot in range(1000)]

    def test_adversary_capped_at_eps0(self):
        greedy = NoiseModel(0.2, adversary=lambda s, t, r, h: 0.4)
        with pytest.raises(ValueError, match="outside"):
            greedy.flip_prob(0, 0, 1, None)

    def test_constant_adversary_matches_iid_distribution(self):
        # KS test over per-block flip counts at desk scale.
        inst = place_nodes(10, seed=0)
        params = derive_params(100, 0.5)

        def counts(noise, seed):
            ch = Channel(inst, params, noise, np.random.default_rng(seed))
            return [
                ch.flip_mask((64,), where=lambda at: (at, 0, 1)).sum() for _ in range(400)
            ]

        iid = counts(NoiseModel(0.3), seed=1)
        adv = counts(
            NoiseModel(0.3, adversary=lambda s, t, r, h: 0.3), seed=2
        )
        assert stats.ks_2samp(iid, adv).pvalue > 0.01

    @pytest.mark.parametrize(
        "size", [0, 1, FLIP_CHUNK - 1, FLIP_CHUNK, FLIP_CHUNK + 1, 3 * FLIP_CHUNK + 5]
    )
    def test_buffered_iid_flips_equal_one_uniform_draw(self, size):
        # iid flips pass through a FLIP_CHUNK buffer; the stream and the flips
        # must be those of one rng.random(shape), in any number of dimensions.
        shapes = [(size,), (1, size), (size, 1), (1, size, 1), (size, 1, 1)]
        d = next((k for k in range(2, 100) if size % k == 0), None)
        if d is not None:  # and split over two non-unit axes
            shapes += [(d, size // d), (size // d, 1, d)]
        noise = NoiseModel(0.3)
        for seed, shape in enumerate(shapes):
            got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            got = noise.flips(got_rng, shape)
            want = want_rng.random(shape) < 0.3
            assert got.dtype == want.dtype and got.shape == want.shape
            np.testing.assert_array_equal(got, want)
            assert got_rng.bit_generator.state == want_rng.bit_generator.state

    def test_buffered_iid_flips_across_chunk_bounds_in_3d(self):
        # Rows that straddle the chunk bounds, for eps0 at 0 and near 1/2.
        shape = (3, FLIP_CHUNK // 7 + 1, 7)
        for eps0 in (0.0, 0.1, 0.499):
            got_rng, want_rng = np.random.default_rng(9), np.random.default_rng(9)
            got = NoiseModel(eps0).flips(got_rng, shape)
            np.testing.assert_array_equal(got, want_rng.random(shape) < eps0)
            assert got_rng.bit_generator.state == want_rng.bit_generator.state


class TestMajorityTail:
    """The majority rule: one uniform per row against the exact probability
    that more than half of the row's copies flip."""

    def test_equals_brute_force_enumeration(self):
        rng = np.random.default_rng(17)
        worst = 0.0
        for reps in range(1, 8):
            probs = rng.random((50, reps)) * 0.5
            want = np.zeros(50)
            for pattern in itertools.product((0, 1), repeat=reps):
                if sum(pattern) > reps // 2:
                    flip = np.array(pattern, dtype=bool)
                    want += np.where(flip, probs, 1.0 - probs).prod(axis=1)
            worst = max(worst, np.abs(majority_tail(probs, reps) - want).max())
        assert worst <= 1e-15

    @pytest.mark.parametrize("eps0", [0.0, 0.05, 0.1, 0.25, 0.3, 0.49])
    def test_scalar_equals_per_copy_rows_bit_for_bit(self, eps0):
        # What lets a hook that answers eps0 draw exactly what iid noise draws.
        for reps in range(1, 62):
            scalar = majority_tail(eps0, reps)
            rows = majority_tail(np.full((3, reps), eps0), reps)
            assert np.ndim(scalar) == 0 and rows.shape == (3,)
            assert (rows == scalar).all(), reps

    @pytest.mark.parametrize("eps0", [0.0, 0.05, 0.1, 0.25, 0.3, 0.49])
    def test_equals_the_binomial_tail(self, eps0):
        for reps in range(1, 62, 2):
            want = RepetitionScheme(reps).error_bound(eps0)
            got = float(majority_tail(eps0, reps))
            assert got == pytest.approx(want, rel=1e-12, abs=0.0), reps

    def test_rejects_a_row_of_the_wrong_length(self):
        with pytest.raises(ValueError, match="majority_tail"):
            majority_tail(np.full((2, 4), 0.1), 3)

    def test_majority_rule_has_the_per_copy_law(self):
        # At eps0 = 0.3 and 3 copies a row fails with probability 0.216.  The
        # per-copy failure frequency must lie in the rule's Wilson interval
        # and the other way round; z = 4 keeps the two-sided comparison of two
        # independent estimates at about a 0.5% false-alarm rate.
        rows, reps, noise = 200_000, 3, NoiseModel(0.3)
        per_copy = int((noise.flips(np.random.default_rng(1), (rows, reps)).sum(axis=1) > 1).sum())
        rule = int(noise.majority_flips(np.random.default_rng(2), (rows, reps)).sum())
        for got, other in ((per_copy, rule), (rule, per_copy)):
            lo, hi = wilson_interval(other, rows, z=4.0)
            assert lo <= got / rows <= hi
            lo, hi = wilson_interval(got, rows, z=4.0)
            assert lo <= 0.216 <= hi

    @pytest.mark.parametrize("shape", [(5,), (0, 3), (2, FLIP_CHUNK // 2 + 3, 3), (7, 2, 9)])
    def test_one_uniform_per_row_and_an_eps0_hook_draws_as_iid(self, shape):
        rows, reps = shape[:-1], shape[-1]
        calls = []

        def hook(slot, tx, rx, history):
            calls.append((slot, tx, rx))
            return 0.3

        slots = np.arange(np.prod(shape)).reshape(shape)
        want_rng = np.random.default_rng(4)
        want = want_rng.random(rows) < majority_tail(0.3, reps)
        for noise in (NoiseModel(0.3), NoiseModel(0.3, hook)):
            rng = np.random.default_rng(4)
            # Shape (5,) has no row axis: where is asked about [0], for the whole row.
            where = lambda at: (slots[at] if rows else slots, 1, 2)
            got = noise.majority_flips(rng, shape, where=where)
            assert got.dtype == bool and got.shape == rows
            np.testing.assert_array_equal(got, want)
            assert rng.bit_generator.state == want_rng.bit_generator.state
        # The hook was asked once per copy, in C order.
        assert calls == [(s, 1, 2) for s in slots.ravel().tolist()]


def _flip_counts_drawn(rng, rows: int, dist: np.ndarray) -> np.ndarray:
    """Each of rows flip counts drawn from the law ``dist`` (counts 0..len - 1),
    one uniform per row in order (``_uniform_chunks``) against its CDF: a
    row's count is how many of the CDF's partial sums its uniform reaches.
    A uniform is below 1, so only the partial sums below 1 take a pass: 25
    at eps0 0.1 and a 44-bit block, which cost less than a binary search per
    row."""
    cdf = np.cumsum(dist)[:-1]
    edges = cdf[cdf < 1.0]
    out = np.zeros(rows, dtype=np.min_scalar_type(dist.size - 1))
    for lo, chunk in _uniform_chunks(rng, rows):
        counts = out[lo : lo + chunk.size]
        for edge in edges:
            counts += chunk >= edge
    return out


class TestIidCodeErrors:
    """Block-code errors under iid noise, drawn from each row's sufficient
    statistics (RNG layout 6), have the law of one flip per reception."""

    @pytest.mark.parametrize("eps0, length", [(0.1, 12), (0.1, 44), (0.25, 44), (0.25, 88)])
    def test_weights_are_binomial(self, eps0, length):
        # Per count within 4 sigma; counts expected fewer than 5 times are
        # pooled into one bin at each end.  At threshold 0 every row reaches.
        rows = 200_000
        reach, weights = _weights_reaching(
            np.random.default_rng(5), rows, _iid_counts(eps0, length), 0
        )
        assert np.array_equal(reach, np.arange(rows))
        seen = np.bincount(weights, minlength=length + 1)
        want = rows * stats.binom.pmf(np.arange(length + 1), length, eps0)
        lo, hi = np.flatnonzero(want >= 5)[[0, -1]]
        seen, want = (np.r_[a[:lo].sum(), a[lo : hi + 1], a[hi + 1 :].sum()] for a in (seen, want))
        assert (np.abs(seen - want) <= 4 * np.sqrt(want * (1 - want / rows))).all()

    @pytest.mark.parametrize("chunk", [1, 5, 64, FLIP_CHUNK])
    @pytest.mark.parametrize("threshold", ["zero", "one", "half-distance", "last", "past-last"])
    @pytest.mark.parametrize("eps0", [0.1, 0.25])
    def test_threshold_draw_equals_counting_every_row(self, eps0, threshold, chunk, monkeypatch):
        # The rows whose count reaches the threshold, their counts and the RNG
        # state equal those of counting every row against every partial sum.
        # The identity code of a 2,000-node world; "last" is the number of
        # the CDF's last partial sum below 1, "past-last" one more.
        code, rows = BlockCode(6, 44, seed=404), 1_000
        dist = _iid_counts(eps0, code.block_len)
        below = int(np.count_nonzero(np.cumsum(dist)[:-1] < 1.0))
        at = {
            "zero": 0, "one": 1, "half-distance": -(-code.min_distance // 2),
            "last": below, "past-last": below + 1,
        }[threshold]
        monkeypatch.setattr(channel_module, "FLIP_CHUNK", chunk)
        rng, want_rng = np.random.default_rng(9), np.random.default_rng(9)
        reach, weights = _weights_reaching(rng, rows, dist, at)
        counts = _flip_counts_drawn(want_rng, rows, dist)
        want = np.flatnonzero(counts >= at)
        assert np.array_equal(reach, want) and np.array_equal(weights, counts[want])
        assert weights.dtype == counts.dtype
        assert rng.bit_generator.state == want_rng.bit_generator.state
        if threshold == "half-distance":
            assert 0 < reach.size < rows
        if threshold == "past-last":
            assert reach.size == 0

    @pytest.mark.parametrize("eps0", [0.1, 0.25])
    @pytest.mark.parametrize("msg_bits, length", [(3, 12), (6, 44)], ids=["k3-L12", "k6-L44"])
    def test_decoded_messages_have_the_per_bit_law(self, msg_bits, length, eps0):
        # One sent message over 10^5 rows, each asking about one candidate in
        # turn: the share of a candidate's rows that decode to it must match
        # the share of per-bit Bernoulli flips that decode to it, within 4
        # sigma of the two estimates' difference.  k = 6, L = 44 is the
        # identity code of a 2,000-node world.
        code, rows, sent = BlockCode(msg_bits, length, seed=404), 100_000, 5
        heard = np.arange(rows) % 2**msg_bits
        sent_rows = np.full(rows, sent)
        channel = Channel(None, None, NoiseModel(eps0), np.random.default_rng(6))
        decoded = sent_rows == heard
        at, flips = channel.code_errors(code, rows, lambda at: (sent_rows[at], heard[at]))
        decoded[at] = code.decode_equals(sent_rows[at], flips, heard[at])
        each = np.bincount(heard)
        got = np.bincount(heard[decoded], minlength=each.size) / each
        per_bit = np.random.default_rng(7).random((rows, length)) < eps0
        words = code.codebook[sent] ^ per_bit
        want = np.bincount(code.decode_batch(words), minlength=each.size) / rows
        pooled = (got * each + want * rows) / (each + rows)
        sigma = np.sqrt(pooled * (1 - pooled) * (1 / each + 1 / rows))
        assert (np.abs(got - want) <= 4 * sigma).all()
        assert 0 < want[sent] < 1


class TestHookedBatchChunks:
    """A hook is asked about a batch in chunks of at most FLIP_CHUNK receptions
    along its leading axis, after the batch's uniforms: the chunk size moves
    no result, no hook call and no draw.  ``where`` is asked once per chunk,
    about its rows in ascending order, and iid noise never asks it."""

    SHAPES = {"flip_mask": (50, 7), "majority_mask": (40, 3, 5), "code_errors": (200, 12)}

    @classmethod
    def run(cls, kind):
        """(result, hook calls, rng state) of one hooked batch of this kind, and
        the rows of each ``where`` call."""
        calls, located = [], []

        def hook(slot, tx, rx, history):
            calls.append((slot, tx, rx))
            return 0.3 * ((7 * slot + 3 * tx + rx) % 5) / 4

        shape = cls.SHAPES[kind]
        slots = np.arange(np.prod(shape)).reshape(shape)
        txs = np.arange(shape[0]).reshape(-1, *[1] * (len(shape) - 1))
        if kind == "code_errors":
            txs = txs % 7

        def where(at):
            located.append(at.tolist())
            return slots[at], txs[at], 3

        channel = Channel(None, None, NoiseModel(0.3, hook), np.random.default_rng(8))
        if kind == "code_errors":  # 200 rows of a 12-bit codeword, half of them left open
            code, rows = BlockCode(3, 12, seed=404), shape[0]
            sent, heard = np.full(rows, 5), np.arange(rows) % 8
            got = channel.code_errors(code, rows, lambda at: (sent[at], heard[at]), where=where)
        else:
            got = [getattr(channel, kind)(shape, where=where)]
        return [a.tolist() for a in got], calls, channel.rng.bit_generator.state, located

    @pytest.mark.parametrize("chunk", [1, 5, 64])
    @pytest.mark.parametrize("kind", ["flip_mask", "majority_mask", "code_errors"])
    def test_every_chunk_gives_the_same_batch(self, kind, chunk, monkeypatch):
        whole = self.run(kind)[:3]
        monkeypatch.setattr(channel_module, "FLIP_CHUNK", chunk)
        got = self.run(kind)[:3]
        assert got == whole
        result, calls, _ = got
        assert len(calls) == {"flip_mask": 350, "majority_mask": 600, "code_errors": 2400}[kind]
        if kind == "code_errors":
            assert 0 < len(result[0]) < 200

    @pytest.mark.parametrize("chunk", [1, 5, 64, 100, FLIP_CHUNK])
    @pytest.mark.parametrize("kind", ["flip_mask", "majority_mask", "code_errors"])
    def test_where_is_asked_once_per_chunk_of_rows(self, kind, chunk, monkeypatch):
        monkeypatch.setattr(channel_module, "FLIP_CHUNK", chunk)
        located = self.run(kind)[3]
        shape = self.SHAPES[kind]
        per_row = int(np.prod(shape[1:]))
        assert all(len(at) * per_row <= chunk or len(at) == 1 for at in located)
        # Ascending, every row exactly once.
        assert list(itertools.chain.from_iterable(located)) == list(range(shape[0]))
        assert len(located) == -(-shape[0] // max(1, chunk // per_row))

    def test_iid_draws_never_locate_their_receptions(self, monkeypatch):
        # Stage 1 (MAX and histogram), repetition stage 2 and distribution
        # under iid noise, each draw handed a ``where`` that fails if called.
        handed = []

        def refuse(at):
            raise AssertionError("iid noise asked where its receptions are")

        for name in ("flip_mask", "majority_mask", "code_errors"):
            def unlocated(self, *args, draw=getattr(Channel, name), where=None, **kw):
                handed.append(where is not None)
                return draw(self, *args, where=refuse, **kw)

            monkeypatch.setattr(Channel, name, unlocated)
        for protocol in ("max", "hist"):
            cfg = ExperimentConfig(protocol=protocol, mode="repetition", n=(2000,), trials=1,
                                   eps0=0.25)
            run = run_trial(cfg, 2000, 0)
        relay = LinkSimConfig(mode="repetition", r3=5)
        values = distribute_result(
            run.tree, run.plan, 1, relay, 9, run.channel, run.grid, run.params, run.coloring
        )
        assert values.shape == (2000,)
        # Discovery, identity, confirmation; counting; stage 2 and distribution's draws.
        assert len(handed) > 5 and all(handed)


def _tuple_coloring(count, grid_dim, d):
    """The coloring as a tuple of classes, as color_cells built it before it
    held one color per cell (the body kept verbatim, its cache dropped): the
    reference for the classes a Coloring derives."""
    colors = _cell_colors(count, grid_dim, d)[1:]
    order = np.argsort(colors, kind="stable")  # cells ascending inside a color
    palette, starts = np.unique(colors[order], return_index=True)
    return tuple(
        ScheduleClass(color=color, cells=tuple(cells.tolist()))
        for color, cells in zip(palette.tolist(), np.split(order + 1, starts[1:]))
    )


class TestColorCells:
    def test_n5000_uses_exactly_k1_plus_1_colors(self):
        params = derive_params(5000, 0.5)
        grid = assign_cells(place_nodes(5000, seed=7), params)
        classes = color_cells(grid, params)
        assert len(classes) == params.interference_bound + 1 == 81
        assert sorted(j for cls in classes for j in cls.cells) == list(range(1, 226))

    @pytest.mark.parametrize("m", [1, 3, 15, 48, 64, 317])
    def test_classes_equal_the_tuple_coloring(self, m):
        # D = 3 at delta 0, 5 at delta 0.5, and 1 at radius 0; D > m at m = 1
        # and 3, and 317 is a multiple of none of them.
        _, grid, params = make_hand_world(m)
        for delta, radius, d in ((0.0, 0.9 / m, 3), (0.5, 0.9 / m, 5), (0.5, 0.0, 1)):
            params = replace(params, delta=delta, radius=radius)
            assert params.reuse_distance == d
            coloring = color_cells(grid, params)
            want = _tuple_coloring(m * m, m, d)
            assert tuple(coloring) == want and len(coloring) == len(want)
            assert coloring.palette.tolist() == [cls.color for cls in want]
            assert coloring.cells.tolist() == [j for cls in want for j in cls.cells]
            assert np.diff(coloring.bounds).tolist() == [len(cls.cells) for cls in want]
            assert np.array_equal(coloring.colors, _cell_colors(m * m, m, d))
            for view in (coloring.colors, coloring.palette, coloring.cells, coloring.bounds):
                with pytest.raises(ValueError):
                    view[0] = 0

    def test_classes_of_hand_made_colors(self):
        # Colors need not be consecutive, and a cell at -1 is in no class.
        colors = np.array([-1, 4, -1, 0, 4, 2])
        coloring = Coloring(colors)
        colors[1] = 0  # the coloring holds a copy
        assert list(coloring) == [
            ScheduleClass(0, (3,)), ScheduleClass(2, (5,)), ScheduleClass(4, (1, 4))
        ]
        assert coloring.colors.tolist() == [-1, 4, -1, 0, 4, 2]

    def test_zero_radius_degenerates_to_one_color(self):
        _, grid, params = make_hand_world(3)
        params = replace(params, radius=0.0)
        assert params.reuse_distance == 1
        classes = list(color_cells(grid, params))
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
                txs = [pick(grid.cell(j)) for j in cls.cells]
                for j, tx in zip(cls.cells, txs):
                    listeners = [m for m in grid.cell(j).members if m != tx]
                    out = resolve_slot(0, txs, 1, listeners, inst.positions, params, noise, rng)
                    assert (out >= RECEIVED).all()


class TestMetrics:
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
        ch.record("identity", [3], 5, 2)  # untraced: nothing to write
        ch.trace = Trace()
        ch.record("identity", [3], 5, 2)
        ch.record("discovery", np.array([1, 9]), np.array([5, 2]), 1)
        ch.record("confirmation", [4], 1, 1)
        assert [(r.phase, r.txs.tolist(), r.first.tolist(), r.copies) for r in ch.trace.stage1] == [
            ("identity", [3], [5], 2),
            ("discovery", [1, 9], [5, 2], 1),
            ("confirmation", [4], [1], 1),
        ]
        keys = stage1_keys(ch.trace.stage1, ("discovery", "identity"))
        assert keys.tolist() == [(slot << 32) + tx for slot, tx in [(2, 9), (5, 1), (5, 3), (6, 3)]]
