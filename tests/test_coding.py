"""Majority decoding, block codes, tree codes, and the line-protocol simulator."""

import itertools
import math

import numpy as np
import pytest

from noisyplanar.channel import Channel, NoiseModel
from noisyplanar.coding import (
    ERASED,
    BlockCode,
    MAX_DECODE_CAP,
    CapacityError,
    DecodeFailure,
    LineProtocol,
    LinkSimConfig,
    RepetitionScheme,
    SimGuarantee,
    TreeCode,
    _pack_bits,
    majority_decode,
    or_chain,
    simulate_line,
    smallest_odd_at_least,
)
from noisyplanar.geometry import derive_params, place_nodes
from noisyplanar.intercell import adder_chain

# Fixture seeds: BlockCode(4, 16, seed=2) has minimum distance 6 (checked below);
# the depth-10 tree code uses construction seed 1 over a 16-ary alphabet.
BLOCK_FIXTURE_SEED = 2
TREE_FIXTURE_SEED = 1


def make_channel(eps0: float, seed: int = 0) -> Channel:
    params = derive_params(1000, 0.5)
    inst = place_nodes(16, seed=0)
    return Channel(inst, params, NoiseModel(eps0), np.random.default_rng(seed))


class TestMajorityDecode:
    def test_plain_majorities(self):
        assert majority_decode([1, 0, 1]) == 1
        assert majority_decode([0, 0, 0, 0, 0]) == 0

    def test_erasures_are_excluded(self):
        assert majority_decode([1, ERASED, 0, 1]) == 1

    def test_exact_tie_decodes_to_zero(self):
        assert majority_decode([1, 0]) == 0

    def test_all_erased_raises(self):
        with pytest.raises(DecodeFailure):
            majority_decode([ERASED, ERASED])


class TestRepetitionScheme:
    def test_rejects_even_or_nonpositive_k(self):
        for k in (0, -3, 4):
            with pytest.raises(ValueError):
                RepetitionScheme(k)

    def test_error_bound_is_the_binomial_tail(self):
        # k = 9, p = 0.1: sum_{i>=5} C(9,i) 0.1^i 0.9^(9-i) ~ 8.9e-4.
        bound = RepetitionScheme(9).error_bound(0.1)
        assert bound == pytest.approx(8.956e-4, rel=1e-2)

    def test_smallest_odd_at_least(self):
        assert smallest_odd_at_least(3 * math.log(5000)) == 27
        assert smallest_odd_at_least(2.0) == 3
        assert smallest_odd_at_least(3.0) == 3


class TestBlockCode:
    def test_zero_message_gives_zero_codeword(self):
        for seed in (0, 1, 17):
            code = BlockCode(4, 16, seed=seed)
            assert not code.encode(0).any()

    def test_round_trip_all_messages_any_seed(self):
        for seed in (0, 1, 2, 3):
            code = BlockCode(4, 16, seed=seed)
            for m in range(16):
                assert code.decode(code.encode(m)) == m

    def test_default_block_length_is_rate_quarter(self):
        code = BlockCode(13)
        assert code.block_len == 52

    def test_fixture_corrects_all_weight_two_errors(self):
        # Brute force over all 16 messages x all error patterns of weight <= 2,
        # possible because the fixture generator has minimum distance >= 5.
        code = BlockCode(4, 16, seed=BLOCK_FIXTURE_SEED)
        assert code.min_distance >= 5
        patterns = [np.zeros(16, dtype=np.uint8)]
        for i in range(16):
            e = np.zeros(16, dtype=np.uint8)
            e[i] = 1
            patterns.append(e)
        for i, j in itertools.combinations(range(16), 2):
            e = np.zeros(16, dtype=np.uint8)
            e[i] = e[j] = 1
            patterns.append(e)
        for m in range(16):
            cw = code.encode(m)
            for e in patterns:
                assert code.decode(cw ^ e) == m

    def test_decode_matches_naive_nearest_codeword(self):
        code = BlockCode(4, 16, seed=5)
        rng = np.random.default_rng(9)
        for _ in range(100):
            word = rng.integers(0, 2, 16).astype(np.uint8)
            naive = int(np.argmin((code.codebook != word).sum(axis=1)))
            assert code.decode(word) == naive

    def test_decode_ties_break_to_smaller_message(self):
        code = BlockCode(2, 4, seed=0)
        word = code.encode(3)
        dists = (code.codebook != word).sum(axis=1)
        assert code.decode(word) == int(np.argmin(dists))

    def test_length_mismatch_raises(self):
        code = BlockCode(4, 16, seed=0)
        with pytest.raises(ValueError):
            code.decode(np.zeros(15, dtype=np.uint8))
        with pytest.raises(ValueError):
            code.encode(16)

    @pytest.mark.parametrize(
        "msg_bits, block_len, seed, rate",
        [pytest.param(4, 16, BLOCK_FIXTURE_SEED, r, id=str(r)) for r in (0.02, 0.1, 0.3)]
        + [pytest.param(12, 70, 404, r, id=f"two-words-{r}") for r in (0.02, 0.1, 0.2, 0.3)]
        # The shapes a world's cells give: ceil(log2 n) bits
        + [
            pytest.param(k, length, 404, r, id=f"k{k}-{length}bit-{r}")
            for k, length in ((5, 40), (6, 68), (7, 80))
            for r in (0.1, 0.2, 0.3)
        ],
    )
    def test_decode_equals_agrees_with_literal_decode(self, msg_bits, block_len, seed, rate):
        # The shortcuts and the full decode of the rows they leave open must
        # reproduce per-receiver ML decoding exactly, ties included.  Candidates
        # are random messages, the true message, and each receiver's own decode.
        code = BlockCode(msg_bits, block_len, seed=seed)
        rng = np.random.default_rng(31)
        ties = 0
        for true_msg in (0, 5, 2**msg_bits - 1):
            flips = (rng.random((40, block_len)) < rate).astype(np.uint8)
            random_candidates = rng.integers(0, 2**msg_bits, 40)
            cw = code.encode(true_msg)
            decoded = np.array([code.decode(cw ^ f) for f in flips])
            dists = (code.codebook[None] != (cw ^ flips)[:, None]).sum(axis=2)
            ties += int(((dists == dists.min(axis=1, keepdims=True)).sum(axis=1) > 1).sum())
            for candidates in (random_candidates, np.full(40, true_msg), decoded):
                got = code.decode_equals(true_msg, flips, candidates)
                assert np.array_equal(got, decoded == candidates)
                as_drawn = code.decode_equals(true_msg, flips.astype(bool), candidates)
                assert np.array_equal(as_drawn, got)
                # The shortcuts' answers are the decode's; open rows are left to decode_batch.
                equal, open_rows = code.settle(true_msg, flips, candidates)
                settled = np.ones(40, dtype=bool)
                settled[open_rows] = False
                assert np.array_equal(equal[settled], got[settled])
                assert np.array_equal(open_rows, np.sort(open_rows))
        if rate == 0.3:  # every shape here meets ties at this rate
            assert ties > 0
        # One true message per row, clean and noisy rows in one batch.
        true_msgs = rng.integers(0, 2**msg_bits, 60)
        flips = (rng.random((60, block_len)) < rate).astype(np.uint8)
        flips[::3] = 0
        decoded = np.array([code.decode(code.encode(int(m)) ^ f) for m, f in zip(true_msgs, flips)])
        for candidates in (rng.integers(0, 2**msg_bits, 60), true_msgs, decoded):
            got = code.decode_equals(true_msgs, flips, candidates)
            assert np.array_equal(got, decoded == candidates)

    def test_decode_equals_ties_at_the_search_bound(self):
        # A received word c ^ e with e half the support of a codeword x of
        # weight 2 * wt(e) lies as close to c ^ x as to c, a tie the shortcuts
        # leave open.  With x's top message bit set in true_msg, the tie
        # breaks toward true_msg ^ x.
        code = BlockCode(12, 70, seed=404)
        weights = code.codebook.sum(axis=1)
        even = np.flatnonzero((weights % 2 == 0) & (weights > 0))
        x = int(even[np.argmin(weights[even])])
        e = np.zeros(code.block_len, dtype=np.uint8)
        support = np.flatnonzero(code.codebook[x])
        e[support[: len(support) // 2]] = 1
        true_msg = 1 << (x.bit_length() - 1)
        assert code.decode(code.encode(true_msg) ^ e) == true_msg ^ x
        got = code.decode_equals(true_msg, e[None, :], np.array([true_msg ^ x]))
        assert got.tolist() == [True]
        got = code.decode_equals(true_msg, e[None, :], np.array([true_msg]))
        assert got.tolist() == [False]

    def test_pack_bits_equals_the_bit_padded_packing(self):
        # Packing the word-padded rows as one flat array gives the words of
        # packing each row, padded with zero bits to a multiple of 64, alone.
        def bit_padded(bits):
            bits = np.atleast_2d(np.ascontiguousarray(bits, dtype=np.uint8))
            pad = np.zeros((bits.shape[0], -bits.shape[1] % 64), dtype=np.uint8)
            return np.packbits(np.concatenate([bits, pad], axis=1), axis=1).view(np.uint64)

        rng = np.random.default_rng(5)
        for width in range(1, 131):
            for rows in (1, 3):
                bits = rng.random((rows, width)) < 0.5
                want = bit_padded(bits)
                assert want.shape == (rows, math.ceil(width / 64))
                for given in (bits, bits.astype(np.uint8), np.asfortranarray(bits)):
                    got = _pack_bits(given)
                    assert got.dtype == np.uint64 and np.array_equal(got, want)
            assert np.array_equal(_pack_bits(bits[0]), want[:1])

    @pytest.mark.parametrize("msg_bits, block_len", [(6, 24), (8, 130)], ids=["one-word", "two-words"])
    def test_codebook_is_the_literal_product(self, msg_bits, block_len):
        code = BlockCode(msg_bits, block_len, seed=404)
        msgs = (np.arange(2**msg_bits)[:, None] >> np.arange(msg_bits)[None, :]) & 1
        assert np.array_equal(code.codebook, (msgs @ code.generator.T) % 2)
        for m in (0, 1, 2**msg_bits - 1):
            assert np.array_equal(code.encode(m), code.codebook[m])

    def test_network_scale_code_failure_rate(self):
        # The n=5000 identity code (13 message bits, 52-bit blocks) under
        # eps0 = 0.1: Monte Carlo decode failure must stay within 1%.
        code = BlockCode(13, 52, seed=404)
        rng = np.random.default_rng(11)
        trials = 10_000
        msg = 1234
        cw = code.encode(msg)
        flips = (rng.random((trials, 52)) < 0.1).astype(np.uint8)
        decoded = code.decode_batch(cw[None, :] ^ flips)
        assert (decoded != msg).mean() <= 0.01


class TestTreeCode:
    def test_noiseless_round_trip_depth8(self):
        tc = TreeCode(8, 4, seed=0)
        for p in itertools.product((0, 1), repeat=8):
            assert tc.decode(tc.encode(p)) == p

    def test_sibling_labels_always_differ(self):
        tc = TreeCode(10, 4, seed=3)
        for level in tc.levels:
            assert (level[0::2] != level[1::2]).all()

    def test_depth10_monte_carlo_agreement(self):
        # Fixture: 16-ary construction seed 1, 5% symbol corruption, 500 trials.
        tc = TreeCode(10, 16, seed=TREE_FIXTURE_SEED)
        rng = np.random.default_rng(12345)
        ok = 0
        for _ in range(500):
            path = tuple(rng.integers(0, 2, 10))
            symbols = tc.encode(path).copy()
            for i in range(10):
                if rng.random() < 0.05:
                    alt = int(rng.integers(0, 15))
                    symbols[i] = alt + (alt >= symbols[i])
            ok += tc.decode(symbols) == path
        assert ok / 500 >= 0.95

    def test_depth_beyond_cap_raises(self):
        tc = TreeCode(17, 4, seed=0)
        with pytest.raises(CapacityError):
            tc.decode([0] * 17)

    def test_received_longer_than_tree_raises(self):
        tc = TreeCode(4, 4, seed=0)
        with pytest.raises(ValueError):
            tc.decode([0] * 5, depth_cap=16)

    def test_decode_is_invariant_under_alphabet_relabeling(self):
        # A fixed bijection applied to both labels and received symbols must
        # leave the decoded path unchanged.
        tc = TreeCode(8, 4, seed=6)
        perm = np.array([2, 0, 3, 1])
        relabeled = TreeCode(8, 4, seed=6)
        relabeled.levels = tuple(perm[lvl] for lvl in tc.levels)
        rng = np.random.default_rng(8)
        for _ in range(50):
            received = rng.integers(0, 4, 8)
            assert tc.decode(received) == relabeled.decode(perm[received])

    @pytest.mark.parametrize("alphabet", [4, 16])
    def test_decode_is_the_first_nearest_of_all_walked_paths(self, alphabet):
        # Every path of the tree, walked with encode in lexicographic order;
        # the decode must be the first of the nearest.  Short alphabet-4
        # trees give ties, so the tie-break is checked too.
        rng = np.random.default_rng(alphabet)
        ties = 0
        for depth in range(1, 11):
            tc = TreeCode(depth, alphabet, seed=depth)
            paths = list(itertools.product((0, 1), repeat=depth))
            words = np.array([tc.encode(p) for p in paths])
            for _ in range(20):
                received = rng.integers(0, alphabet, depth)
                dists = (words != received).sum(axis=1)
                ties += int((dists == dists.min()).sum() > 1)
                assert tc.decode(received) == min(zip(dists, paths))[1]
        if alphabet == 4:
            assert ties > 0

    def test_bad_construction_args(self):
        with pytest.raises(ValueError):
            TreeCode(0, 4)
        with pytest.raises(ValueError):
            TreeCode(4, 3)
        with pytest.raises(ValueError):
            TreeCode(4, 2)


class TestSimGuarantee:
    def test_formula_evaluation(self):
        g = SimGuarantee(gamma=0.5, k_rs=3.0)
        assert 1 - g.failure_prob(9) == pytest.approx(0.98889, abs=1e-5)
        assert g.slots(9) == 27
        assert SimGuarantee(k_rs=2.5).slots(3) == 8


MODES = ("repetition", "treecode", "abstract")


class TestSimulateLine:
    @pytest.mark.parametrize("mode", MODES)
    def test_three_node_or_forwarding_noiseless(self, mode):
        for values in itertools.product((0, 1), repeat=3):
            ch = make_channel(0.0)
            res = simulate_line(or_chain(values), LinkSimConfig(mode=mode, r3=9), ch)
            assert res.values[-1] == max(values)

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("q", [2, 3, 4, 5])
    def test_noiseless_equivalence_exhaustive(self, mode, q):
        # Every mode must reproduce the noiseless per-node outputs and the
        # same per-link delivered values on arrays up to length 5, all inputs.
        for values in itertools.product((0, 1), repeat=q):
            proto = or_chain(values)
            _, want_values = proto.noiseless_run()
            want_delivered = tuple(np.maximum.accumulate(values)[:-1].tolist())
            ch = make_channel(0.0)
            res = simulate_line(proto, LinkSimConfig(mode=mode, r3=5), ch)
            assert list(res.values) == want_values
            assert res.delivered == want_delivered
            assert res.values[-1] == max(values)

    def test_abstract_failure_rate_matches_formula(self):
        # gamma = 0.3, 5-node array (4 rounds): corruption fires with
        # probability e^{-1.2} and lands on the wrong bit half the time.
        cfg = LinkSimConfig(mode="abstract", r3=9, gamma=0.3)
        trials = 4000
        wrong = 0
        ch = make_channel(0.1)
        for _ in range(trials):
            res = simulate_line(or_chain([0, 1, 0, 0, 0]), cfg, ch)
            wrong += res.values[-1] != 1
        expect = math.exp(-0.3 * 4) * 0.5
        sigma = math.sqrt(expect * (1 - expect) / trials)
        assert abs(wrong / trials - expect) <= 3 * sigma

    def test_abstract_mode_is_exact_when_noiseless(self):
        cfg = LinkSimConfig(mode="abstract", r3=9, gamma=1e-9)
        for _ in range(200):
            ch = make_channel(0.0)
            assert simulate_line(or_chain([0, 0, 1, 0]), cfg, ch).values[-1] == 1

    def test_repetition_accounting_identity(self):
        # q = 4 array, one meaningful bit per hop, r3 = 27: 3 * 27 everywhere.
        ch = make_channel(0.0)
        res = simulate_line(or_chain([1, 0, 0, 0]), LinkSimConfig(mode="repetition", r3=27), ch)
        assert res.tx == 81
        assert res.slots == 81
        assert ch.metrics.tx_count == 0  # accounting is the caller's job

    def test_repetition_hop_error_matches_binomial_tail(self):
        # One hop, r3 = 9, eps0 = 0.1 over 1e5 trials, against the exact tail.
        rng = np.random.default_rng(77)
        trials = 100_000
        flips = rng.random((trials, 9)) < 0.1
        err = (flips.sum(axis=1) > 4).mean()
        bound = RepetitionScheme(9).error_bound(0.1)
        sigma = math.sqrt(bound * (1 - bound) / trials)
        assert abs(err - bound) <= 3 * sigma

    def test_treecode_depth_cap_enforced(self):
        values = [0] * 20
        ch = make_channel(0.0)
        with pytest.raises(CapacityError):
            simulate_line(or_chain(values), LinkSimConfig(mode="treecode", r3=9), ch)

    def test_treecode_slot_ids_match_charged_slots(self):
        # Each round sends one symbol forward, then reserves as many bit-slots
        # for the reverse direction: round t's forward bits sit at slot
        # 2 * sym_bits * (t - 1) + k, inside the charged window [0, res.slots).
        seen = []

        def record(slot, tx, rx, history):
            seen.append(slot)
            return 0.0

        params = derive_params(1000, 0.5)
        noise = NoiseModel(0.1, mode="adversarial", adversary=record)
        ch = Channel(place_nodes(16, seed=0), params, noise, np.random.default_rng(0))
        cfg = LinkSimConfig(mode="treecode", r3=9)
        res = simulate_line(or_chain([1, 0, 0, 1]), cfg, ch)
        sym = cfg.symbol_bits
        depth = res.slots // (2 * sym)
        assert 0 <= min(seen) and max(seen) < res.slots
        assert sorted(set(seen)) == [2 * sym * t + k for t in range(depth) for k in range(sym)]

    def test_treecode_under_noise_mostly_agrees(self):
        cfg = LinkSimConfig(mode="treecode", r3=9)
        rng = np.random.default_rng(5)
        ok = 0
        trials = 120
        for _ in range(trials):
            values = list(rng.integers(0, 2, 5))
            ch = make_channel(0.03, seed=int(rng.integers(2**32)))
            res = simulate_line(or_chain(values), cfg, ch)
            ok += res.values[-1] == max(values)
        assert ok / trials >= 0.9

    def test_negative_treecode_pad_rejected(self):
        with pytest.raises(ValueError, match="pad"):
            LinkSimConfig(mode="treecode", treecode_pad=-1)

    @pytest.mark.parametrize("d_max", [0, MAX_DECODE_CAP + 1, 40])
    def test_decoding_cap_outside_its_range_rejected(self, d_max):
        with pytest.raises(ValueError, match="d-max must lie in 1..20"):
            LinkSimConfig(mode="treecode", d_max=d_max)

    def test_largest_decoding_cap_keeps_the_tree_small(self):
        # The deepest tree a config can ask for: 2^21 - 2 labels, 16 MiB.
        assert LinkSimConfig(mode="treecode", d_max=MAX_DECODE_CAP).d_max == 20
        levels = TreeCode(MAX_DECODE_CAP).levels
        assert sum(level.nbytes for level in levels) == 8 * (2**21 - 2)

    def test_protocols_shorter_than_two_nodes_rejected(self):
        with pytest.raises(ValueError):
            or_chain([1])


def reference_adder(vals, width):
    """adder_chain's per-round closures from before the step form: the reference transcript."""
    mod = 1 << width

    def incoming(i, child, upto):
        """Value of the child stream's bits 0..upto-1 (known dummies are zero)."""
        if i == 0:
            return 0
        total = 0
        for k in range(upto):
            pos = i + k - 1  # child (node i-1) sends its bit k in round i+k
            if pos < len(child):
                total += int(child[pos]) << k
        return total

    def sent_bit(i, t, child):
        k = t - (i + 1)
        if not (0 <= k < width):
            return 0
        low = (1 << (k + 1)) - 1
        return ((incoming(i, child, k + 1) & low) + (vals[i] & low)) >> k & 1

    def node_value(i, child):
        return (incoming(i, child, width) + vals[i]) % mod

    return sent_bit, node_value


def run_repetition(protocol, r3, eps0, seed, hooked):
    """One repetition-mode run: the result and the RNG state after it.

    A hook that always answers eps0 draws exactly what iid noise draws.
    """
    if hooked:
        noise = NoiseModel(eps0, mode="adversarial", adversary=lambda slot, tx, rx, h: eps0)
    else:
        noise = NoiseModel(eps0)
    ch = Channel(place_nodes(16, seed=0), derive_params(1000, 0.5), noise, np.random.default_rng(seed))
    res = simulate_line(protocol, LinkSimConfig(mode="repetition", r3=r3), ch)
    return res, ch.rng.bit_generator.state


class TestRepetitionClosedForm:
    @pytest.mark.parametrize("eps0", [0.0, 0.1, 0.3])
    @pytest.mark.parametrize("kind", ["or", "adder"])
    def test_fold_equals_the_per_reception_loop(self, kind, eps0):
        rng = np.random.default_rng(31)
        widths = (1, 3, 5) if kind == "adder" else (1,)
        wrong_links = 0
        for q, width, r3 in itertools.product(range(2, 7), widths, (1, 3, 5)):
            for _ in range(4):
                counts = rng.integers(0, 2**width, q)
                proto = or_chain(counts) if kind == "or" else adder_chain(counts, width)
                seed = int(rng.integers(2**32))
                fold = run_repetition(proto, r3, eps0, seed, hooked=False)
                loop = run_repetition(proto, r3, eps0, seed, hooked=True)
                assert fold == loop, (q, width, r3, seed)
                wrong_links += fold[0].delivered != tuple(proto.fold()[1])
        # The comparison covers corrupted links whenever there is noise.
        assert (wrong_links > 0) == (eps0 > 0)

    @pytest.mark.parametrize("q,width", [(2, 1), (3, 3), (5, 4), (6, 5)])
    def test_derived_rounds_match_the_closure_reference(self, q, width):
        # Any child history, noisy ones included, gives the same round bits
        # and node values as the closures did.
        rng = np.random.default_rng(q * 10 + width)
        for _ in range(10):
            vals = rng.integers(0, 2**width, q).tolist()
            proto = adder_chain(vals, width)
            sent_bit, node_value = reference_adder(vals, width)
            child = rng.integers(0, 2, proto.rounds).tolist()
            for i in range(q):
                assert proto.step(i, proto.child_value(i, child)) == node_value(i, child)
                for t in range(1, proto.rounds + 1):
                    assert proto.sent_bit(i, t, child[: t - 1]) == sent_bit(i, t, child[: t - 1])
            sent, values = proto.noiseless_run()
            child = []
            for i in range(q - 1):
                assert sent[i] == [sent_bit(i, t, child[: t - 1]) for t in range(1, proto.rounds + 1)]
                assert values[i] == node_value(i, child)
                child = sent[i]
            assert values[-1] == node_value(q - 1, child)


def reference_repetition(
    protocol: LineProtocol, r3: int, channel: Channel, link_endpoints
) -> tuple[list[int], list[int]]:
    """Repetition links one majority draw per payload bit: values and delivered values.

    Payload bit k of link i goes out in the r3 slots from (i * width + k) * r3."""
    values: list[int] = []
    delivered: list[int] = []
    child: list[int] = []
    for i in range(protocol.q):
        values.append(protocol.step(i, protocol.child_value(i, child)))
        if i == protocol.q - 1:
            break
        tx_node, rx_node = link_endpoints[i]
        decoded = [0] * protocol.rounds
        for t in protocol.payload_rounds(i):
            bit = protocol.sent_bit(i, t, child[: t - 1])
            slots = (i * protocol.width + t - i - 1) * r3 + np.arange(r3)
            decoded[t - 1] = bit ^ int(channel.majority_mask((r3,), slots, tx_node, rx_node))
        delivered.append(protocol.child_value(i + 1, decoded))
        child = decoded
    return values, delivered


class TestRepetitionAgainstReceptionLoop:
    @pytest.mark.parametrize("kind", ["or", "adder"])
    def test_one_draw_per_array_equals_the_per_reception_loop(self, kind):
        # The hook's probability varies with the reception and it records
        # every call: one draw per array must ask the same questions in the
        # same order, consume the same uniforms and decode the same values
        # as one majority draw per link bit.
        eps0 = 0.3
        rng = np.random.default_rng(43)
        widths = (1, 2, 3, 4) if kind == "adder" else (1,)
        corrupted = 0
        for q, width, r3 in itertools.product(range(2, 6), widths, (1, 3, 5)):
            counts = rng.integers(0, 2**width, q)
            proto = or_chain(counts) if kind == "or" else adder_chain(counts, width)
            ends = [(20 + 3 * i, 21 + 3 * i) for i in range(q - 1)]
            seed = int(rng.integers(2**32))
            runs = []
            for batched in (True, False):
                calls = []

                def hook(slot, tx, rx, history, calls=calls):
                    calls.append((slot, tx, rx))
                    return eps0 if (slot + tx + rx) % 3 else eps0 / 4

                noise = NoiseModel(eps0, mode="adversarial", adversary=hook)
                ch = Channel(place_nodes(16, seed=0), derive_params(1000, 0.5), noise,
                             np.random.default_rng(seed))
                if batched:
                    res = simulate_line(proto, LinkSimConfig(mode="repetition", r3=r3), ch, ends)
                    out = (list(res.values), list(res.delivered))
                else:
                    out = reference_repetition(proto, r3, ch, ends)
                runs.append((out, ch.rng.bit_generator.state, calls))
            assert runs[0] == runs[1], (q, width, r3, seed)
            assert len(runs[0][2]) == (q - 1) * width * r3
            corrupted += runs[0][0][1] != proto.fold()[1]
        # The comparison covers arrays whose links deliver wrong values.
        assert corrupted > 0


def reference_treecode(protocol, config, channel, link_endpoints):
    """The per-link tree-code loop that re-decodes each receiver's whole
    history every round, by a rescan of all 2^t paths: values and delivered values.
    Round t's forward bits go out in the slots from 2 * (t - 1) * sym_bits."""
    depth = config.treecode_depth(protocol.rounds)
    tree = TreeCode(depth, config.alphabet, config.treecode_seed)
    sym_bits = config.symbol_bits
    links = protocol.q - 1
    prefixes = [0] * links
    received = [[] for _ in range(links)]
    beliefs = [[] for _ in range(links)]
    for t in range(1, depth + 1):
        round_bits = []
        for i in range(links):
            child = beliefs[i - 1] if i > 0 else []
            bit = protocol.sent_bit(i, t, child[: t - 1]) if t <= protocol.rounds else 0
            round_bits.append(bit)
        for i in range(links):
            prefixes[i] = (prefixes[i] << 1) | round_bits[i]
            symbol = int(tree.levels[t - 1][prefixes[i]])
            tx_node, rx_node = link_endpoints[i]
            slots = 2 * (t - 1) * sym_bits + np.arange(sym_bits)
            mask = channel.flip_mask((sym_bits,), slots=slots, txs=tx_node, rxs=rx_node)
            flips = sum(int(b) << (sym_bits - 1 - k) for k, b in enumerate(mask))
            received[i].append(symbol ^ flips)
            paths = np.arange(1 << t)
            dist = np.zeros(1 << t, dtype=np.int64)
            for s in range(1, t + 1):
                dist += tree.levels[s - 1][paths >> (t - s)] != received[i][s - 1]
            best = int(np.argmin(dist))
            beliefs[i] = [(best >> (t - 1 - k)) & 1 for k in range(t)]
    values = [
        protocol.step(i, protocol.child_value(i, beliefs[i - 1][: protocol.rounds] if i else []))
        for i in range(protocol.q)
    ]
    delivered = [protocol.child_value(i + 1, beliefs[i]) for i in range(links)]
    return values, delivered


class TestTreeCodeIncremental:
    @pytest.mark.parametrize("kind", ["or", "adder"])
    @pytest.mark.parametrize("hooked", [False, True], ids=["iid", "adversary"])
    def test_matches_the_per_link_redecoding_loop(self, kind, hooked):
        eps0 = 0.1
        wrong_links = 0
        for seed in range(20):
            rng = np.random.default_rng(seed)
            q = int(rng.integers(2, 6))
            width = int(rng.integers(1, 4)) if kind == "adder" else 1
            counts = rng.integers(0, 2**width, q)
            proto = or_chain(counts) if kind == "or" else adder_chain(counts, width)
            config = LinkSimConfig(mode="treecode", alphabet=(4, 8, 16)[seed % 3], d_max=12)
            ends = [(20 + 3 * i, 21 + 3 * i) for i in range(q - 1)]
            runs = []
            for simulate in (simulate_line, reference_treecode):
                calls = []

                def hook(slot, tx, rx, history, calls=calls):
                    calls.append((slot, tx, rx))
                    return eps0 if (slot + tx) % 3 else eps0 / 2

                if hooked:
                    noise = NoiseModel(eps0, mode="adversarial", adversary=hook)
                else:
                    noise = NoiseModel(eps0)
                ch = Channel(place_nodes(16, seed=0), derive_params(1000, 0.5), noise,
                             np.random.default_rng(seed + 1000))
                out = simulate(proto, config, ch, ends)
                if simulate is simulate_line:
                    out = (list(out.values), list(out.delivered))
                runs.append((out, ch.rng.bit_generator.state, calls))
            assert runs[0] == runs[1], seed
            assert bool(runs[0][2]) == hooked
            wrong_links += runs[0][0][1] != proto.fold()[1]
        # The comparison covers runs whose links deliver wrong values.
        assert wrong_links > 0
