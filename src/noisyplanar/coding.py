"""Bit-protection primitives for noisy links.

A line protocol is given by its length q, its schedule length in rounds, the
payload ``width`` each link carries, and a ``step(i, received_child_value)``
that folds the value node i receives into its own; the per-round bits, the
payload rounds and the noiseless run are derived from those.  Three
interchangeable mechanisms turn a noiseless line protocol into one that runs
over binary-symmetric links:

* ``repetition``  -- every meaningful link bit is repeated an odd number of
  times and majority-decoded (the robust, time-expensive fallback); arrays
  that run side by side share one majority draw, one uniform per decoded
  bit (``repetition_errors``), and each array is a fold of ``step`` over its
  links' error words;
* ``treecode``    -- every sender emits one tree-code symbol per round and each
  receiver extends its distances to all 2^t paths by one level (the mechanism
  behind the time-optimal scheme; the path space is exponential, so depth-capped);
* ``abstract``    -- the noiseless protocol runs directly and the array output
  is corrupted with probability exp(-gamma * rounds), with time charged as
  ceil(k_rs * rounds) slots (carries the simulation guarantee into scaling
  sweeps without paying the decoder's exponential cost).

Also here: majority decoding with erasures, and a seeded random linear block
code with nearest-codeword decoding (distance shortcuts, then a scan of every
codeword) used to distribute witness identities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, cached_property
from typing import Callable, Sequence

import numpy as np

from .channel import Channel

__all__ = [
    "ERASED",
    "DecodeFailure",
    "CapacityError",
    "majority_decode",
    "RepetitionScheme",
    "BlockCode",
    "TreeCode",
    "SimGuarantee",
    "LineProtocol",
    "LineResult",
    "LinkSimConfig",
    "or_chain",
    "simulate_line",
    "repetition_errors",
    "smallest_odd_at_least",
    "DEFAULT_DECODE_CAP",
    "MAX_DECODE_CAP",
]

ERASED = None

DEFAULT_DECODE_CAP = 16
# The largest decoding cap accepted: a depth-20 tree's labels are 2^21 int64
# (16 MiB), and each link's path distances 2^20 bytes.
MAX_DECODE_CAP = 20


class DecodeFailure(Exception):
    """No usable observations to decode from."""


class CapacityError(Exception):
    """Requested tree-code depth exceeds the exhaustive-decoding cap."""


def smallest_odd_at_least(x: float) -> int:
    """Smallest odd integer >= x (and >= 1); repeat counts must be odd."""
    k = max(1, math.ceil(x))
    return k if k % 2 == 1 else k + 1


def majority_decode(observations: Sequence) -> int:
    """Majority vote over non-erased observations; exact ties decode to 0.

    Collision slots enter as ERASED and are excluded from the count.  Raises
    DecodeFailure if every observation is erased.
    """
    kept = [int(o) for o in observations if o is not ERASED]
    if not kept:
        raise DecodeFailure("all observations erased")
    ones = sum(kept)
    return 1 if ones > len(kept) - ones else 0


@dataclass(frozen=True)
class RepetitionScheme:
    """Repeat-k code under ``majority_decode``; k must be odd so votes cannot tie."""

    k: int

    def __post_init__(self):
        if self.k < 1 or self.k % 2 == 0:
            raise ValueError(f"repeat count must be odd and positive, got {self.k}")

    def error_bound(self, p: float) -> float:
        """Binomial tail: probability that more than k/2 of k copies flip."""
        return sum(
            math.comb(self.k, i) * p**i * (1 - p) ** (self.k - i)
            for i in range(self.k // 2 + 1, self.k + 1)
        )


def _pack_bits(bits: np.ndarray) -> np.ndarray:
    """Pack (n, L) 0/1 rows (or one row), bool or integer, into (n, ceil(L/64))
    uint64 words: the rows zero-padded to whole words, then packed as one flat
    array (a row-wise pack of a width that is not a multiple of 8 is slower)."""
    bits = np.atleast_2d(bits)
    rows, width = bits.shape
    words = -(-width // 64)
    padded = np.zeros((rows, words * 64), dtype=bool)
    padded[:, :width] = bits
    return np.packbits(padded.reshape(-1)).view(np.uint64).reshape(rows, words)


def _popcount_rows(words: np.ndarray) -> np.ndarray:
    """Set bits per row of (..., words) uint64, the per-word counts added column
    by column (a reduction over an axis of one or two words is slower)."""
    total = np.bitwise_count(words[..., 0]).astype(np.int64)
    for k in range(1, words.shape[-1]):
        total += np.bitwise_count(words[..., k])
    return total


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


class BlockCode:
    """Seeded random linear block code with nearest-codeword (ML) decoding.

    The generator is systematic (identity over the message bits, random
    parity rows), so distinct messages always map to distinct codewords and
    the all-zero message maps to the all-zero codeword.  Decoding returns the
    message whose codeword minimizes Hamming distance to the received word,
    ties broken toward the smaller message value, by a scan of all 2^msg_bits
    codewords.

    The codebook is held bit-packed (row m is the codeword of message m).
    All arrays are read-only, so one instance can be shared by every trial
    that uses the same code.
    """

    def __init__(self, msg_bits: int, block_len: int | None = None, seed: int = 0):
        if msg_bits < 1:
            raise ValueError("need at least one message bit")
        block_len = 4 * msg_bits if block_len is None else block_len
        if block_len < msg_bits:
            raise ValueError("block length may not be shorter than the message")
        self.msg_bits = msg_bits
        self.block_len = block_len
        self.seed = seed
        rng = np.random.default_rng(seed)
        gen = rng.integers(0, 2, size=(block_len, msg_bits), dtype=np.uint8)
        gen[:msg_bits] = np.eye(msg_bits, dtype=np.uint8)
        self.generator = _read_only(gen)
        # By linearity, row 2^i + m is row m XOR the codeword of message 2^i,
        # which is generator column i; doubling fills the codebook in k steps.
        columns = _pack_bits(gen.T)
        packed = np.zeros((2**msg_bits, columns.shape[1]), dtype=np.uint64)
        for i, column in enumerate(columns):
            half = 1 << i
            np.bitwise_xor(packed[:half], column, out=packed[half : 2 * half])
        self._packed = _read_only(packed)
        # Minimum nonzero codeword weight (= minimum distance, by linearity).
        self.min_distance = int(_popcount_rows(packed[1:]).min())

    @cached_property
    def codebook(self) -> np.ndarray:
        """Unpacked codebook, (2^msg_bits, block_len) 0/1 bytes, built on first use."""
        words = self._packed.view(np.uint8)
        return _read_only(np.unpackbits(words, axis=1, count=self.block_len))

    def encode(self, msg: int) -> np.ndarray:
        if not (0 <= msg < 2**self.msg_bits):
            raise ValueError(f"message {msg} outside [0, 2^{self.msg_bits})")
        bits = (msg >> np.arange(self.msg_bits)) & 1
        return np.bitwise_xor.reduce(self.generator[:, bits.astype(bool)], axis=1)

    def decode(self, word: np.ndarray) -> int:
        word = np.asarray(word, dtype=np.uint8)
        if word.shape != (self.block_len,):
            raise ValueError(f"expected a length-{self.block_len} word, got shape {word.shape}")
        dists = _popcount_rows(self._packed ^ _pack_bits(word))
        return int(np.argmin(dists))

    def decode_batch(self, words: np.ndarray) -> np.ndarray:
        """ML-decode many received words at once (rows of ``words``)."""
        words = np.atleast_2d(np.asarray(words, dtype=np.uint8))
        if words.shape[1] != self.block_len:
            raise ValueError("word length mismatch")
        packed = _pack_bits(words)
        out = np.empty(len(packed), dtype=np.int64)
        step = max(1, 2**22 // max(1, len(self._packed)))
        for lo in range(0, len(packed), step):
            chunk = packed[lo : lo + step]
            d = np.bitwise_count(chunk[:, None, :] ^ self._packed[None, :, :]).sum(axis=2)
            out[lo : lo + step] = np.argmin(d, axis=1)
        return out

    def decode_equals(
        self, true_msg: int | np.ndarray, flip_masks: np.ndarray, candidates: np.ndarray
    ) -> np.ndarray:
        """Whether ML decoding of encode(true_msg) under each flip mask yields
        each receiver's candidate message.

        ``true_msg`` is one message for every row or an array of one per row;
        ``flip_masks`` are 0/1 rows, bool as drawn or integer.  The distance
        shortcuts (``settle``) decide most rows; the rows they leave open are
        decoded in full (``decode_batch``), whose argmin sends ties to the
        smaller message.  Equivalent to per-receiver ``decode``, ties included
        (property-tested).
        """
        equal, rows = self.settle(true_msg, flip_masks, candidates)
        candidates = np.asarray(candidates, dtype=np.int64)
        true_msg = np.broadcast_to(np.asarray(true_msg, dtype=np.int64), candidates.shape)
        words = self.codebook[true_msg[rows]] ^ np.atleast_2d(flip_masks)[rows]
        equal[rows] = self.decode_batch(words) == candidates[rows]
        return equal

    def settle(
        self, true_msg: int | np.ndarray, flip_masks: np.ndarray, candidates: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """The rows of ``decode_equals`` that the distance shortcuts decide.

        Takes ``decode_equals``' arguments and returns (equal, open): the
        ascending indices of the rows left open, which need a full decode, and
        for every other row decode_equals' answer.  The mask form of
        ``settle_counts``: each row's weight and overlap are counted from its
        flips.
        """
        packed_err = _pack_bits(flip_masks)
        return self.settle_counts(
            true_msg,
            candidates,
            _popcount_rows(packed_err),
            lambda near, diff, spread: _popcount_rows(packed_err[near] & diff),
        )

    def settle_counts(
        self, true_msg: int | np.ndarray, candidates: np.ndarray, weights: np.ndarray, overlap
    ) -> tuple[np.ndarray, np.ndarray]:
        """``settle`` from each row's error weight W = wt(e) and, where it is
        needed, its overlap J = wt(e & x), x = c_cand ^ c_true the difference
        of the candidate's codeword from the sent one.

        A received word r = c ^ e lies at distance wt(e ^ y) >= wt(y) - W from
        the codeword c ^ y, and at distance W + wt(x) - 2J from the
        candidate's.  So:

        * if 2W < min_distance, c is the unique nearest codeword;
        * if 2J < wt(x), r is strictly closer to c than to the candidate's
          codeword, and the decode is not the candidate.  As J <= W, that
          holds wherever 2W < wt(x).

        Either way the decode equals the candidate iff the candidate is
        true_msg.  ``overlap(near, x, wt(x))`` returns J for the ascending
        rows ``near`` that neither bound on W settles, given their x as
        packed words; it is called once.  Returns (equal, open) as ``settle``
        does.
        """
        candidates = np.asarray(candidates, dtype=np.int64)
        true_msg = np.broadcast_to(np.asarray(true_msg, dtype=np.int64), candidates.shape)
        near = np.flatnonzero(weights >= -(-self.min_distance // 2))
        diff = self._packed[candidates[near]] ^ self._packed[true_msg[near]]
        spread = _popcount_rows(diff)
        reach = weights[near] >= -(-spread // 2)
        near, diff, spread = near[reach], diff[reach], spread[reach]
        return true_msg == candidates, near[2 * overlap(near, diff, spread) >= spread]


# A path distance is at most the depth, and 2^depth paths cap that far below 256.
_PATH_DISTANCE = np.uint8


class TreeCode:
    """Binary tree code: each path prefix is labeled with one alphabet symbol.

    Labels are generated from the seed with sibling prefixes always receiving
    distinct symbols, so distinct paths encode at Hamming distance >= 1 and a
    clean reception decodes exactly.  Decoding extends the distances to all
    paths one symbol at a time (minimum symbol-wise Hamming distance, ties to
    the lexicographically smaller path); there are 2^d paths, so it is depth-capped.
    """

    @staticmethod
    def check_alphabet(alphabet: int) -> None:
        if alphabet < 4 or alphabet & (alphabet - 1):
            raise ValueError(f"alphabet size must be a power of two >= 4, got {alphabet}")

    def __init__(self, depth: int, alphabet: int = 4, seed: int = 0):
        if depth < 1:
            raise ValueError("depth must be positive")
        self.check_alphabet(alphabet)
        self.depth = depth
        self.alphabet = alphabet
        self.seed = seed
        rng = np.random.default_rng(seed)
        levels: list[np.ndarray] = []
        for t in range(1, depth + 1):
            parents = 1 << (t - 1)
            a = rng.integers(0, alphabet, size=parents, dtype=np.int64)
            b = rng.integers(0, alphabet - 1, size=parents, dtype=np.int64)
            b += b >= a
            level = np.empty(2 * parents, dtype=np.int64)
            level[0::2] = a
            level[1::2] = b
            levels.append(level)
        self.levels = tuple(levels)

    def encode(self, path: Sequence[int]) -> np.ndarray:
        if len(path) > self.depth:
            raise ValueError(f"path longer than tree depth {self.depth}")
        prefix = 0
        symbols = np.empty(len(path), dtype=np.int64)
        for t, bit in enumerate(path, start=1):
            prefix = (prefix << 1) | int(bit)
            symbols[t - 1] = self.levels[t - 1][prefix]
        return symbols

    def decode(self, received: Sequence[int], depth_cap: int = DEFAULT_DECODE_CAP) -> tuple[int, ...]:
        d = len(received)
        if d > depth_cap:
            raise CapacityError(
                f"exhaustive decoding over 2^{d} paths exceeds the cap of 2^{depth_cap}; "
                f"no efficient tree-code decoder is available"
            )
        if d > self.depth:
            raise ValueError(f"received {d} symbols but tree depth is {self.depth}")
        dist = np.zeros(1, dtype=_PATH_DISTANCE)
        for t in range(1, d + 1):
            dist = self.extend(dist, t, received[t - 1])
        best = int(np.argmin(dist))  # first minimum = lexicographically smallest path
        return tuple((best >> (d - 1 - i)) & 1 for i in range(d))

    def extend(self, dist: np.ndarray, t: int, symbols) -> np.ndarray:
        """Distances to the 2^t length-t paths (first bit = MSB) from those to their
        parents and the t-th symbol r of each row: dist[..., p >> 1] + [levels[t-1][p] != r]."""
        return dist.repeat(2, axis=-1) + (self.levels[t - 1] != np.asarray(symbols)[..., None])


_tree_for = cache(TreeCode)


@dataclass(frozen=True)
class SimGuarantee:
    """Abstract-mode contract: failure exp(-gamma * T), time ceil(k_rs * T)."""

    gamma: float = 0.5
    k_rs: float = 3.0

    def failure_prob(self, rounds: int) -> float:
        return math.exp(-self.gamma * rounds)

    def slots(self, rounds: int) -> int:
        return math.ceil(self.k_rs * rounds)


@dataclass(frozen=True)
class LineProtocol:
    """An oblivious noiseless protocol on a linear array, child end first.

    Nodes 0..q-1; node q-1 is the array root.  Node i folds the value it
    received from its child into its own: ``step(i, received_child_value)``
    (node 0 receives 0).  The value crosses link i -> i+1 as ``width`` bits,
    least significant first, bit k in round i+1+k, so each node starts one
    round after its child; every other round carries a known dummy zero and
    the schedule never depends on the data.  ``step`` must be causal in that
    order: bit k of its result depends only on bits 0..k of the received
    value, so a node can send bit k as soon as its child's bit k has arrived.
    ``rounds`` is the length of the schedule; ``corrupt`` draws the value an
    abstract-mode failure leaves at the root.

    The per-round view -- ``sent_bit``, ``payload_rounds`` and
    ``noiseless_run`` -- is derived from ``step`` and ``width``.
    """

    q: int
    rounds: int
    width: int
    step: Callable[[int, int], int]
    corrupt: Callable[[np.random.Generator], int]

    def payload_rounds(self, i: int) -> range:
        """Rounds in which node i's bit is meaningful (everything else is a dummy)."""
        return range(i + 1, i + 1 + self.width)

    def child_value(self, i: int, child: Sequence[int]) -> int:
        """What node i has received from its child, whose bits of rounds 1, 2, ...
        are ``child``; payload rounds not yet in ``child`` count as zeros."""
        if i == 0:
            return 0
        rounds = self.payload_rounds(i - 1)
        return sum(int(child[t - 1]) << k for k, t in enumerate(rounds) if t <= len(child))

    def sent_bit(self, i: int, t: int, child: Sequence[int]) -> int:
        """Node i's bit in round t, from its child's bits of rounds 1..t-1."""
        k = t - i - 1
        if not 0 <= k < self.width:
            return 0
        return self.step(i, self.child_value(i, child)) >> k & 1

    def fold(self, errors: Sequence[int] | None = None) -> tuple[list[int], list[int]]:
        """Per-node values and the value each link delivers, when link i
        flips the payload bits set in ``errors[i]`` (none: the noiseless run)."""
        values: list[int] = []
        delivered: list[int] = []
        received = 0
        for i in range(self.q):
            values.append(self.step(i, received))
            if i < self.q - 1:
                received = values[i] ^ (errors[i] if errors is not None else 0)
                delivered.append(received)
        return values, delivered

    def noiseless_run(self) -> tuple[list[list[int]], list[int]]:
        """Per-sender round bits and per-node values over perfect links."""
        values, _ = self.fold()
        sent = [
            [0] * i + list(_bits(v, self.width)) + [0] * (self.rounds - i - self.width)
            for i, v in enumerate(values[:-1])
        ]
        return sent, values


def _bits(value: int, width: int) -> tuple[int, ...]:
    """The low ``width`` bits of value, least significant first."""
    return tuple(value >> k & 1 for k in range(width))


def or_chain(values: Sequence[int]) -> LineProtocol:
    """Running-OR aggregation: round t carries the prefix OR across hop t."""
    vals = [int(v) for v in values]
    q = len(vals)
    if q < 2:
        raise ValueError("a line protocol needs at least two nodes")
    return LineProtocol(
        q=q,
        rounds=q - 1,
        width=1,
        step=lambda i, received: received | vals[i],
        corrupt=lambda rng: int(rng.integers(0, 2)),
    )


@dataclass(frozen=True)
class LinkSimConfig:
    """Knobs for simulating line protocols over noisy links."""

    mode: str = "abstract"  # "repetition" | "treecode" | "abstract"
    r3: int = 27
    gamma: float = 0.5
    k_rs: float = 3.0
    d_max: int = DEFAULT_DECODE_CAP
    alphabet: int = 4
    treecode_pad: int = 6
    treecode_seed: int = 2025

    def __post_init__(self):
        if self.mode not in ("repetition", "treecode", "abstract"):
            raise ValueError(f"unknown simulation mode {self.mode!r}")
        if self.r3 < 1 or self.r3 % 2 == 0:
            raise ValueError("r3 must be odd and positive")
        if self.treecode_pad < 0:
            raise ValueError(f"treecode pad must be >= 0, got {self.treecode_pad}")
        if not 1 <= self.d_max <= MAX_DECODE_CAP:
            raise ValueError(f"d-max must lie in 1..{MAX_DECODE_CAP}, got {self.d_max}")
        if self.mode == "treecode":
            TreeCode.check_alphabet(self.alphabet)

    @property
    def guarantee(self) -> SimGuarantee:
        return SimGuarantee(gamma=self.gamma, k_rs=self.k_rs)

    @property
    def symbol_bits(self) -> int:
        """Bit-slots one tree-code symbol occupies."""
        return self.alphabet.bit_length() - 1

    def treecode_depth(self, rounds: int) -> int:
        """Tree depth for a rounds-round protocol: the rounds plus as much of
        the pad as the decoding cap leaves room for.

        Raises CapacityError when the rounds alone exceed the cap.
        """
        if rounds > self.d_max:
            raise CapacityError(
                f"tree-code simulation of a {rounds}-round protocol exceeds the "
                f"decoding cap {self.d_max}; shorten the arrays or use another mode"
            )
        return rounds + min(self.treecode_pad, self.d_max - rounds)


@dataclass(frozen=True)
class LineResult:
    """Outcome of one array simulation: per-node values plus cost accounting.

    ``delivered[i]`` is the value node i+1 decoded from link i's payload
    bits; ``slots`` are logical slots and ``tx`` the transmissions made.
    """

    values: tuple[int, ...]
    slots: int
    tx: int
    delivered: tuple[int, ...]


def simulate_line(
    protocol: LineProtocol,
    config: LinkSimConfig,
    channel: Channel,
    link_endpoints: Sequence[tuple[int, int]] | None = None,
    slots: Callable[[np.ndarray], np.ndarray] = np.asarray,
) -> LineResult:
    """Run a noiseless line protocol over noisy links in the configured mode.

    With eps0 = 0 every mode reproduces the noiseless outputs exactly.  Slots
    returned are logical (one link activation each); callers expand them to
    physical slots with the interference span, and ``slots`` maps logical
    slots (links along axis 0) to the ids a hook sees, by default the logical
    slots themselves.  It runs one array alone: stage 2 sends only its
    tree-code arrays here, and runs abstract and repetition sub-stages, like
    distribution's relay, as one array pass each.
    """
    if config.mode == "abstract":
        return _simulate_abstract(protocol, config, channel)
    links = protocol.q - 1
    if link_endpoints is None:
        link_endpoints = [(i, i + 1) for i in range(links)]
    ends = np.asarray(link_endpoints, dtype=np.int64).reshape(links, 2)
    if config.mode == "treecode":
        return _simulate_treecode(protocol, config, channel, ends, slots)
    errors = repetition_errors([links], protocol.width, config.r3, channel, ends, slots).tolist()
    # Links repeat their payload bits one after another, one transmission per slot.
    logical = links * protocol.width * config.r3
    values, delivered = protocol.fold(errors)
    return LineResult(tuple(values), logical, logical, tuple(delivered))


def _simulate_abstract(
    protocol: LineProtocol, config: LinkSimConfig, channel: Channel
) -> LineResult:
    values, delivered = protocol.fold()
    guarantee = config.guarantee
    # The guarantee models decoding failure under channel noise; a noiseless
    # channel cannot fail, preserving exactness at eps0 = 0.
    if channel.noise.eps0 > 0 and channel.rng.random() < guarantee.failure_prob(protocol.rounds):
        values[-1] = protocol.corrupt(channel.rng)
    slots = guarantee.slots(protocol.rounds)
    tx = (protocol.q - 1) * config.r3
    return LineResult(tuple(values), slots, tx, tuple(delivered))


def repetition_errors(
    links: Sequence[int], width: int, r3: int, channel: Channel, ends: np.ndarray, slots=np.asarray
) -> np.ndarray:
    """Link error words of repetition arrays that run side by side, from one draw.

    Each link repeats its node's ``width`` payload bits r3 times each,
    hop-serially, and the receiver majority-decodes every payload bit.  A
    decoded bit is the sent bit XOR [more than r3/2 of its copies flipped],
    whatever the bit and the copies' flip probabilities, so noise is one
    majority draw (``Channel.majority_mask``) of (sum(links), width, r3)
    receptions: one uniform per payload bit against its majority tail, array
    by array, link by link, payload bit by payload bit, in C order the
    per-array draws one after another.  Copy c of bit b of hop h sits in
    logical slot (h * width + b) * r3 + c, hops counted within each array
    (lockstep); ``slots`` maps those to ids when a hook reads them.  ``ends``
    holds every link's (tx, rx) in the same order.  Returns one error word
    per link (bit k set iff payload bit k decodes wrong), the arrays' links
    end to end, in the order ``ends`` gives them.
    """
    total = int(sum(links))
    cuts = np.cumsum([0, *links])
    first = lambda: (np.repeat(cuts[:-1], links) * width * r3)[:, None, None]  # array starts
    wrong = channel.majority_mask(
        (total, width, r3),
        slots=lambda: slots(np.arange(total * width * r3).reshape(total, width, r3) - first()),
        txs=ends[:, 0, None, None],
        rxs=ends[:, 1, None, None],
    )
    return (wrong << np.arange(width)).sum(axis=1)


def _simulate_treecode(
    protocol: LineProtocol,
    config: LinkSimConfig,
    channel: Channel,
    ends: np.ndarray,
    slots: Callable[[np.ndarray], np.ndarray],
) -> LineResult:
    """All links send one tree-code symbol per round; each receiver extends its
    path distances and believes the first nearest path, as ``decode`` would.

    A round is one (links, sym_bits) flip draw in link-then-bit order: the
    uniforms and the hook calls of a per-link loop, batched as ``NoiseModel``
    says.  The reserved reverse-direction bits are charged as transmissions
    and receptions but never drawn, so a hook never sees them.
    """
    depth = config.treecode_depth(protocol.rounds)
    tree = _tree_for(depth, config.alphabet, config.treecode_seed)
    sym_bits = config.symbol_bits

    links = protocol.q - 1
    bit_weights = 1 << np.arange(sym_bits - 1, -1, -1)  # a symbol's first bit is its MSB
    prefixes = np.zeros(links, dtype=np.int64)
    dist = np.zeros((links, 1), dtype=_PATH_DISTANCE)  # receiver i+1's distances on link i
    beliefs: list[list[int]] = [[] for _ in range(links)]  # receiver i+1's view of link i

    for t in range(1, depth + 1):
        round_bits = [
            protocol.sent_bit(i, t, beliefs[i - 1] if i > 0 else []) if t <= protocol.rounds else 0
            for i in range(links)
        ]
        prefixes = (prefixes << 1) | round_bits
        mask = channel.flip_mask(
            (links, sym_bits),
            # Forward bits; the reserved reverse-direction bits take the sym_bits after them.
            slots=lambda: slots(2 * (t - 1) * sym_bits + np.arange(sym_bits)[None]),
            txs=ends[:, :1],
            rxs=ends[:, 1:],
        )
        dist = tree.extend(dist, t, tree.levels[t - 1][prefixes] ^ (mask @ bit_weights))
        best = dist.argmin(axis=1)  # first minimum = lexicographically smallest path
        beliefs = ((best[:, None] >> np.arange(t - 1, -1, -1)) & 1).tolist()

    delivered = tuple(protocol.child_value(i + 1, belief) for i, belief in enumerate(beliefs))
    values = tuple(protocol.step(i, received) for i, received in enumerate((0, *delivered)))
    # Forward symbols plus the reserved reverse-direction dummies, in bit-slots.
    slots = 2 * depth * sym_bits
    return LineResult(values, slots, links * slots, delivered)
