"""Slotted-time channel: protocol-model interference, BSC noise, scheduling, metrics.

A transmission is received only if its sender is the unique transmitter
within the reception radius and every other simultaneous transmitter is at
least (1 + delta) * radius away; otherwise the listener observes a collision
(if anyone was in range) or silence.  Received bits pass through a
binary-symmetric channel whose flip probability is bounded by eps0 < 0.5,
independently per receiver; an optional adversary may pick each reception's
flip probability up to that bound, knowing the run (see ``NoiseModel``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache, lru_cache
from itertools import chain
from typing import Callable

import numpy as np

from .geometry import CellGrid, DerivedParams

__all__ = [
    "SILENT",
    "COLLIDED",
    "RECEIVED",
    "NoiseModel",
    "majority_tail",
    "ScheduleClass",
    "EnergyConfig",
    "Metrics",
    "Channel",
    "distances",
    "resolve_slot",
    "color_cells",
]

# resolve_slot's kind codes: a listener hears silence, a collision, or bit b as RECEIVED + b.
SILENT, COLLIDED, RECEIVED = 0, 1, 2


# iid noise draws its uniforms through a buffer of this many float64 (256 KiB),
# and an adversary's hook is asked about at most this many receptions at a time.
FLIP_CHUNK = 1 << 15

# Adversary hook: (slot, tx, rx, history) -> flip probability in [0, eps0].
AdversaryHook = Callable[[int, int, int, object], float]


def _flip_counts(probs, reps: int) -> np.ndarray:
    """The law of how many of reps independent copies flip, copy k flipping
    with probability probs[..., k]: dist[..., j] = P[j copies flip], with the
    shape of probs less its last axis, plus one axis of reps + 1 counts.  A
    scalar p stands for reps copies of p.

    A Poisson-binomial DP over the copies in order: a scalar p and a row of
    reps equal p take the same float operations, so their laws are equal to
    the bit.
    """
    probs = np.asarray(probs, dtype=np.float64)
    if probs.ndim == 0:
        probs = np.full(reps, probs)
    if probs.shape[-1] != reps:
        raise ValueError(f"majority_tail of {reps} copies got probabilities of shape {probs.shape}")
    dist = np.zeros((*probs.shape[:-1], reps + 1))  # dist[..., j]: P[j of the copies so far flip]
    dist[..., 0] = 1.0
    for k in range(reps):
        p = probs[..., k, None]
        dist[..., 1 : k + 2] = dist[..., 1 : k + 2] * (1.0 - p) + dist[..., : k + 1] * p
        dist[..., 0] *= 1.0 - p[..., 0]
    return dist


def _upper_tail(dist: np.ndarray, reps: int) -> np.ndarray:
    """P[more than reps // 2 copies flip] from ``_flip_counts``, summed upward from its first count."""
    tail = dist[..., reps // 2 + 1]
    for j in range(reps // 2 + 2, reps + 1):
        tail = tail + dist[..., j]
    return tail


def majority_tail(probs, reps: int) -> np.ndarray:
    """Probability that more than reps // 2 of reps independent copies flip,
    copy k flipping with probability probs[..., k]; a scalar p stands for
    reps copies of p, and the tail has the shape of probs less its last axis.
    The upper tail of ``_flip_counts``."""
    return _upper_tail(_flip_counts(probs, reps), reps)


@cache
def _iid_counts(eps0: float, reps: int) -> np.ndarray:
    """``_flip_counts`` of reps copies at eps0, read-only: iid noise's one law of
    flips per row, for majority tails and block-code error weights alike."""
    dist = _flip_counts(eps0, reps)
    dist.flags.writeable = False
    return dist


@cache
def _iid_tail(eps0: float, reps: int) -> float:
    """The majority tail of reps copies at eps0: iid noise's one threshold per row."""
    return float(_upper_tail(_iid_counts(eps0, reps), reps))


def _uniform_chunks(rng, size: int):
    """``rng.random(size)`` through one float buffer of at most ``FLIP_CHUNK``
    values: yields (offset, chunk) in order, the same stream as one draw
    without holding every uniform.  Each chunk is overwritten by the next."""
    buf = np.empty(min(size, FLIP_CHUNK))
    for lo in range(0, size, FLIP_CHUNK):
        chunk = buf[: size - lo]
        rng.random(out=chunk)
        yield lo, chunk


def _uniforms_below(rng, shape, threshold: float) -> np.ndarray:
    """``rng.random(shape) < threshold``, the uniforms drawn chunk by chunk in
    C order (``_uniform_chunks``): the same stream and result as one draw."""
    out = np.empty(shape, dtype=bool)
    flat = out.reshape(-1)
    for lo, chunk in _uniform_chunks(rng, flat.size):
        np.less(chunk, threshold, out=flat[lo : lo + chunk.size])
    return out


def _weights_reaching(rng, rows: int, dist: np.ndarray, threshold: int):
    """The rows whose flip count, drawn from the law ``dist`` (counts 0..len - 1),
    reaches threshold, ascending, and those counts.

    One uniform per row in order (``_uniform_chunks``) against the law's CDF:
    a row's count is how many of the CDF's partial sums its uniform reaches,
    and a uniform is below 1, so only the partial sums below 1 count.  So a
    row reaches threshold iff its uniform reaches partial sum number
    threshold (every row at 0, none past the last sum below 1), and only
    those rows are counted, by a binary search over the sums.
    """
    cdf = np.cumsum(dist)[:-1]
    edges = cdf[cdf < 1.0]
    bar = np.concatenate([[0.0], edges, [np.inf]])[min(threshold, edges.size + 1)]
    index = np.int32 if rows <= np.iinfo(np.int32).max else np.int64
    count = np.min_scalar_type(dist.size - 1)
    reach, weights = [np.zeros(0, dtype=index)], [np.zeros(0, dtype=count)]
    for lo, chunk in _uniform_chunks(rng, rows):
        hit = np.flatnonzero(chunk >= bar)
        reach.append((lo + hit).astype(index))
        weights.append(np.searchsorted(edges, chunk[hit], side="right").astype(count))
    return np.concatenate(reach), np.concatenate(weights)


def _patterns(keys: np.ndarray, diff: np.ndarray, weights, overlaps) -> np.ndarray:
    """Error patterns with weights[i] flips, overlaps[i] of them where diff[i]
    is set: row i flips the overlaps[i] positions of least key where diff[i]
    is set and the weights[i] - overlaps[i] of least key where it is not.
    Under uniform keys each pattern is uniform over the patterns that match."""
    order = keys.argsort(axis=1)
    inside = np.take_along_axis(diff, order, axis=1)
    quota = np.where(inside, overlaps[:, None], (weights - overlaps)[:, None])
    taken = np.where(inside, inside.cumsum(axis=1), (~inside).cumsum(axis=1)) <= quota
    masks = np.empty_like(taken)
    np.put_along_axis(masks, order, taken, axis=1)
    return masks


def _iid_code_errors(rng, eps0: float, code, rows: int, pairs):
    """``Channel.code_errors`` under iid noise, drawn from each row's sufficient
    statistics, each pass over the rows in order and drawing only what
    decoding still reads:

    * one uniform per row against the CDF of its error weight W ~ Bin(L, eps0)
      (``_iid_counts``); the rows whose uniform reaches the CDF's partial sum
      number ceil(min_distance / 2), the only ones with 2W >= min_distance,
      get their W, and every other row is settled (``_weights_reaching``);
    * for the reaching rows that W leaves open, the overlap
      J = wt(e & x) ~ Hypergeom(wt(x), L - wt(x), W), x = c_heard ^ c_sent
      (``Generator.hypergeometric``, one row after another);
    * for the rows both shortcuts leave open (``BlockCode.settle_counts``),
      the pattern e, uniform over the patterns with that W and J
      (``_patterns``), from L uniform keys per row.

    That is the law of L independent flips at eps0.  ``pairs(at)`` gives the
    sent and heard messages of the rows ``at``, and is asked only about the
    reaching rows.  Each pass goes through its rows in blocks of at most
    ``FLIP_CHUNK`` uniforms or rows, which bound memory and move no draw.
    Returns the open rows and their patterns in one mask array.
    """
    length = code.block_len
    threshold = -(-code.min_distance // 2)
    reach, weights = _weights_reaching(rng, rows, _iid_counts(eps0, length), threshold)
    overlaps = np.zeros_like(weights)
    opened = [np.zeros(0, dtype=np.int64)]  # positions in reach
    for lo in range(0, reach.size, FLIP_CHUNK):
        at = slice(lo, lo + FLIP_CHUNK)

        def overlap(near, diff, spread, w=weights[at], j=overlaps[at]):
            j[near] = drawn = rng.hypergeometric(spread, length - spread, w[near])
            return drawn

        opened.append(lo + code.settle_counts(*pairs(reach[at]), weights[at], overlap)[1])
    opened = np.concatenate(opened)
    masks = np.empty((opened.size, length), dtype=bool)
    step = max(1, FLIP_CHUNK // length)
    for lo in range(0, opened.size, step):
        at = opened[lo : lo + step]
        sent, heard = pairs(reach[at])
        diff = code.codebook[heard] != code.codebook[sent]
        keys = rng.random((at.size, length))
        masks[lo : lo + step] = _patterns(keys, diff, weights[at], overlaps[at])
    return reach[opened], masks


@dataclass(frozen=True)
class NoiseModel:
    """Per-receiver BSC noise with flip probability bounded by eps0 < 0.5.

    Without an adversary (iid noise) every reception flips with probability
    exactly eps0.  An adversary's hook, ``NoiseModel(eps0, hook)``, chooses
    each reception's flip probability, capped at eps0; flips stay
    independent across receivers given their probabilities.

    One noise rule serves these kinds of batch.  ``flips`` draws one uniform
    per reception, for readers of the whole error pattern (the tree code,
    ``resolve_slot``, and identity decoding under an adversary).
    ``majority_flips`` draws one uniform per row of repeated receptions that
    is majority-decoded: a decoded bit is the sent bit XOR [more than half of
    its copies flipped], whatever the bit, so one uniform against the row's
    ``majority_tail`` draws it with its exact law.  Either batch draws all of
    its uniforms first, then asks the hook once per reception in C order
    (every copy of a row included), in chunks of rows of at most
    ``FLIP_CHUNK`` receptions, each compared with its uniforms as it is
    asked.  Every draw says where its receptions are by one function,
    ``where(at) -> (slots, txs, rxs)``, called once per chunk with the
    chunk's ascending row indices along the batch's leading axis (``[0]``
    when it has none), each array broadcasting to those rows' receptions;
    iid noise never calls it.  So a hooked batch holds its uniforms and its
    flips whole, but neither its probabilities nor its receptions' slots,
    transmitters and receivers.  The hook sees every reception's (slot, tx,
    rx, history), but not the metrics or the RNG state moving partway through
    a batch, and a hook that answers eps0 draws exactly what iid noise draws
    in these batches.  A batch can span several arrays or cells (a repetition
    sub-stage of stage 2 is one, and so is each stage-1 phase), so the hook
    sees the channel as it was when the batch's draw began.  The slot is the
    one the metrics charge, which lockstep arrays and cells share.

    Block-code rows (identity decoding, ``Channel.code_errors``) draw their
    flips as one ``flips`` batch under a hook.  Under iid noise each row draws
    one uniform for its error weight, and only the rows whose uniform reaches
    the weight CDF's partial sum number ceil(min_distance / 2) draw their
    weight, then where decoding reads them their overlap with the candidate's
    codeword difference and their pattern: the same law, another stream (RNG
    layout 6).  So for identity a hook that answers eps0 draws what iid
    noise drew up to RNG layout 5, one uniform per reception.
    """

    eps0: float
    adversary: AdversaryHook | None = None

    def __post_init__(self):
        if not (0.0 <= self.eps0 < 0.5):
            raise ValueError(f"eps0 must lie in [0, 0.5), got {self.eps0}")
        if not (self.adversary is None or callable(self.adversary)):
            raise TypeError(f"the adversary must be a callable hook, got {self.adversary!r}")

    def flip_prob(self, slot: int, tx: int, rx: int, history: object) -> float:
        if self.adversary is None:
            return self.eps0
        p = float(self.adversary(slot, tx, rx, history))
        if not (0.0 <= p <= self.eps0):
            raise ValueError(f"adversary returned flip probability {p} outside [0, {self.eps0}]")
        return p

    def _hook_flips(self, u: np.ndarray, shape, where, history, reps=None):
        """Whether each uniform of u is below the hook's flip probability of its
        reception, the receptions of shape u.shape; or, given reps, below the
        ``majority_tail`` of its row's reps receptions, shape (*u.shape, reps).

        The hook is asked in C order, in chunks of rows along u's leading axis
        (one row when u has none) of at most ``FLIP_CHUNK`` receptions, or one
        row where that is more.  ``where(at)`` gives a chunk's (slots, txs,
        rxs), at its ascending row indices, each broadcasting to those rows'
        receptions; it is called once per chunk, so only the chunk's Python
        lists, float probabilities and locations are held at once."""
        lead = u.reshape(u.shape or (1,))
        row = (*lead.shape[1:], *shape[u.ndim :])  # one row's receptions
        out = np.empty(lead.shape, dtype=bool)
        step = max(1, FLIP_CHUNK // max(1, math.prod(row)))
        for lo in range(0, len(lead), step):
            at = np.arange(lo, min(lo + step, len(lead)))
            chunk = (at.size, *row)
            located = (np.broadcast_to(a, chunk).ravel().tolist() for a in where(at))
            probs = np.array([self.flip_prob(s, t, r, history) for s, t, r in zip(*located)])
            probs = probs.reshape(chunk)
            bars = probs if reps is None else majority_tail(probs, reps)
            np.less(lead[lo : lo + step], bars, out=out[lo : lo + step])
        return out.reshape(u.shape)

    def flips(self, rng, shape, where=None, history=None) -> np.ndarray:
        """Boolean flips of a batch of receptions: ``rng.random(shape)`` against
        eps0, or against the hook's probability for each reception, located
        chunk by chunk by ``where`` (``_hook_flips``), which iid noise never
        calls.

        Under iid noise the uniforms pass through a bounded buffer
        (``_uniforms_below``): the same stream and flips as one draw."""
        if self.adversary is None:
            return _uniforms_below(rng, shape, self.eps0)
        u = rng.random(shape)
        return self._hook_flips(u, u.shape, where, history)

    def majority_flips(self, rng, shape, where=None, history=None) -> np.ndarray:
        """Whether each row of a batch of repeated receptions, shape (..., reps),
        majority-decodes wrong: one bool per row, True iff more than reps // 2
        of its copies flip.  One uniform per row, in C order, against the
        row's ``majority_tail``: at eps0 (cached per reps) under iid noise,
        else over the hook's probabilities for the row's copies, located by
        ``where`` as in ``flips``."""
        rows, reps = tuple(shape[:-1]), shape[-1]
        if self.adversary is None:
            return _uniforms_below(rng, rows, _iid_tail(self.eps0, reps))
        return self._hook_flips(rng.random(rows), shape, where, history, reps)


def distances(positions: np.ndarray, rows, cols) -> np.ndarray:
    """Euclidean distances from each node of rows (axis 0) to each of cols (axis 1).

    dx * dx + dy * dy rounds exactly as the dot product of each difference
    vector with itself, so exact comparisons with the guard radius hold.
    """
    a, b = positions[np.asarray(rows, dtype=np.int64)], positions[np.asarray(cols, dtype=np.int64)]
    dx = a[:, 0, None] - b[:, 0]
    dy = a[:, 1, None] - b[:, 1]
    return np.sqrt(dx * dx + dy * dy)


def resolve_slot(
    slot,
    txs,
    bits,
    listeners,
    positions: np.ndarray,
    params: DerivedParams,
    noise: NoiseModel,
    rng: np.random.Generator,
    history: object = None,
    listen_slots=None,
) -> np.ndarray:
    """Resolve simultaneous transmissions at each listener, in one slot or several.

    Transmitter txs[i] sends bits[i] (or one bit for all) in ``slot``; the
    result holds one kind code per listener, in listener order: SILENT,
    COLLIDED, or RECEIVED + the bit heard.  A listener receives iff exactly
    one transmitter is within the radius and every other transmitter is at
    least (1 + delta) * radius away; it hears a collision iff someone was in
    range but another transmitter sat inside the guard ring.  Transmitters in
    the ambiguous band (radius, (1+delta)*radius) never deliver but do
    collide.  The k delivering listeners' noise is one ``noise.flips`` batch
    of k receptions, in listener order; silent and colliding listeners draw
    nothing.

    Several slots go in one call as one slot per transmitter, ``slot[i]``,
    and one per listener, ``listen_slots[j]``: each listener then hears only
    the transmitters of its own slot.  The result equals one single-slot call
    per distinct slot in ascending order, put back in listener order (noise
    batches included); the hook sees each reception's own slot.  A listener
    is paired with every transmitter of its own slot, so a call costs the sum
    over slots of listeners x transmitters.
    """
    txs = np.asarray(txs, dtype=np.int64)
    listeners = np.asarray(listeners, dtype=np.int64)
    bits = np.asarray(bits, dtype=np.int64)
    if np.ndim(slot) == 0 and listen_slots is None:
        slot, listen_slots = np.full(txs.size, slot), np.full(listeners.size, slot)
    slot, listen_slots = np.asarray(slot), np.asarray(listen_slots)
    if slot.shape != txs.shape or listen_slots.shape != listeners.shape:
        raise ValueError(
            f"resolve_slot takes one slot, or one slot per transmitter and one per "
            f"listener; got slots of shape {slot.shape} and {listen_slots.shape} for "
            f"{txs.size} transmitters and {listeners.size} listeners"
        )
    if not (txs.size and listeners.size):
        return np.full(listeners.size, SILENT, dtype=np.int64)
    guard = (1.0 + params.delta) * params.radius
    # Pair each listener with every transmitter of its own slot, in transmitter order.
    by_slot = np.argsort(slot, kind="stable")
    runs = slot[by_slot]
    lo = np.searchsorted(runs, listen_slots, "left")
    counts = np.searchsorted(runs, listen_slots, "right") - lo
    rows = np.repeat(np.arange(listeners.size), counts)
    cols = by_slot[np.arange(rows.size) + np.repeat(lo - (counts.cumsum() - counts), counts)]
    dx, dy = (positions.take(listeners[rows], axis=0) - positions.take(txs[cols], axis=0)).T
    dist = np.sqrt(dx * dx + dy * dy)  # as ``distances`` rounds
    in_range = dist <= params.radius
    heard = np.bincount(rows[in_range], minlength=listeners.size)
    delivers = (heard == 1) & (np.bincount(rows[dist < guard], minlength=listeners.size) <= 1)
    hit = np.flatnonzero(in_range & delivers[rows])  # one in-range tx per delivering listener
    hit = hit[np.argsort(listen_slots[rows[hit]], kind="stable")]  # slot by slot
    receivers, senders = rows[hit], cols[hit]
    got = bits[senders] if bits.ndim else np.full(senders.size, bits)
    where = lambda at: (listen_slots[receivers[at]], txs[senders[at]], listeners[receivers[at]])
    got ^= noise.flips(rng, senders.size, where=where, history=history)
    kinds = np.minimum(heard, COLLIDED).astype(np.int64)
    kinds[receivers] = RECEIVED + got
    return kinds


@dataclass(frozen=True)
class ScheduleClass:
    """Cells that may run their intra-cell scripts simultaneously."""

    color: int
    cells: tuple[int, ...]


def color_cells(grid: CellGrid, params: DerivedParams) -> list[ScheduleClass]:
    """Tile the grid with a reuse-distance coloring for intra-cell phases.

    Cells share a color iff their (row, col) agree modulo the reuse distance
    D = 2 * ceil((1 + delta) * radius / cell_side) + 1, yielding at most
    D^2 = interference_bound + 1 colors.  Same-color cells are at least D
    apart in grid Chebyshev distance, so any point of one is farther than
    (1 + delta) * radius from any point of another: simultaneous intra-cell
    transmissions cannot collide at any same-color cell's listeners.

    The coloring depends only on the cell count, grid_dim and D, so it is
    built once per process for each (``_cell_colors`` states the rule); every
    call gets a fresh list of the shared (frozen) classes.
    """
    return list(_coloring(len(grid), grid.grid_dim, params.reuse_distance))


def _cell_colors(count: int, grid_dim: int, d: int) -> np.ndarray:
    """Each cell's color by cell number: (row mod d) * d + col mod d for the
    cells 1..count of a grid grid_dim wide; index 0, no cell, reads -1.

    Built afresh on each call and never cached: only hooks and audits read
    it, and one more array kept alive between iid trials shifted the heap
    enough to slow a 128k-node histogram trial by about 8% (2-vCPU host)."""
    rows, cols = np.divmod(np.arange(count), grid_dim)
    return np.append(-1, (rows % d) * d + cols % d)


@lru_cache(maxsize=16)
def _coloring(count: int, grid_dim: int, d: int) -> tuple[ScheduleClass, ...]:
    colors = _cell_colors(count, grid_dim, d)[1:]
    order = np.argsort(colors, kind="stable")  # cells ascending inside a color
    palette, starts = np.unique(colors[order], return_index=True)
    return tuple(
        ScheduleClass(color=color, cells=tuple(cells.tolist()))
        for color, cells in zip(palette.tolist(), np.split(order + 1, starts[1:]))
    )


def _classes_end_to_end(coloring: list[ScheduleClass]):
    """The classes' cells end to end, class k's at cells[bounds[k]:bounds[k + 1]]."""
    counts = [len(cls.cells) for cls in coloring]
    cells = np.fromiter(chain.from_iterable(cls.cells for cls in coloring), np.int64, sum(counts))
    return cells, np.concatenate([[0], np.cumsum(counts, dtype=np.int64)])


@dataclass(frozen=True)
class EnergyConfig:
    e_t: float = 1.0
    e_r: float = 0.1


@dataclass
class Metrics:
    """Slot, transmission, and reception counters with exact energy identities.

    em2 = e_t * tx_count counts transmit energy only; em1 adds e_r per
    reception.  Both are computed from the integer counters, so the
    identities hold exactly after every slot.
    """

    energy: EnergyConfig = field(default_factory=EnergyConfig)
    slots_stage1: int = 0
    slots_stage2: int = 0
    slots_distribute: int = 0
    tx_stage1: int = 0
    tx_stage2: int = 0
    tx_distribute: int = 0
    rx_stage1: int = 0
    rx_stage2: int = 0
    rx_distribute: int = 0

    STAGES = ("stage1", "stage2", "distribute")

    def add(self, stage: str, tx: int = 0, rx: int = 0, slots: int = 0) -> None:
        if stage not in self.STAGES:
            raise ValueError(f"unknown stage {stage!r}")
        setattr(self, f"tx_{stage}", getattr(self, f"tx_{stage}") + tx)
        setattr(self, f"rx_{stage}", getattr(self, f"rx_{stage}") + rx)
        setattr(self, f"slots_{stage}", getattr(self, f"slots_{stage}") + slots)

    @property
    def tx_count(self) -> int:
        return self.tx_stage1 + self.tx_stage2 + self.tx_distribute

    @property
    def rx_count(self) -> int:
        return self.rx_stage1 + self.rx_stage2 + self.rx_distribute

    @property
    def slots_total(self) -> int:
        return self.slots_stage1 + self.slots_stage2 + self.slots_distribute

    @property
    def em2(self) -> float:
        return self.energy.e_t * self.tx_count

    @property
    def em1(self) -> float:
        return self.energy.e_t * self.tx_count + self.energy.e_r * self.rx_count

    @property
    def em1_stage1(self) -> float:
        return self.energy.e_t * self.tx_stage1 + self.energy.e_r * self.rx_stage1

    def snapshot(self) -> dict:
        return {
            "slots_total": self.slots_total,
            "slots_stage1": self.slots_stage1,
            "slots_stage2": self.slots_stage2,
            "slots_distribute": self.slots_distribute,
            "tx_count": self.tx_count,
            "tx_stage1": self.tx_stage1,
            "tx_stage2": self.tx_stage2,
            "tx_distribute": self.tx_distribute,
            "rx_count": self.rx_count,
            "rx_stage1": self.rx_stage1,
            "rx_stage2": self.rx_stage2,
            "rx_distribute": self.rx_distribute,
            "em1": self.em1,
            "em2": self.em2,
            "em1_stage1": self.em1_stage1,
        }


@dataclass(frozen=True)
class TraceRecord:
    """One stage-1 phase's transmissions, run-length coded: txs[i] sends in
    the ``copies`` consecutive slots from first[i]."""

    phase: str
    txs: np.ndarray
    first: np.ndarray
    copies: int


@dataclass
class Trace:
    """Schedule capture for the obliviousness / interference audit: one
    stage-1 record per phase, in draw order; each stage-2 stage's arrays."""

    stage1: list[TraceRecord] = field(default_factory=list)
    stage2_stages: list[list[tuple[int, ...]]] = field(default_factory=list)


@dataclass
class Channel:
    """Per-trial execution context: world, noise, RNG stream, and metrics.

    Single-threaded within a trial.  The noise stream is consumed in a fixed
    order, which makes runs bit-for-bit reproducible from the seed: stage 1
    phase by phase (discovery, identity, confirmation for MAX; counting for
    the histogram), each phase over every color class in coloring order, then
    cell and member; then stage 2 stage by stage in plan order.  Every
    majority-decoded repetition draws one uniform per decoded bit
    (``majority_mask``), the identity phase from each member's sufficient
    statistics under iid noise (``code_errors``), every other reception one
    uniform per reception (``flip_mask``).  That order is RNG layout 6
    (``harness.RNG_LAYOUT``), which reports declare.  A stage-1 phase is one
    draw for all its cells, and a repetition sub-stage of stage 2 (or of the
    distribution relay) is one draw for all its arrays, so an adversary's
    hook sees the channel -- metrics, RNG state -- as it was when its
    phase's or sub-stage's draw began.  A stage-1 phase charges its metrics,
    and traces its one record, once, after its draws.
    """

    instance: object
    params: DerivedParams
    noise: NoiseModel
    rng: np.random.Generator
    metrics: Metrics = field(default_factory=Metrics)
    trace: Trace | None = None

    def flip_mask(self, shape, where=None) -> np.ndarray:
        """The noise model's flips for a batch of receptions located by
        ``where`` (``NoiseModel.flips``), drawn from this channel's stream; an
        adversary's hook gets the channel as history."""
        return self.noise.flips(self.rng, shape, where, history=self)

    def majority_mask(self, shape, where=None) -> np.ndarray:
        """The noise model's majority errors for a (..., reps) batch of
        repeated receptions, one per row (``NoiseModel.majority_flips``),
        drawn from this channel's stream; a hook gets the channel as history."""
        return self.noise.majority_flips(self.rng, shape, where, history=self)

    def code_errors(self, code, rows: int, pairs, where=None):
        """The error patterns of the rows of a block-code batch that the
        distance shortcuts leave open: returns (rows, masks), the rows
        ascending and their (rows, block_len) flips.

        Row i receives the codeword of its sent message, one reception per
        codeword bit, and asks whether it decodes to its heard message
        (``BlockCode.decode_equals``); ``pairs(at)`` gives the rows at's sent
        and heard messages.  Every row not returned decodes as
        ``BlockCode.settle`` says, to its heard message iff that is the one
        sent.  Under iid noise every row draws one uniform, and only the rows
        it leaves open draw more (``_iid_code_errors``), so ``pairs`` is
        asked only about those, and ``where`` never.  Under a hook the batch
        is one ``flip_mask`` draw of one flip per reception, ``where(at)``
        locating the block_len receptions of each row of a chunk at;
        ``pairs`` is asked once about every row (int32), and
        ``BlockCode.settle`` derives W, J and the open rows from the flips."""
        if self.noise.adversary is None:
            return _iid_code_errors(self.rng, self.noise.eps0, code, rows, pairs)
        flips = self.flip_mask((rows, code.block_len), where=where)
        sent, heard = pairs(np.arange(rows, dtype=np.int32))
        at = code.settle(sent, flips, heard)[1]
        return at, flips[at]

    def record(self, phase: str, txs, first, copies: int) -> None:
        """Trace a stage-1 phase, or one cell's part of it: txs[i] sends
        ``copies`` slots from first[i], or from one first slot for all; a
        no-op untraced.

        The runners pass the arrays they build their slots from, so the trace
        holds what ran at one row per transmitter, not one per copy.
        """
        if self.trace is not None:
            txs = np.asarray(txs, dtype=np.int64)
            first = np.broadcast_to(np.asarray(first, dtype=np.int64), txs.shape)
            self.trace.stage1.append(TraceRecord(phase, txs, first, int(copies)))

    def noisy_copies(self, bit: int, count: int, tx: int, rx: int, slot0: int) -> np.ndarray:
        """The bit as seen by one receiver over ``count`` repeated slots, copy by
        copy; a majority decode of them draws as ``majority_mask`` instead."""
        mask = self.flip_mask((count,), where=lambda at: (slot0 + at, tx, rx))
        return (int(bit) ^ mask.astype(np.int8)).astype(np.int8)
