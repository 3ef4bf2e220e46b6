"""Shared fixtures: hand-built worlds with known layouts, the stage-1 row oracle,
and the dense reception oracle."""

import numpy as np
import pytest

from noisyplanar.channel import COLLIDED, RECEIVED, Coloring, distances, resolve_slot
from noisyplanar.geometry import CellGrid, DerivedParams, NetworkInstance


def make_hand_world(m: int, sink_cell: int | None = None, delta: float = 0.5):
    """A deterministic m x m world with exactly one node per cell.

    Node id equals cell index - 1 (row-major); every node sits at its cell's
    geometric center, and the radius comfortably covers adjacent centers.
    """
    n = m * m
    positions = np.zeros((n, 2))
    for idx in range(1, n + 1):
        row, col = (idx - 1) // m, (idx - 1) % m
        x = (col + 0.5) / m
        y = ((m - 1 - row) + 0.5) / m
        positions[idx - 1] = (x, y)
    if sink_cell is None:
        sink_cell = (m // 2) * m + (m // 2) + 1
    instance = NetworkInstance(seed=0, positions=positions, bits=np.zeros(n, dtype=np.int8))
    grid = CellGrid(
        members=np.arange(n),
        offsets=np.arange(n + 1),
        centers=np.arange(n),
        grid_dim=m,
        sink_cell=sink_cell,
    )
    params = DerivedParams(
        n=n,
        delta=delta,
        grid_dim=m,
        radius=1.3 / m,
        interference_bound=8,
    )
    return instance, grid, params


def slot_keys(slots, txs) -> np.ndarray:
    """Sorted int64 keys ``(slot << 32) + tx`` of (slot, tx) rows: by slot, then tx.

    One sort of one key column orders the rows; node ids stay below 2**32.
    """
    return np.sort((np.asarray(slots, dtype=np.int64) << 32) + txs)


def stage1_keys(records, phases: tuple[str, ...]) -> np.ndarray:
    """The slot_keys of the given phases' (slot, tx) rows, one per transmission:
    each run-length record expanded to its copies consecutive slots per tx."""
    records = [r for r in records if r.phase in phases]
    return slot_keys(
        np.concatenate([np.ravel(r.first[:, None] + np.arange(r.copies)) for r in records]),
        np.concatenate([np.repeat(r.txs, r.copies) for r in records]),
    )


def merge_pairwise(coloring):
    """The coloring with consecutive classes merged pairwise, each pair under
    its first class's color: grid neighbours then share a class."""
    colors = coloring.colors.copy()
    listed = colors >= 0
    rank = np.searchsorted(coloring.palette, colors[listed])
    colors[listed] = coloring.palette[rank - rank % 2]
    return Coloring(colors)


def schedule_per_cell(grid, coloring, layout, config, protocol):
    """The per-cell schedule loop: the reference for stage1_schedule."""
    reps = config.c_rep if protocol == "max" else config.r2
    rows = []
    for cls, base, _, max_members in zip(coloring, *layout):
        id_slots = config.phase_slots(base, max_members)[1] + np.arange(config.block_len)
        for cell in map(grid.cell, cls.cells):
            rows.append((base + np.arange(cell.size * reps), np.repeat(cell.members, reps)))
            if protocol == "max":
                rows.append((id_slots, np.full(config.block_len, cell.center)))
    return slot_keys(*(np.concatenate(column) for column in zip(*rows)))


def dense_slot(slot, txs, bits, listeners, positions, params, noise, rng, history=None):
    """Single-slot reception over a dense listener x transmitter distance matrix
    across the whole square: the oracle for resolve_slot's pairing by slot."""
    txs = np.asarray(txs, dtype=np.int64)
    listeners = np.asarray(listeners, dtype=np.int64)
    bits = np.asarray(bits, dtype=np.int64)
    guard = (1.0 + params.delta) * params.radius
    dist = distances(positions, listeners, txs)
    ones = np.ones(txs.size)  # counts transmitters per listener as a matrix-vector product
    in_range = dist <= params.radius
    heard = in_range @ ones
    # With one transmitter in range (and delta >= 0), an interferer makes two in the guard disc.
    receivers = np.flatnonzero((heard == 1) & ((dist < guard) @ ones <= 1))
    senders = np.nonzero(in_range[receivers])[1]  # one in-range transmitter per row
    got = bits[senders] if bits.ndim else np.full(senders.size, bits)
    where = lambda at: (slot, txs[senders[at]], listeners[receivers[at]])
    got ^= noise.flips(rng, senders.size, where=where, history=history)
    kinds = np.minimum(heard, COLLIDED).astype(np.int64)
    kinds[receivers] = RECEIVED + got
    return kinds


def slot_by_slot(
    slots, txs, bits, listeners, listen_slots, *args, history=None, resolve=resolve_slot
):
    """One single-slot ``resolve`` call per distinct listening slot, in ascending
    order, put back in listener order: the reference for a several-slot call."""
    slots, txs, bits = np.asarray(slots), np.asarray(txs), np.asarray(bits)
    listeners, listen_slots = np.asarray(listeners), np.asarray(listen_slots)
    kinds = np.full(listeners.size, -1)
    for slot in np.unique(listen_slots).tolist():
        on, hears = slots == slot, listen_slots == slot
        kinds[hears] = resolve(
            slot, txs[on], bits[on] if bits.ndim else bits, listeners[hears], *args, history=history
        )
    return kinds


@pytest.fixture
def world3():
    """3 x 3 one-node-per-cell world with the sink at the central cell (5)."""
    return make_hand_world(3)
