"""Shared fixtures: hand-built worlds with known layouts."""

import numpy as np
import pytest

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
    instance = NetworkInstance(n=n, seed=0, positions=positions, bits=np.zeros(n, dtype=np.int8))
    grid = CellGrid(
        members=np.arange(n),
        offsets=np.arange(n + 1),
        centers=np.arange(n),
        grid_dim=m,
        n=n,
        sink_cell=sink_cell,
        sink_node=sink_cell - 1,
    )
    params = DerivedParams(
        n=n,
        delta=delta,
        grid_dim=m,
        cell_side=1.0 / m,
        cell_count=n,
        radius=1.3 / m,
        interference_bound=8,
        link_slot_span=36,
    )
    return instance, grid, params


@pytest.fixture
def world3():
    """3 x 3 one-node-per-cell world with the sink at the central cell (5)."""
    return make_hand_world(3)
