"""Random planar network geometry: node placement, tessellation, spanning tree.

The unit square is tessellated into a grid of square cells sized so that,
for uniformly placed nodes, every cell holds Theta(log n) nodes and all
nodes of a cell are within one hop of each other.  A spanning tree over
the cells (rows toward the sink column, then the sink column toward the
sink row) gives the inter-cell routing structure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "NetworkInstance",
    "DerivedParams",
    "Cell",
    "CellGrid",
    "SpanningTree",
    "ProtocolInfeasibleError",
    "place_nodes",
    "derive_params",
    "assign_cells",
    "build_tree",
]

# Tessellation constants: cell area ~ 2.75 ln(n)/n and radius^2 = 13.75 ln(n)/n,
# which force cell_side <= radius/sqrt(5) so adjacent cell centers are one hop apart.
CELL_DENSITY = 2.75
RADIUS_DENSITY = 13.75


class ProtocolInfeasibleError(Exception):
    """Raised when a sampled network cannot support the protocol (empty cell)."""


@dataclass(frozen=True)
class NetworkInstance:
    """A sampled world: node positions in the unit square plus their data bits.

    Node ids are 0..n-1, n the number of positions.  ``positions[i]`` is
    node i's (x, y); ``bits[i]`` is its one-bit datum.  Identical (n, seed)
    always reproduces identical positions; bits are filled separately by the
    harness (all-zero default).
    """

    seed: int
    positions: np.ndarray
    bits: np.ndarray

    @property
    def n(self) -> int:
        return len(self.positions)

    def with_bits(self, bits: np.ndarray) -> "NetworkInstance":
        bits = np.asarray(bits)
        if bits.shape != (self.n,):
            raise ValueError(f"bits must have shape ({self.n},), got {bits.shape}")
        if not ((bits == 0) | (bits == 1)).all():  # before the cast, which would wrap or truncate
            raise ValueError("bits must be 0/1 valued")
        return NetworkInstance(self.seed, self.positions, bits.astype(np.int8, copy=False))


@dataclass(frozen=True)
class DerivedParams:
    """All tessellation and interference constants derived from (n, delta).

    grid_dim      cells per side, ceil(sqrt(n / (2.75 ln n)))
    radius        transmission radius, sqrt(13.75 ln n / n)
    interference_bound   max number of cells whose transmissions can reach
                         into a given cell's neighborhood (guard factor delta)

    The cell side, the link slot span and the reuse distance follow from these.
    """

    n: int
    delta: float
    grid_dim: int
    radius: float
    interference_bound: int

    @property
    def cell_side(self) -> float:
        return 1.0 / self.grid_dim

    @property
    def link_slot_span(self) -> int:
        """Physical slots per logical inter-cell slot, 4 * (interference_bound + 1)."""
        return 4 * (self.interference_bound + 1)

    @property
    def reuse_distance(self) -> int:
        """Grid spacing between cells that may transmit simultaneously."""
        return 2 * math.ceil((1.0 + self.delta) * self.radius / self.cell_side) + 1


@dataclass(frozen=True, eq=False)
class Cell:
    """A view of one tessellation cell: 1-based row-major index, members, center.

    Row 0 is the top strip (largest y).  ``members`` is an ascending slice of
    the grid's member array; ``center`` is -1 only for an empty cell of a
    hand-built grid.
    """

    index: int
    row: int
    col: int
    members: np.ndarray
    center: int

    @property
    def size(self) -> int:
        return len(self.members)


@dataclass(frozen=True, eq=False)
class CellGrid:
    """Cell membership as CSR arrays (row-major cells, index 1..count) plus the sink.

    members   node ids in (cell, id) order, n of them
    offsets   count + 1 entries: cell j holds members[offsets[j - 1]:offsets[j]]
    centers   each cell's center, the first member except in the sink cell,
              whose center is the sink node; -1 only for an empty hand-built cell
    """

    members: np.ndarray
    offsets: np.ndarray
    centers: np.ndarray
    grid_dim: int
    sink_cell: int

    def __post_init__(self):  # read-only, since cell views hand out slices of these
        for array in (self.members, self.offsets, self.centers):
            array.flags.writeable = False

    def __len__(self) -> int:
        return len(self.centers)

    @property
    def n(self) -> int:
        return len(self.members)

    @property
    def sink_node(self) -> int:
        return int(self.centers[self.sink_cell - 1])

    def __iter__(self):
        return map(self.cell, range(1, len(self) + 1))

    def cell(self, index: int) -> Cell:
        """A view of the cell with this 1-based row-major index."""
        row, col = divmod(index - 1, self.grid_dim)
        members = self.members[self.offsets[index - 1] : self.offsets[index]]
        return Cell(index, row, col, members, int(self.centers[index - 1]))

    def occupancies(self) -> np.ndarray:
        return np.diff(self.offsets)

    def gather(self, cells) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The given cells' members end to end, their sizes and their centers."""
        rows = np.asarray(cells, dtype=np.int64) - 1
        members, sizes = _gather_csr(self.members, self.offsets, rows)
        return members, sizes, self.centers[rows]


def _gather_csr(members: np.ndarray, offsets: np.ndarray, rows: np.ndarray):
    """The members of the CSR rows (0-based cells) end to end, and the rows' sizes."""
    starts = offsets[rows]
    sizes = offsets[rows + 1] - starts
    shift = np.repeat(starts - (np.cumsum(sizes) - sizes), sizes)
    return members[np.arange(sizes.sum()) + shift], sizes


@dataclass(frozen=True)
class SpanningTree:
    """Spanning tree of cells rooted at the sink cell, as a rule of the grid.

    Edges run within rows toward the sink's column, then within the sink's
    column toward the sink's row; every edge joins grid-adjacent cells.  A
    cell's parent, depth and degree follow from its row and column and the
    sink's, and ``chains`` lists the routing as stage 2 runs it.
    """

    sink_cell: int
    grid_dim: int

    def _coords(self, index: int) -> tuple[int, int, int, int]:
        """The cell's row and column, then the sink's."""
        return *divmod(index - 1, self.grid_dim), *divmod(self.sink_cell - 1, self.grid_dim)

    def parent(self, index: int) -> int | None:
        """The neighbor one step toward the sink's column, or on that column one
        step toward the sink's row; None at the sink."""
        row, col, sink_row, sink_col = self._coords(index)
        if col != sink_col:
            return index + (1 if col < sink_col else -1)
        if row != sink_row:
            return index + (self.grid_dim if row < sink_row else -self.grid_dim)
        return None

    def depth(self, index: int) -> int:
        """Hops to the sink: the Manhattan distance to the sink cell."""
        row, col, sink_row, sink_col = self._coords(index)
        return abs(row - sink_row) + abs(col - sink_col)

    def degree(self, index: int) -> int:
        """Tree edges at the cell: its parent link and one per row neighbor
        flowing into it (and, on the sink's column, per column neighbor)."""
        row, col, sink_row, sink_col = self._coords(index)
        last = self.grid_dim - 1
        children = (0 < col <= sink_col) + (sink_col <= col < last)
        if col == sink_col:
            children += (0 < row <= sink_row) + (sink_row <= row < last)
        return children + (index != self.sink_cell)

    @property
    def max_depth(self) -> int:
        m = self.grid_dim
        return max(map(self.depth, (1, m, m * m - m + 1, m * m)))  # the farthest corner

    @property
    def max_degree(self) -> int:
        return max(map(self.degree, range(1, self.grid_dim**2 + 1)))

    def path_to_sink(self, index: int) -> list[int]:
        """Cell indices from ``index`` to the sink, inclusive."""
        path = [index]
        while path[-1] != self.sink_cell:
            path.append(self.parent(path[-1]))
        return path

    @property
    def chains(self) -> tuple[list[range], list[range]]:
        """The routing as chains of cell indices, outer cell first, that hold
        each link once: every row's two halves toward the sink's column, row
        by row, then the sink column's two halves toward the sink."""
        m, sink = self.grid_dim, self.sink_cell
        col = (sink - 1) % m
        rows = [
            half
            for s in range(1, m * m, m)  # each row's first cell
            for half in (range(s, s + col + 1), range(s + m - 1, s + col - 1, -1))
        ]
        column = [range(col + 1, sink + 1, m), range(m * m - m + col + 1, sink - 1, -m)]
        return [h for h in rows if len(h) > 1], [h for h in column if len(h) > 1]


def place_nodes(n: int, seed: int) -> NetworkInstance:
    """Sample n node positions i.i.d. uniform on the unit square.

    Deterministic in (n, seed).  Bits default to all-zero; the experiment
    harness fills them from its configured source.
    """
    if n < 1:
        raise ValueError(f"need at least one node, got n={n}")
    rng = np.random.default_rng(seed)
    positions = rng.random((n, 2))
    bits = np.zeros(n, dtype=np.int8)
    return NetworkInstance(seed=seed, positions=positions, bits=bits)


def derive_params(n: int, delta: float) -> DerivedParams:
    """Derive tessellation and interference constants for an n-node network."""
    if n < 3:
        raise ValueError(f"constants need ln(n) > 1, got n={n}")
    if delta < 0:
        raise ValueError(f"interference guard factor must be >= 0, got {delta}")
    log_n = math.log(n)
    grid_dim = math.ceil(math.sqrt(n / (CELL_DENSITY * log_n)))
    radius = math.sqrt(RADIUS_DENSITY * log_n / n)
    # interference_bound counts the cells inside a D x D block around a
    # receiver, minus its own, D = reuse_distance: the block's (D - 1) / 2
    # cells to either side cover (1 + delta) * radius.
    block = DerivedParams(n, delta, grid_dim, radius, interference_bound=0).reuse_distance
    return DerivedParams(n, delta, grid_dim, radius, interference_bound=block**2 - 1)


def _cell_index(positions: np.ndarray, grid_dim: int) -> np.ndarray:
    """Each point's 0-based cell, row * grid_dim + col: half-open cells, the
    last row and column closed.

    Columns grow with x; rows count from the top (row 0 holds the largest y).
    A point exactly on an interior boundary belongs to the higher-coordinate
    band, so membership is a partition of the square.  With the bands
    (col, band) = min(floor(m * (x, y)), m - 1) the index is col - m * band
    + m * (m - 1), one product of the (n, 2) bands by (1, -m), exact in
    float64.  A point outside the square gets an index that may name another
    cell, or none; callers that meet such points mask them.
    """
    m = grid_dim
    bands = np.multiply(positions, m)
    np.floor(bands, out=bands)
    np.minimum(bands, m - 1, out=bands)
    flat = bands @ np.array([1.0, -m])
    del bands  # an (n, 2) array fewer at the int64 cast
    flat += m * (m - 1)
    return flat.astype(np.int64)


def _grid_coords(positions: np.ndarray, grid_dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Each point's (row, col), as ``_cell_index`` cuts the cells."""
    return np.divmod(_cell_index(positions, grid_dim), grid_dim)


def _stable_argsort(keys: np.ndarray, top: int) -> np.ndarray:
    """``np.argsort(keys, kind="stable")`` for integer keys in 0..top < 2^32.

    numpy sorts 8- and 16-bit keys stably by radix sort and wider ones by
    timsort, so keys past 16 bits sort as two stable 16-bit passes, least
    significant half first.
    """
    if top <= 0xFFFF:
        return np.argsort(keys.astype(np.min_scalar_type(top)), kind="stable")
    high = (keys >> 16).astype(np.uint16)
    order = np.argsort(keys.astype(np.uint16), kind="stable")  # the low half
    return order[np.argsort(high[order], kind="stable")]


def assign_cells(instance: NetworkInstance, params: DerivedParams) -> CellGrid:
    """Partition nodes into cells and pick each cell's center.

    One stable sort of the cells' flat indices (``_cell_index``) lists the
    members, ids ascending inside each cell.  Centers are the minimum node id
    per cell, except the sink cell whose center is the sink node (the node
    nearest (0.5, 0.5), ties to the lower id).  Raises ProtocolInfeasibleError
    naming the first empty cell, since the protocols require every cell
    occupied.

    The sink is searched only among the members of the 5 x 5 block of cells,
    clipped to the grid, centred on the cell c0 that holds (0.5, 0.5).  c0 is
    occupied and each of its members lies within sqrt(2) cell sides of the
    point, while a node three or more rows or columns from c0 lies more than
    two sides from it; so the nearest node is in the block, with a factor of
    sqrt(2) to spare over rounding.  A 3 x 3 block would not do: the sink can
    lie two columns from c0.  The candidates are taken in id order and get
    the same squared distances a scan of every node computes, so ties still
    go to the lower id.
    """
    if params.n != instance.n:
        raise ValueError("params were derived for a different n")
    m = params.grid_dim
    flat = _cell_index(instance.positions, m)

    # Up to 65,536 cells (n <= 2,666,654, about 2^21.3) the keys fit 16 bits
    # and the stable sort is one radix sort; more cells take two.
    order = _stable_argsort(flat, m * m - 1)
    offsets = np.concatenate([[0], np.cumsum(np.bincount(flat, minlength=m * m))])
    empty = np.flatnonzero(offsets[:-1] == offsets[1:])
    if empty.size:
        raise ProtocolInfeasibleError(
            f"cell {empty[0] + 1} of {m * m} is empty (n={instance.n}, seed={instance.seed}); "
            f"the protocol requires every cell occupied"
        )

    row0, col0 = divmod(int(_cell_index(np.array([[0.5, 0.5]]), m)[0]), m)
    block = np.add.outer(
        np.arange(max(row0 - 2, 0), min(row0 + 3, m)) * m,
        np.arange(max(col0 - 2, 0), min(col0 + 3, m)),
    )
    candidates = np.sort(_gather_csr(order, offsets, block.ravel())[0])
    away = instance.positions[candidates] - 0.5
    sink_node = int(candidates[np.argmin(np.einsum("ij,ij->i", away, away))])
    sink_flat = int(flat[sink_node])

    centers = order[offsets[:-1]]
    centers[sink_flat] = sink_node
    return CellGrid(order, offsets, centers, grid_dim=m, sink_cell=sink_flat + 1)


def build_tree(grid: CellGrid, params: DerivedParams | None = None) -> SpanningTree:
    """The spanning tree of cells rooted at the grid's sink cell.

    Within each row the parent is the horizontal neighbor one step toward
    the sink's column; within the sink's column it is the vertical neighbor
    one step toward the sink's row.  Depth is the resulting hop count
    (Manhattan distance to the sink cell).  No pass over the cells is made.
    """
    if params is not None and params.grid_dim != grid.grid_dim:
        raise ValueError("params grid size does not match the cell grid")
    return SpanningTree(sink_cell=grid.sink_cell, grid_dim=grid.grid_dim)
