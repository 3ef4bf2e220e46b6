"""Node placement, tessellation constants, cell assignment, spanning tree."""

import dataclasses
import math
from types import SimpleNamespace

import numpy as np
import pytest

from noisyplanar.geometry import (
    CellGrid,
    DerivedParams,
    NetworkInstance,
    ProtocolInfeasibleError,
    SpanningTree,
    _cell_index,
    _grid_coords,
    _stable_argsort,
    assign_cells,
    build_tree,
    derive_params,
    place_nodes,
)

from conftest import make_hand_world


class TestPlaceNodes:
    def test_single_point_in_unit_square(self):
        inst = place_nodes(1, seed=0)
        assert inst.positions.shape == (1, 2)
        assert (inst.positions >= 0).all() and (inst.positions <= 1).all()

    def test_rejects_nonpositive_n(self):
        with pytest.raises(ValueError):
            place_nodes(0, seed=0)

    def test_deterministic_in_seed(self):
        a = place_nodes(5000, seed=7)
        b = place_nodes(5000, seed=7)
        assert np.array_equal(a.positions, b.positions)
        assert not np.array_equal(a.positions, place_nodes(5000, seed=8).positions)

    def test_coordinate_means_near_half(self):
        # Law of large numbers against the uniform oracle: sd of the mean is
        # 1/sqrt(12 n) ~ 0.004, so 0.02 is a ~5 sigma band.
        inst = place_nodes(5000, seed=7)
        means = inst.positions.mean(axis=0)
        assert np.all(np.abs(means - 0.5) <= 0.02)

    def test_bits_default_zero_and_with_bits(self):
        inst = place_nodes(10, seed=1)
        assert inst.bits.sum() == 0
        new = inst.with_bits(np.ones(10, dtype=np.int8))
        assert new.bits.sum() == 10
        with pytest.raises(ValueError):
            inst.with_bits(np.ones(9, dtype=np.int8))

    @pytest.mark.parametrize(
        "bits",
        [np.array([0.7, 1.0, 0.0]), np.array([256, 1, 0]), [0, 1, 257]],
        ids=["fraction", "wraps-in-int8", "list-past-int8"],
    )
    def test_with_bits_refuses_values_other_than_0_and_1(self, bits):
        # The values are checked before the int8 cast, which would truncate
        # 0.7 to 0, wrap 256 to 0 and refuse 257 with an OverflowError.
        with pytest.raises(ValueError, match="^bits must be 0/1 valued$"):
            place_nodes(3, 1).with_bits(bits)

    @pytest.mark.parametrize(
        "bits",
        [np.array([True, False, True]), [1, 0, 1], np.array([1, 0, 1], dtype=np.uint64)],
        ids=["bool", "list", "uint64"],
    )
    def test_with_bits_stores_bool_and_integer_bits_as_int8(self, bits):
        new = place_nodes(3, 1).with_bits(bits)
        assert new.bits.dtype == np.int8
        assert new.bits.tolist() == [1, 0, 1]


class TestDeriveParams:
    def test_frozen_values_n5000(self):
        p = derive_params(5000, 0.5)
        assert p.grid_dim == 15
        assert p.cell_side == pytest.approx(1 / 15)
        assert p.radius == pytest.approx(math.sqrt(13.75 * math.log(5000) / 5000))
        assert p.radius == pytest.approx(0.153044, abs=1e-6)
        assert p.interference_bound == 80
        assert p.link_slot_span == 324
        assert p.reuse_distance == 9

    def test_frozen_values_n100(self):
        p = derive_params(100, 0.5)
        assert p.grid_dim == 3
        assert p.radius == pytest.approx(0.79574, abs=1e-5)

    @pytest.mark.parametrize("delta", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("n", [100, 316, 1000, 3162, 10_000, 31_623, 100_000])
    def test_invariants_across_sweep(self, n, delta):
        p = derive_params(n, delta)
        assert p.cell_side <= p.radius / math.sqrt(5) + 1e-12
        assert p.interference_bound >= 8
        assert p.link_slot_span == 4 * (p.interference_bound + 1)
        assert p.reuse_distance**2 <= p.interference_bound + 1

    def test_preconditions(self):
        with pytest.raises(ValueError):
            derive_params(2, 0.5)
        with pytest.raises(ValueError):
            derive_params(100, -0.1)


@pytest.mark.parametrize(
    "cls, names",
    [
        (NetworkInstance, ["seed", "positions", "bits"]),
        (DerivedParams, ["n", "delta", "grid_dim", "radius", "interference_bound"]),
        (CellGrid, ["members", "offsets", "centers", "grid_dim", "sink_cell"]),
    ],
    ids=["NetworkInstance", "DerivedParams", "CellGrid"],
)
def test_holds_only_what_it_cannot_derive(cls, names):
    # n, the cell side, the link slot span and the sink node follow from these.
    assert [f.name for f in dataclasses.fields(cls)] == names


def _world_with_positions(positions, m):
    """Instance + params wrapping explicit positions on an m x m grid."""
    positions = np.asarray(positions, dtype=float)
    n = len(positions)
    inst = NetworkInstance(seed=0, positions=positions, bits=np.zeros(n, dtype=np.int8))
    base = make_hand_world(m)[2]
    from dataclasses import replace

    return inst, replace(base, n=n)


class TestAssignCells:
    def test_origin_lands_in_bottom_left_cell(self):
        # One node per cell center, with node 0 pulled to the origin: row 2,
        # col 0 of a 3 x 3 grid is index 7 in 1-based row-major labeling.
        inst, grid, params = make_hand_world(3)
        positions = inst.positions.copy()
        positions[0] = (0.0, 0.0)
        # keep cell 1 (top-left) occupied by moving a spare node into it
        positions = np.vstack([positions, [(1 / 6, 5 / 6)]])
        inst2, params2 = _world_with_positions(positions, 3)
        grid2 = assign_cells(inst2, params2)
        assert 0 in grid2.cell(7).members
        assert grid2.cell(7).row == 2 and grid2.cell(7).col == 0

    def test_interior_boundary_is_half_open(self):
        # x exactly on the first interior boundary belongs to the right-hand
        # cell; 1/4 is exactly representable so the equality is literal.
        centers, _, _ = make_hand_world(4)
        positions = np.vstack([centers.positions, [(0.25, 0.875)]])
        inst, params = _world_with_positions(positions, 4)
        grid = assign_cells(inst, params)
        home = next(c for c in grid if 16 in c.members)
        assert home.col == 1

    def test_last_row_and_column_closed(self):
        inst0, _, _ = make_hand_world(3)
        positions = np.vstack([inst0.positions, [(1.0, 1.0)]])
        inst, params = _world_with_positions(positions, 3)
        grid = assign_cells(inst, params)
        home = next(c for c in grid if 9 in c.members)
        assert (home.row, home.col) == (0, 2)

    def test_n5000_occupancy_within_asymptotic_bounds(self):
        # 0.091 ln 5000 ~ 0.78 and 5.41 ln 5000 ~ 46.1; statistical, per seed.
        params = derive_params(5000, 0.5)
        grid = assign_cells(place_nodes(5000, seed=7), params)
        occ = grid.occupancies()
        assert len(grid) == 225
        assert occ.min() >= 1
        assert occ.max() <= 46

    def test_membership_is_partition_and_idempotent(self):
        params = derive_params(2000, 0.5)
        inst = place_nodes(2000, seed=3)
        grid = assign_cells(inst, params)
        ids = sorted(i for c in grid for i in c.members.tolist())
        assert ids == list(range(2000))
        again = assign_cells(inst, params)
        assert [c.members.tolist() for c in again] == [c.members.tolist() for c in grid]
        assert (again.sink_cell, again.sink_node) == (grid.sink_cell, grid.sink_node)

    def test_centers_are_min_ids_except_sink(self):
        params = derive_params(1000, 0.5)
        inst = place_nodes(1000, seed=5)
        grid = assign_cells(inst, params)
        offs = inst.positions - 0.5
        expected_sink = int(np.argmin((offs**2).sum(axis=1)))
        assert grid.sink_node == expected_sink
        for c in grid:
            if c.index == grid.sink_cell:
                assert c.center == expected_sink
            else:
                assert c.center == min(c.members)

    def test_empty_cell_raises_named_error(self):
        # All nodes crowded into one corner leaves most cells empty.
        positions = np.full((100, 2), 0.01)
        inst, params = _world_with_positions(positions, 3)
        with pytest.raises(ProtocolInfeasibleError, match="empty"):
            assign_cells(inst, params)

    @staticmethod
    def _assert_matches_int64_sort(inst, params):
        # The members and offsets of one stable argsort of int64 cell keys and
        # a searchsorted over them, whatever narrower keys assign_cells sorts.
        m = params.grid_dim
        rows, cols = _grid_coords(inst.positions, m)
        flat = rows * m + cols
        order = np.argsort(flat, kind="stable")
        offsets = np.searchsorted(flat[order], np.arange(m * m + 1))
        grid = assign_cells(inst, params)
        np.testing.assert_array_equal(grid.members, order)
        np.testing.assert_array_equal(grid.offsets, offsets)
        assert grid.offsets.dtype == offsets.dtype
        centers = order[offsets[:-1]]
        centers[grid.sink_cell - 1] = grid.sink_node
        np.testing.assert_array_equal(grid.centers, centers)

    @pytest.mark.parametrize("n, seed", [(100, 0), (2000, 3), (70_000, 1)])
    def test_sampled_worlds_match_int64_stable_sort(self, n, seed):
        self._assert_matches_int64_sort(place_nodes(n, seed=seed), derive_params(n, 0.5))

    def test_wide_grid_matches_int64_stable_sort(self):
        # 300 x 300 cells need keys past 16 bits, so the sort takes two 16-bit
        # passes there; one node per cell center plus random extras in any order.
        m = 300
        centers, _, _ = make_hand_world(m)
        extras = np.random.default_rng(4).random((5000, 2))
        positions = np.vstack([extras[:2500], centers.positions, extras[2500:]])
        inst, params = _world_with_positions(positions, m)
        assert np.min_scalar_type(params.grid_dim**2 - 1) != np.uint16
        self._assert_matches_int64_sort(inst, params)

    def test_cell_views_are_read_only(self):
        grid = assign_cells(place_nodes(2000, seed=3), derive_params(2000, 0.5))
        with pytest.raises(ValueError, match="read-only"):
            grid.cell(1).members[0] = 5
        with pytest.raises(ValueError, match="read-only"):
            grid.centers[0] = 5

    def test_empty_cell_error_names_the_first_empty_cell(self):
        crowded, params = _world_with_positions(np.full((100, 2), 0.01), 3)
        with pytest.raises(ProtocolInfeasibleError, match=r"^cell 1 of 9 is empty "):
            assign_cells(crowded, params)
        # Cell 5's only node moved into cell 1, and cell 8's into cell 9.
        inst, _, _ = make_hand_world(3)
        positions = inst.positions.copy()
        positions[4], positions[7] = positions[0], positions[8]
        holed, params = _world_with_positions(positions, 3)
        with pytest.raises(ProtocolInfeasibleError, match=r"^cell 5 of 9 is empty "):
            assign_cells(holed, params)


def rows_times_m_plus_cols(positions, m):
    """The cell index as the two-column rule computed it: row * m + col."""
    cols = np.minimum(np.floor(positions[:, 0] * m).astype(np.int64), m - 1)
    bands = np.minimum(np.floor(positions[:, 1] * m).astype(np.int64), m - 1)
    return (m - 1 - bands) * m + cols


class TestCellIndex:
    @pytest.mark.parametrize("m", [1, 3, 7, 64, 300])
    def test_boundaries_and_corners_match_rows_times_m_plus_cols(self, m):
        # Every interior boundary k/m, as float64 rounds it, and the values
        # next to it; 0, 1 and the float just below 1.
        edges = np.arange(1, m) / m
        coords = np.concatenate(
            [edges, np.nextafter(edges, 0), np.nextafter(edges, 1), [0.0, 1.0, np.nextafter(1, 0)]]
        )
        x, y = np.meshgrid(coords, coords)
        positions = np.column_stack([x.ravel(), y.ravel()])
        np.testing.assert_array_equal(
            _cell_index(positions, m), rows_times_m_plus_cols(positions, m)
        )

    @pytest.mark.parametrize("m", [3, 64, 300])
    def test_points_outside_the_square_match_rows_times_m_plus_cols(self, m):
        coords = [-2.5, -1.0, -0.3, -1e-12, 0.5, 1.0 + 1e-12, 1.7, 4.0]
        x, y = np.meshgrid(coords, coords)
        positions = np.column_stack([x.ravel(), y.ravel()])
        np.testing.assert_array_equal(
            _cell_index(positions, m), rows_times_m_plus_cols(positions, m)
        )

    @pytest.mark.parametrize("n, m, seed", [(20_000, 64, 1), (200_000, 300, 2)])
    def test_random_worlds_match_rows_times_m_plus_cols(self, n, m, seed):
        positions = place_nodes(n, seed=seed).positions
        np.testing.assert_array_equal(
            _cell_index(positions, m), rows_times_m_plus_cols(positions, m)
        )

    def test_grid_coords_split_the_index(self):
        positions = place_nodes(5000, seed=4).positions
        rows, cols = _grid_coords(positions, 64)
        np.testing.assert_array_equal(rows * 64 + cols, _cell_index(positions, 64))
        assert (0 <= cols).all() and (cols < 64).all()


class TestStableArgsort:
    @pytest.mark.parametrize("size", [1 << 17, 1 << 20])
    @pytest.mark.parametrize("bits", [20, 32])
    def test_wide_keys_sort_as_a_stable_argsort(self, size, bits):
        keys = np.random.default_rng(size + bits).integers(0, 1 << bits, size)
        top = (1 << bits) - 1
        np.testing.assert_array_equal(_stable_argsort(keys, top), np.argsort(keys, kind="stable"))

    def test_repeated_wide_keys_stay_in_id_order(self):
        # Few distinct keys spread over both halves, so the order inside each
        # run of equal keys is what decides.
        keys = np.random.default_rng(5).choice([3, 70_000, 70_003, 1 << 31], size=1 << 17)
        order = _stable_argsort(keys, (1 << 32) - 1)
        np.testing.assert_array_equal(order, np.argsort(keys, kind="stable"))


def assign_cells_per_cell(instance, params):
    """The per-cell assign_cells loop the CSR build replaced: the reference.

    Returns each cell's (members, center) and the sink's (cell, node).
    """
    m = params.grid_dim
    rows, cols = _grid_coords(instance.positions, m)
    flat = rows * m + cols

    offsets = instance.positions - 0.5
    sink_node = int(np.argmin(np.einsum("ij,ij->i", offsets, offsets)))
    sink_flat = int(flat[sink_node])

    order = np.argsort(flat, kind="stable")
    sorted_flat = flat[order]
    boundaries = np.searchsorted(sorted_flat, np.arange(m * m + 1))

    cells = []
    empty = []
    for f in range(m * m):
        members = tuple(int(i) for i in np.sort(order[boundaries[f] : boundaries[f + 1]]))
        if not members:
            empty.append(f + 1)
            center = None
        elif f == sink_flat:
            center = sink_node
        else:
            center = members[0]
        cells.append((members, center))

    if empty:
        raise ProtocolInfeasibleError(
            f"cell {empty[0]} of {m * m} is empty (n={instance.n}, seed={instance.seed}); "
            f"the protocol requires every cell occupied"
        )
    return cells, sink_flat + 1, sink_node


class TestCsrBuildAgainstPerCellLoop:
    @staticmethod
    def assert_matches(inst, params):
        grid = assign_cells(inst, params)
        cells, sink_cell, sink_node = assign_cells_per_cell(inst, params)
        assert grid.members.tolist() == [i for members, _ in cells for i in members]
        assert grid.offsets.tolist() == np.cumsum([0] + [len(m) for m, _ in cells]).tolist()
        assert grid.centers.tolist() == [center for _, center in cells]
        assert (grid.sink_cell, grid.sink_node) == (sink_cell, sink_node)

    @pytest.mark.parametrize(
        "n, seed", [(2000, 0), (2000, 3), (8000, 1), (8000, 13), (70000, 2), (70000, 5)]
    )
    def test_sampled_worlds(self, n, seed):
        self.assert_matches(place_nodes(n, seed), derive_params(n, 0.5))

    @pytest.mark.parametrize("m", [7, 8])
    def test_points_on_interior_boundaries(self, m):
        # Every lattice point k/m, ids shuffled so a cell's ids are not contiguous.
        k = np.arange(m + 1) / m
        lattice = np.stack(np.meshgrid(k, k), axis=-1).reshape(-1, 2)
        positions = lattice[np.random.default_rng(m).permutation(len(lattice))]
        inst, params = _world_with_positions(positions, m)
        self.assert_matches(inst, params)

    def test_same_error_on_an_empty_cell(self):
        inst, params = _world_with_positions(np.full((100, 2), 0.01), 3)
        with pytest.raises(ProtocolInfeasibleError) as want:
            assign_cells_per_cell(inst, params)
        with pytest.raises(ProtocolInfeasibleError) as got:
            assign_cells(inst, params)
        assert str(got.value) == str(want.value)


class TestSinkInTheCentreBlock:
    """assign_cells finds the sink among the 5 x 5 cells around (0.5, 0.5)."""

    @staticmethod
    def assert_sink_of_whole_scan(inst, params):
        grid = assign_cells(inst, params)
        assert (grid.sink_cell, grid.sink_node) == assign_cells_per_cell(inst, params)[1:]
        return grid

    def test_matches_the_whole_network_argmin_on_sampled_worlds(self):
        compared = 0
        for seed in range(220):
            n = round(50 * 160 ** (seed / 219))  # 50 ... 8,000, evenly in log n
            inst, params = place_nodes(n, seed), derive_params(n, 0.5)
            try:
                _, sink_cell, sink_node = assign_cells_per_cell(inst, params)
            except ProtocolInfeasibleError:
                with pytest.raises(ProtocolInfeasibleError):
                    assign_cells(inst, params)
                continue
            grid = assign_cells(inst, params)
            assert (grid.sink_cell, grid.sink_node) == (sink_cell, sink_node), (n, seed)
            compared += 1
        assert compared >= 200

    @pytest.mark.parametrize("seed", [1, 2])
    def test_matches_the_whole_network_argmin_at_131072_nodes(self, seed):
        self.assert_sink_of_whole_scan(place_nodes(131_072, seed), derive_params(131_072, 0.5))

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_block_clipped_to_small_grids(self, m):
        inst, params = _world_with_positions(np.random.default_rng(m).random((40 * m * m, 2)), m)
        self.assert_sink_of_whole_scan(inst, params)

    def test_a_tie_across_cells_goes_to_the_lowest_id(self):
        # On a 6 x 6 grid (0.5, 0.5) is the corner of four cells, c0 the upper
        # right one.  Nodes 36..39 sit exactly 1/16 from the point along each
        # axis, one per cell; the lowest id is in the cell the block lists last.
        centers, _, _ = make_hand_world(6)
        d = 1 / 16
        ties = [(0.5 + d, 0.5 - d), (0.5 - d, 0.5 - d), (0.5 - d, 0.5 + d), (0.5 + d, 0.5 + d)]
        inst, params = _world_with_positions(np.vstack([centers.positions, ties]), 6)
        away = inst.positions[36:] - 0.5
        assert len(set(np.einsum("ij,ij->i", away, away).tolist())) == 1
        grid = self.assert_sink_of_whole_scan(inst, params)
        assert (grid.sink_cell, grid.sink_node) == (3 * 6 + 3 + 1, 36)

    def test_the_sink_can_lie_two_columns_from_the_centre_cell(self):
        # One node per cell of a 6 x 6 grid, each in the corner of its cell
        # farthest from (0.5, 0.5) (c0, at row 2 and column 3, included), except
        # node 13, at row 2 and column 1, which sits in its nearest corner.  It
        # is 0.168 from the point, and every other node at least 0.224.
        m = 6
        row, col = np.divmod(np.arange(m * m), m)
        band = m - 1 - row
        x = (col + np.where(col >= m // 2, 0.95, 0.05)) / m
        y = (band + np.where(band >= m // 2, 0.95, 0.05)) / m
        positions = np.stack([x, y], axis=1)
        positions[2 * m + 1] = (1.99 / m, 3.01 / m)
        inst, params = _world_with_positions(positions, m)
        c0 = [int(c[0]) for c in _grid_coords(np.array([[0.5, 0.5]]), m)]
        assert c0 == [2, 3]
        grid = self.assert_sink_of_whole_scan(inst, params)
        sink = grid.cell(grid.sink_cell)
        assert (sink.row, sink.col, grid.sink_node) == (2, 1, 13)


class TestBuildTree:
    def test_3x3_fixture_parents_depth_degree(self, world3):
        _, grid, params = world3
        tree = build_tree(grid, params)
        parents = {j: tree.parent(j) for j in range(1, 10) if j != tree.sink_cell}
        assert parents == {1: 2, 3: 2, 4: 5, 6: 5, 7: 8, 9: 8, 2: 5, 8: 5}
        assert tree.parent(tree.sink_cell) is None
        assert tree.max_depth == 2
        assert tree.degree(5) == 4

    def test_single_cell_grid(self):
        _, grid, params = make_hand_world(1)
        tree = build_tree(grid, params)
        assert tree.parent(1) is None
        assert tree.depth(1) == 0
        assert tree.max_depth == 0

    def test_15x15_center_sink_max_depth(self):
        # Manhattan route length under the row-then-column rule from the
        # farthest corner of a 15 x 15 grid with the sink at (7, 7): 7 + 7.
        _, grid, params = make_hand_world(15)
        assert grid.cell(grid.sink_cell).row == 7 and grid.cell(grid.sink_cell).col == 7
        tree = build_tree(grid, params)
        assert tree.max_depth == 14

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_tree_invariants_on_sampled_worlds(self, seed):
        params = derive_params(1500, 0.5)
        inst = place_nodes(1500, seed=seed)
        grid = assign_cells(inst, params)
        tree = build_tree(grid, params)
        m = params.grid_dim
        # spanning and acyclic: every cell walks to the sink without repeats
        for c in grid:
            path = tree.path_to_sink(c.index)
            assert len(path) == len(set(path))
            assert path[-1] == tree.sink_cell
            assert len(path) - 1 == tree.depth(c.index)
        assert tree.max_degree <= 4
        assert tree.max_depth <= 2 * (m - 1)
        for j in set(range(1, len(grid) + 1)) - {tree.sink_cell}:
            cj, cp = grid.cell(j), grid.cell(tree.parent(j))
            assert abs(cj.row - cp.row) + abs(cj.col - cp.col) == 1
            dist = np.linalg.norm(inst.positions[cj.center] - inst.positions[cp.center])
            assert dist <= params.radius

    def test_holds_only_the_sink_and_the_grid_size(self):
        # The routing is a rule of the grid's size and the sink's cell, not of its node.
        names = [f.name for f in dataclasses.fields(SpanningTree)]
        assert names == ["sink_cell", "grid_dim"]

    def test_reads_only_the_grid_size_and_the_sink(self):
        # No cell is visited: a grid with no cells and a million a side is fine.
        m, center = 10**6, 10**6 // 2 * (10**6 + 1) + 1
        tree = build_tree(SimpleNamespace(grid_dim=m, sink_cell=center))
        assert (tree.sink_cell, tree.grid_dim) == (center, m)
        assert tree.max_depth == m and tree.depth(1) == m and tree.parent(1) == 2


def tree_per_cell(m, sink_cell):
    """The per-cell build_tree loop the grid rule replaced: the reference.

    Returns the parent, depth and children dicts of the m x m grid's tree.
    """
    sink_row, sink_col = divmod(sink_cell - 1, m)
    parent: dict[int, int] = {}
    depth: dict[int, int] = {}
    for j in range(1, m * m + 1):
        row, col = divmod(j - 1, m)
        depth[j] = abs(row - sink_row) + abs(col - sink_col)
        if col != sink_col:
            parent[j] = j + (1 if col < sink_col else -1)
        elif row != sink_row:
            parent[j] = j + (m if row < sink_row else -m)

    children: dict[int, list[int]] = {}
    for j, p in parent.items():
        children.setdefault(p, []).append(j)
    return parent, depth, {p: tuple(sorted(ch)) for p, ch in children.items()}


class TestTreeRuleAgainstPerCellLoop:
    @pytest.mark.parametrize("m", range(1, 13))
    def test_every_sink(self, m):
        cells = range(1, m * m + 1)
        for sink in cells:
            _, grid, params = make_hand_world(m, sink)
            tree = build_tree(grid, params)
            parent, depth, children = tree_per_cell(m, sink)
            degree = [len(children.get(j, ())) + (j != sink) for j in cells]

            def path(j):
                walk = [j]
                while walk[-1] != sink:
                    walk.append(parent[walk[-1]])
                return walk

            assert [tree.parent(j) for j in cells] == [parent.get(j) for j in cells]
            assert [tree.depth(j) for j in cells] == [depth[j] for j in cells]
            assert [tree.degree(j) for j in cells] == degree
            assert [tree.path_to_sink(j) for j in cells] == [path(j) for j in cells]
            assert tree.max_depth == max(depth.values())
            assert tree.max_degree == max(degree)
