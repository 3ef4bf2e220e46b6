"""Node placement, tessellation constants, cell assignment, spanning tree."""

import dataclasses
import math
from types import SimpleNamespace

import numpy as np
import pytest

from noisyplanar.geometry import (
    NetworkInstance,
    ProtocolInfeasibleError,
    SpanningTree,
    _grid_coords,
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


class TestDeriveParams:
    def test_frozen_values_n5000(self):
        p = derive_params(5000, 0.5)
        assert p.grid_dim == 15
        assert p.cell_count == 225
        assert p.cell_side == pytest.approx(1 / 15)
        assert p.radius == pytest.approx(math.sqrt(13.75 * math.log(5000) / 5000))
        assert p.radius == pytest.approx(0.153044, abs=1e-6)
        assert p.interference_bound == 80
        assert p.link_slot_span == 324
        assert p.reuse_distance == 9

    def test_frozen_values_n100(self):
        p = derive_params(100, 0.5)
        assert p.grid_dim == 3
        assert p.cell_count == 9
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


def _world_with_positions(positions, m):
    """Instance + params wrapping explicit positions on an m x m grid."""
    positions = np.asarray(positions, dtype=float)
    n = len(positions)
    inst = NetworkInstance(n=n, seed=0, positions=positions, bits=np.zeros(n, dtype=np.int8))
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
        # 300 x 300 cells need keys past 16 bits, so the sort is not a radix
        # sort there; one node per cell center plus random extras in any order.
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
        names = [f.name for f in dataclasses.fields(SpanningTree)]
        assert names == ["sink_cell", "sink_node", "grid_dim"]

    def test_reads_only_the_grid_size_and_the_sink(self):
        # No cell is visited: a grid with no cells and a million a side is fine.
        m, center = 10**6, 10**6 // 2 * (10**6 + 1) + 1
        tree = build_tree(SimpleNamespace(grid_dim=m, sink_cell=center, sink_node=3))
        assert (tree.sink_cell, tree.sink_node, tree.grid_dim) == (center, 3, m)
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
