"""Build a random planar world: placement, tessellation, spanning tree.

The unit square is cut into a grid of square cells sized so each cell holds
a logarithmic number of nodes and acts as a single-hop cluster; a spanning
tree over the cells (rows toward the sink's column, then the column toward
the sink) carries all inter-cell traffic.
"""

import numpy as np

from noisyplanar import assign_cells, build_tree, derive_params, place_nodes

n, seed = 5000, 7
params = derive_params(n, delta=0.5)
print(f"n = {n}, guard factor delta = {params.delta}")
print(f"grid: {params.grid_dim} x {params.grid_dim} cells of side {params.cell_side:.4f}")
print(f"transmission radius: {params.radius:.4f}")
print(f"interference bound: {params.interference_bound} cells "
      f"-> {params.link_slot_span} physical slots per logical link slot")

instance = place_nodes(n, seed)
grid = assign_cells(instance, params)
occ = grid.occupancies()
print(f"\noccupancy: min {occ.min()}, mean {occ.mean():.1f}, max {occ.max()} "
      f"(asymptotic band is [{0.091 * np.log(n):.2f}, {5.41 * np.log(n):.2f}])")
print(f"sink: node {grid.sink_node} in cell {grid.sink_cell} "
      f"at {np.round(instance.positions[grid.sink_node], 3)}")

tree = build_tree(grid, params)
print(f"\nspanning tree: max depth {tree.max_depth}, max degree {tree.max_degree}")
print(f"path of cell 1 to the sink: {tree.path_to_sink(1)}")
