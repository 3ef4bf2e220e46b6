"""The slotted channel: interference rules, cell coloring, noise.

A listener receives a bit only when exactly one transmitter is inside the
radius and every other transmitter is beyond the guard ring; otherwise it
hears a collision or silence.  Delivered bits flip with probability at most
eps0 < 0.5, independently per receiver.
"""

import numpy as np

from noisyplanar import (
    NoiseModel,
    assign_cells,
    color_cells,
    derive_params,
    place_nodes,
    resolve_slot,
)

# resolve_slot returns one kind code per listener: SILENT, COLLIDED, or RECEIVED + bit.
KIND_NAMES = ("silence", "collision", "received 0", "received 1")

params = derive_params(5000, delta=0.5)
r = params.radius
rng = np.random.default_rng(0)
noiseless = NoiseModel(0.0)

positions = np.array([
    [0.5, 0.5],            # listener
    [0.5 + 0.5 * r, 0.5],  # close transmitter
    [0.5 - 1.2 * r, 0.5],  # guard-ring interferer
    [0.5, 0.5 - 1.7 * r],  # harmless far transmitter
])

# Slot 0, transmitters with their bits, listeners: node 0 alone here.
for title, txs, bits in [
    ("one close transmitter alone", [1], [1]),
    ("close transmitter plus an interferer inside the guard ring (1.2 r)", [1, 2], [1, 0]),
    ("close transmitter plus a transmitter beyond the guard ring (1.7 r)", [1, 3], [1, 0]),
]:
    kinds = resolve_slot(0, txs, bits, [0], positions, params, noiseless, rng)
    print(f"{title}:\n   {KIND_NAMES[kinds[0]]}")

# Cells that agree modulo the reuse distance D may transmit simultaneously:
# cell (row, col) has color (row mod D) * D + col mod D.
grid = assign_cells(place_nodes(5000, 7), params)
classes = color_cells(grid, params)
sizes = [len(c.cells) for c in classes]
print(f"\ncoloring: {len(classes)} classes "
      f"(= interference bound + 1 = {params.interference_bound + 1}), "
      f"{min(sizes)}-{max(sizes)} cells per class")

# A clairvoyant adversary may pick each reception's flip probability, capped
# at eps0; the cap makes it no worse than iid noise in distribution.  Passing
# a hook is what makes the noise adversarial: NoiseModel(eps0) alone is iid.
def adversary(slot, tx, rx, history):
    return 0.3 if slot % 2 == 0 else 0.0

hostile = NoiseModel(0.3, adversary)
print(f"\nadversarial flip probabilities (cap {hostile.eps0}):",
      [hostile.flip_prob(s, 1, 0, None) for s in range(4)])
