"""Histogram (count of ones) with the pipelined bit-serial adder.

Each cell center learns its count of ones by per-member repetition, then
counts flow up the tree as least-significant-first bit streams: every
interior array cell lags one slot and full-adds its own subtree count into
the passing stream, closing each array in q + g - 1 slots.
"""

import numpy as np

from noisyplanar import ExperimentConfig, adder_chain, count_bits_for
from noisyplanar.harness import run_trial

# The adder pipeline on one small array: counts 3 and 2 merge into 5 before
# reaching the root, which adds its own 1 for a subtree total of 6.
proto = adder_chain([3, 2, 1], width=3)
sent, values = proto.noiseless_run()
print("array counts [3, 2, 1], 3-bit streams (LSB first), one row per sender:")
for i, bits in enumerate(sent):
    print(f"  cell {i} sends per slot: {bits}")
print(f"root subtree count: {values[-1]} after {proto.rounds} slots (q + g - 1)")

cfg = ExperimentConfig(
    protocol="hist",
    n=(2000,),
    trials=1,
    eps0=0.1,
    mode="abstract",
    bit_source="bernoulli",
    bit_p=0.3,
    base_seed=21,
)
run = run_trial(cfg, 2000, 0)
g = count_bits_for(run.n)

print(f"\nn = {run.n}: counts stream as g = {g} bits per link")
print(f"true count (oracle): {run.oracle_value}")
print(f"computed at the sink: {run.computed} (correct: {run.correct})")
m = run.metrics
print(f"costs: {m.tx_count} transmissions, {m.slots_total} physical slots")
print(f"stage-2 alone: {m.tx_stage2} transmissions over "
      f"{len(run.grid) - 1} tree links")
