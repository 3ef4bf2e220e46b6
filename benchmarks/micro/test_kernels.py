"""Micro-benchmarks of the simulator's hot kernels (pytest-benchmark).

    python3 -m pytest benchmarks/micro --benchmark-only

Each benchmark stores its operation count in ``extra_info`` next to the time,
so a kernel that gets faster by doing less work shows it.  Inputs are seeded
and sized like the end-to-end workloads: a 32-member cell for the identity
code, a 12-cell array for stage 2.
"""

import math

import numpy as np
import pytest

from noisyplanar import (
    BlockCode,
    Channel,
    LinkSimConfig,
    NoiseModel,
    TreeCode,
    assign_cells,
    audit_coloring,
    color_cells,
    derive_params,
    place_nodes,
    simulate_line,
    smallest_odd_at_least,
)
from noisyplanar.intercell import adder_chain, count_bits_for

EPS0 = 0.1
MEMBERS = 32


@pytest.mark.parametrize("msg_bits", [15, 17], ids=["k15-60bit-1word", "k17-68bit-2words"])
def test_block_code_decode_equals(benchmark, msg_bits):
    code = BlockCode(msg_bits, seed=404)
    rng = np.random.default_rng(msg_bits)
    flips = (rng.random((MEMBERS, code.block_len)) < EPS0).astype(np.uint8)
    # As in identity distribution, member i checks whether it decodes to its
    # own index i.  The shortcut settles every member but the witness, whose
    # row alone falls back to the exhaustive codebook search.
    candidates = np.arange(MEMBERS)
    true_msg = 5

    scanned = []
    original = code.decode_batch

    def counting_batch(words):
        scanned.append(len(np.atleast_2d(words)))
        return original(words)

    code.decode_batch = counting_batch
    code.decode_equals(true_msg, flips, candidates)
    del code.decode_batch

    benchmark(code.decode_equals, true_msg, flips, candidates)
    benchmark.extra_info.update(
        receivers=MEMBERS,
        words_per_codeword=math.ceil(code.block_len / 64),
        fallback_rows=sum(scanned),
        codewords_scanned=sum(scanned) * 2**msg_bits,
    )


def test_tree_code_decode_depth14(benchmark):
    depth = 14
    tree = TreeCode(depth, alphabet=4, seed=2025)
    rng = np.random.default_rng(14)
    path = rng.integers(0, 2, size=depth)
    received = tree.encode(path)
    noisy = rng.random(depth) < 0.2
    received[noisy] ^= 1

    decoded = benchmark(tree.decode, received, 16)
    assert len(decoded) == depth
    benchmark.extra_info.update(paths_scanned=2**depth, label_comparisons=depth * 2**depth)


def test_simulate_line_repetition(benchmark):
    n = 131072
    width = count_bits_for(n)
    rng = np.random.default_rng(7)
    counts = rng.integers(0, 40, size=12)
    protocol = adder_chain(counts, width)
    config = LinkSimConfig(mode="repetition", r3=smallest_odd_at_least(3 * math.log(n)))

    def run():
        channel = Channel(instance=None, params=None, noise=NoiseModel(EPS0),
                          rng=np.random.default_rng(1))
        return simulate_line(protocol, config, channel)

    result = benchmark(run)
    links = protocol.q - 1
    benchmark.extra_info.update(
        links=links,
        payload_bits=links * width,
        noisy_copies=result.slots,
    )


def test_audit_coloring_n8000(benchmark):
    n = 8000
    params = derive_params(n, 0.5)
    instance = place_nodes(n, np.random.SeedSequence([1, n, 0, 0]))
    grid = assign_cells(instance, params)
    coloring = color_cells(grid, params)

    violations = benchmark(audit_coloring, grid, params, coloring, instance.positions)
    assert violations == []
    pairs = sum(
        grid.cell(a).size * grid.cell(b).size
        for cls in coloring
        for i, a in enumerate(cls.cells)
        for b in cls.cells[i + 1 :]
    )
    benchmark.extra_info.update(cells=len(grid), member_pairs=pairs)
