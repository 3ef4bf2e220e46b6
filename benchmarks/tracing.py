"""Layer spans for the traced benchmark run.

The traced run calls the package's own ``run_trial``, ``sweep`` and
``validate_run`` with timing wrappers swapped in at the names their callers
look the public layer functions up by, so spans come from the benchmark, not
from the package.  A span records its name, start, end, parent and op id;
spans stay in memory until the run ends.  A span's layer is the part of its
name before the first dot, which is the module that owns the wrapped function.
"""

from __future__ import annotations

import statistics
import time
from collections import defaultdict

import numpy as np

from noisyplanar import coding, harness, intercell, intracell
from noisyplanar.channel import Channel

LAYERS = ("geometry", "channel", "coding", "intracell", "intercell", "oracle", "harness")


def _rows(args, index):
    return int(np.atleast_2d(np.asarray(args[index])).shape[0])


def _codebook_bytes(result):
    code = result.id_code
    return 2**code.msg_bits * code.block_len


# (owner, attribute, span name, counter).  A counter is (key, fn): fn maps
# the call's (args, result) to an amount added to the op's total under key;
# keys ending in "_bytes" keep the largest amount instead.  Receivers are the
# rows of decode_equals' flip masks and of decode_batch's received words.
ROWS_DECODED = ("coding.decode_equals_rows", lambda a, r: _rows(a, 2))
ROWS_SEARCHED = ("coding.decode_batch_rows", lambda a, r: _rows(a, 1))
PATCHES = (
    (harness, "derive_params", "geometry.derive_params", None),
    (harness, "place_nodes", "geometry.place_nodes", None),
    (harness, "assign_cells", "geometry.assign_cells", None),
    (harness, "build_tree", "geometry.build_tree", None),
    (harness, "color_cells", "channel.color_cells", None),
    (harness, "resolve_slot", "channel.resolve_slot", None),
    (Channel, "flip_mask", "channel.flip_mask", ("channel.flip_draws", lambda a, r: r.size)),
    (Channel, "noisy_copies", "channel.noisy_copies", None),
    (intracell.Stage1Config, "for_network", "intracell.stage1_config",
     ("coding.codebook_bytes", lambda a, r: _codebook_bytes(r))),
    (intracell, "BlockCode", "coding.BlockCode", None),
    (harness, "run_stage1_max", "intracell.run_stage1_max", None),
    (harness, "run_stage1_hist", "intracell.run_stage1_hist", None),
    (intracell, "witness_discovery", "intracell.witness_discovery", None),
    (intracell, "distribute_identity", "intracell.distribute_identity", None),
    (intracell, "confirm_value", "intracell.confirm_value", None),
    (coding.BlockCode, "decode_equals", "coding.decode_equals", ROWS_DECODED),
    (coding.BlockCode, "decode_batch", "coding.decode_batch", ROWS_SEARCHED),
    (intercell, "simulate_line", "coding.simulate_line", None),
    (coding, "majority_decode", "coding.majority_decode", None),
    (harness, "build_substages", "intercell.build_substages", None),
    (harness, "run_stage2_max", "intercell.run_stage2", None),
    (harness, "run_stage2_hist", "intercell.run_stage2", None),
    (harness, "oracle", "oracle.oracle", None),
    (harness, "audit_coloring", "harness.audit_coloring", None),
    (harness, "validate_run", "harness.validate_run", None),
)


class Tracer:
    """In-memory span recorder; ``install`` and ``uninstall`` swap the wrappers.

    Span fields live in parallel lists of plain numbers, so a long traced run
    does not hand the garbage collector millions of containers to traverse.
    """

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.ops: list[int] = []
        self.first_span: dict[int, int] = {}
        self.counts: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.op = 0
        self._stack: list[int] = [-1]
        self._saved: list[tuple[object, str, object]] = []

    def begin(self, op: int) -> None:
        """Attribute the spans and counts that follow to op ``op``."""
        self.op = op
        self.first_span[op] = len(self.names)

    def wrap(self, name, fn, counter=None):
        names, starts, ends, parents, ops = self.names, self.starts, self.ends, self.parents, self.ops
        stack, clock = self._stack, time.perf_counter

        def traced(*args, **kwargs):
            index = len(names)
            names.append(name)
            parents.append(stack[-1])
            ops.append(self.op)
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if counter is not None:
                key, amount_of = counter
                amount = amount_of(args, result)
                totals = self.counts[self.op]
                if key.endswith("_bytes"):
                    totals[key] = max(totals[key], amount)
                else:
                    totals[key] += amount
            return result

        return traced

    def install(self) -> None:
        for owner, attr, name, counter in PATCHES:
            original = vars(owner)[attr]
            self._saved.append((owner, attr, original))
            if isinstance(original, classmethod):
                wrapped = staticmethod(self.wrap(name, getattr(owner, attr), counter))
            else:
                wrapped = self.wrap(name, original, counter)
            setattr(owner, attr, wrapped)
        self._saved.append((harness, "run_trial", harness.run_trial))
        harness.run_trial = self.wrap("harness.run_trial", harness.run_trial)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def span(self, name, fn, *args, **kwargs):
        """Call ``fn`` under a span of the given name."""
        return self.wrap(name, fn)(*args, **kwargs)

    def count(self, key: str, amount: float) -> None:
        self.counts[self.op][key] += amount

    def dump(self, path, t0: float) -> None:
        """Write every span as a tab-separated line, times relative to ``t0``."""
        with open(path, "w") as fh:
            fh.write("index\top\tname\tstart_s\tend_s\tparent\n")
            for i, name in enumerate(self.names):
                fh.write(
                    f"{i}\t{self.ops[i]}\t{name}\t{self.starts[i] - t0:.9f}\t"
                    f"{self.ends[i] - t0:.9f}\t{self.parents[i]}\n"
                )


def op_layer_metrics(tracer: Tracer, op: int, wall: float, trials: int) -> dict[str, float]:
    """Per-layer metrics of the op traced last, per trial (a sweep op holds several).

    A span's self time is its duration minus the durations of its children.
    """
    names, starts, ends, parents = tracer.names, tracer.starts, tracer.ends, tracer.parents
    indices = range(tracer.first_span[op], len(names))
    child_time: dict[int, float] = defaultdict(float)
    for i in indices:
        if parents[i] >= 0:
            child_time[parents[i]] += ends[i] - starts[i]

    total: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    self_time = {layer: 0.0 for layer in LAYERS}
    rerun = sweep_trials = 0.0
    for i in indices:
        name, duration = names[i], ends[i] - starts[i]
        total[name] += duration
        calls[name] += 1
        self_time[name.split(".", 1)[0]] += duration - child_time[i]
        parent_name = names[parents[i]] if parents[i] >= 0 else None
        if name == "harness.run_trial" and parent_name == "harness.validate_run":
            rerun += duration
        if name == "harness.run_trial" and parent_name == "harness.sweep":
            sweep_trials += duration

    counts = tracer.counts[op]
    per = lambda value: value / trials
    decoded = counts["coding.decode_equals_rows"]
    trial_calls = calls["harness.run_trial"]
    out = {f"{layer}.self_s": per(t) for layer, t in self_time.items()}
    out["trace.self_coverage"] = sum(self_time.values()) / wall
    out.update(
        {
            "geometry.place_nodes_s": per(total["geometry.place_nodes"]),
            "geometry.assign_cells_s": per(total["geometry.assign_cells"]),
            "geometry.build_tree_s": per(total["geometry.build_tree"]),
            "geometry.resamples": (
                (calls["geometry.place_nodes"] - trial_calls) / trial_calls if trial_calls else 0.0
            ),
            "channel.color_cells_s": per(total["channel.color_cells"]),
            "channel.flip_draws": per(counts["channel.flip_draws"]),
            "channel.noisy_copies_calls": per(calls["channel.noisy_copies"]),
            "channel.trace_entries": per(counts["channel.trace_entries"]),
            "intracell.stage1_config_s": per(total["intracell.stage1_config"]),
            "intracell.discovery_s": per(total["intracell.witness_discovery"]),
            "intracell.identity_s": per(total["intracell.distribute_identity"]),
            "intracell.confirmation_s": per(total["intracell.confirm_value"]),
            "intracell.hist_count_s": per(total["intracell.run_stage1_hist"]),
            "coding.codebook_bytes": counts["coding.codebook_bytes"],
            "coding.decode_equals_rows": per(decoded),
            "coding.decode_batch_rows": per(counts["coding.decode_batch_rows"]),
            "coding.decode_batch_s": per(total["coding.decode_batch"]),
            "coding.fallback_ratio": (
                counts["coding.decode_batch_rows"] / decoded if decoded else 0.0
            ),
            "coding.simulate_line_s": per(total["coding.simulate_line"]),
            "coding.simulate_line_calls": per(calls["coding.simulate_line"]),
            "coding.majority_decode_calls": per(calls["coding.majority_decode"]),
            "intercell.build_substages_s": per(total["intercell.build_substages"]),
            "intercell.stage2_s": per(total["intercell.run_stage2"]),
            "intercell.stage2_runs_per_trial": (
                calls["intercell.run_stage2"] / trial_calls if trial_calls else 0.0
            ),
            "intercell.distribute_result_s": per(counts["intercell.distribute_result_s"]),
            "oracle.oracle_s": per(total["oracle.oracle"]),
            "harness.validate_run_s": per(total["harness.validate_run"]),
            "harness.audit_coloring_s": per(total["harness.audit_coloring"]),
            "harness.validate_rerun_s": per(rerun),
            "harness.sweep_overhead_s": per(total["harness.sweep"] - sweep_trials),
            "harness.report_s": per(total["harness.report"]),
            "harness.report_bytes": counts["harness.report_bytes"],
        }
    )
    return out


def median_metrics(per_op: list[dict[str, float]]) -> dict[str, float]:
    """Median over ops of every per-layer metric."""
    return {k: float(statistics.median(op[k] for op in per_op)) for k in per_op[0]}
