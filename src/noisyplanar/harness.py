"""Experiment orchestration: trials, reports, scaling sweeps, audits, and CLI.

Reports are plain JSON (schema 1) carrying the RNG layout, the full config
echo and every per-trial row, so any aggregate can be recomputed from the
file alone.  Sweep tables are additionally emitted as CSV with the fixed
header

    n,trials,error_rate,tx_total,tx_per_n,slots_total,slots_norm,em1,em2,resamples

Exit codes: 0 success, 2 config error, 3 infeasibility, 4 audit failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, field, fields, replace
from itertools import zip_longest
from types import NoneType, UnionType
from typing import get_args, get_origin, get_type_hints

import numpy as np

from .channel import (
    RECEIVED,
    Channel,
    Coloring,
    EnergyConfig,
    Metrics,
    NoiseModel,
    Trace,
    TraceRecord,
    _cell_colors,
    _uniforms_below,
    color_cells,
    distances,
    resolve_slot,
)
from .coding import CapacityError
from .config import BIT_SOURCES, MODES, PROTOCOLS, ConfigError, ExperimentConfig
from .geometry import (
    CellGrid,
    DerivedParams,
    ProtocolInfeasibleError,
    _cell_index,
    _cell_runs,
    assign_cells,
    build_tree,
    derive_params,
    place_nodes,
)
from .intercell import build_substages, run_stage2_hist, run_stage2_max, stage2_cost
from .intracell import Stage1Config, run_stage1_hist, run_stage1_max, stage1_layout, stage1_schedule
from .oracle import oracle

__all__ = [
    "SCHEMA_VERSION",
    "RNG_LAYOUT",
    "CSV_HEADER",
    "InfeasibleRunError",
    "TrialRun",
    "RunReport",
    "SweepReport",
    "AuditReport",
    "wilson_interval",
    "run_trial",
    "run_experiment",
    "sweep",
    "validate_run",
    "audit_coloring",
    "main",
]

SCHEMA_VERSION = 1
# The order in which a trial draws its world and consumes its noise stream,
# declared in every report.  Layout 7 draws the world cell by cell: the
# cells' occupancies as one multinomial, then each node uniform in its cell,
# the ids numbered cell by cell (``place_nodes``), so explicit bits are
# relabelled by one uniform permutation from the bits stream; and it draws
# each stage-1 phase in cell order, not class order.  Layout 6 draws iid
# identity noise from each member's sufficient statistics: its error weight,
# then where decoding reads it, its overlap with the candidate's codeword
# difference, then where decoding still needs it, the error pattern
# (``Channel.code_errors``); an adversary's hook still sees one reception per
# codeword bit, as every identity draw did up to layout 5.  Layout 5 keeps
# layout 4's draws and changes only the identity code: ceil(log2 L) message
# bits for L the world's largest cell, not ceil(log2 n), so identities that
# mis-decoded under the longer message may now decode.  Layout 4 draws every
# majority-decoded repetition as one uniform per decoded bit against its
# exact majority tail (layouts 1-3 drew each copy).  Layout 3 drew MAX stage
# 1 phase by phase: discovery for every color class, then identity, then
# confirmation, each in class, cell and member order (layout 2 class by
# class, then phase by phase; layout 1 cell by cell).
RNG_LAYOUT = 7
CSV_HEADER = "n,trials,error_rate,tx_total,tx_per_n,slots_total,slots_norm,em1,em2,resamples"


class InfeasibleRunError(Exception):
    """A run that cannot proceed (resampling exhausted, arrays too deep, ...)."""


def wilson_interval(successes: int, trials: int, z: float = 1.96) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion."""
    if trials == 0:
        return 0.0, 1.0
    p = successes / trials
    denom = 1 + z**2 / trials
    center = (p + z**2 / (2 * trials)) / denom
    half = z * math.sqrt(p * (1 - p) / trials + z**2 / (4 * trials**2)) / denom
    return max(0.0, center - half), min(1.0, center + half)


def _draw_bits(config: ExperimentConfig, n: int, rng: np.random.Generator) -> np.ndarray:
    """The nodes' bits from the configured source and the bits stream.

    Node ids carry position (a world is drawn cell by cell), so explicit bits
    go to the nodes through one uniform relabelling; every other source is
    already exchangeable.  Bernoulli bits are ``rng.random(n) < bit_p``,
    drawn through a bounded buffer (``channel._uniforms_below``)."""
    source = config.bit_source
    if source == "all-zero":
        return np.zeros(n, dtype=np.int8)
    if source == "all-one":
        return np.ones(n, dtype=np.int8)
    if source == "bernoulli":
        return _uniforms_below(rng, n, config.bit_p).view(np.int8)
    if source == "single-one-at-random":
        bits = np.zeros(n, dtype=np.int8)
        bits[int(rng.integers(n))] = 1
        return bits
    return np.array(config.bits, dtype=np.int8)[rng.permutation(n)]  # explicit


@dataclass
class TrialRun:
    """One trial's full context and outcome; inputs to audits and reports."""

    config: ExperimentConfig
    n: int
    trial: int
    instance: object
    params: DerivedParams
    grid: CellGrid
    tree: object
    coloring: Coloring
    plan: object
    stage1_config: Stage1Config
    link_config: object
    stage1: object
    stage1_value: int
    computed: int
    oracle_value: int
    resamples: int
    channel: Channel
    aux_seeds: list

    @property
    def correct(self) -> bool:
        return self.computed == self.oracle_value

    @property
    def stage1_correct(self) -> bool:
        return self.stage1_value == self.oracle_value

    @property
    def metrics(self) -> Metrics:
        return self.channel.metrics


def run_trial(
    config: ExperimentConfig,
    n: int,
    trial: int,
    capture_trace: bool = False,
    noise: NoiseModel | None = None,
) -> TrialRun:
    """Execute one seeded trial: geometry, stage 1, stage 2, oracle comparison.

    The trial seed derives from (base_seed, n, trial, resample); placement,
    bits, and protocol noise consume independent substreams of it, so the
    whole run is a pure function of the config.  The world is drawn cell by
    cell on the trial's grid; a world with an empty cell is resampled
    (counted) up to the configured cap, before any position is drawn.
    """
    params = derive_params(n, config.delta)
    resamples = 0
    while True:
        seq = np.random.SeedSequence([config.base_seed, n, trial, resamples])
        place_seed, bits_seed, noise_seed, *aux_seeds = seq.spawn(5)
        try:
            instance = place_nodes(n, place_seed, params.grid_dim)
            grid = assign_cells(instance, params)
            break
        except ProtocolInfeasibleError:
            resamples += 1
            if resamples > config.max_resamples:
                raise InfeasibleRunError(
                    f"exhausted {config.max_resamples} resamples at n={n}, trial={trial}: "
                    f"cells keep coming up empty; this n is too small for the tessellation"
                )

    instance = instance.with_bits(_draw_bits(config, n, np.random.default_rng(bits_seed)))

    tree = build_tree(grid, params)
    coloring = color_cells(grid, params)
    plan = build_substages(tree, params, config.l_sub)
    try:  # the discovery budget, the identity code length and the tree-code alphabet
        s1cfg = Stage1Config.for_network(
            n,
            config.eps0,
            eps1=config.eps1,
            c_rep=config.c_rep,
            r2=config.r2,
            block_len=config.l1,
            code_seed=config.code_seed,
            largest_cell=int(grid.occupancies().max()),
        )
        link_cfg = config.link_config_for(n)
    except ValueError as exc:
        raise ConfigError(f"n={n}: {exc}") from exc
    channel = Channel(
        instance=instance,
        params=params,
        noise=noise if noise is not None else NoiseModel(config.eps0),
        rng=np.random.default_rng(noise_seed),
        metrics=Metrics(energy=EnergyConfig(e_t=config.e_t, e_r=config.e_r)),
        trace=Trace() if capture_trace else None,
    )

    if config.protocol == "max":
        stage1, stage2, total = run_stage1_max, run_stage2_max, np.max
    else:
        stage1, stage2, total = run_stage1_hist, run_stage2_hist, np.sum
    s1 = stage1(grid, coloring, s1cfg, channel)
    computed = stage2(plan, s1.values, link_cfg, channel, grid, params, tree)
    _check_counters(channel.metrics, n, trial)

    return TrialRun(
        config=config,
        n=n,
        trial=trial,
        instance=instance,
        params=params,
        grid=grid,
        tree=tree,
        coloring=coloring,
        plan=plan,
        stage1_config=s1cfg,
        link_config=link_cfg,
        stage1=s1,
        stage1_value=int(total(s1.values)),
        computed=computed,
        oracle_value=oracle(instance, config.protocol),
        resamples=resamples,
        channel=channel,
        aux_seeds=aux_seeds,
    )


def _check_counters(metrics: Metrics, n: int, trial: int) -> None:
    """Raise ConfigError at a counter past the largest float: the report
    could neither average it nor write it as a JSON number."""
    for key, value in metrics.snapshot().items():
        if not abs(value) <= sys.float_info.max:  # an int past it, inf or nan
            scale = "e-t or e-r" if key.startswith("em") else "k-rs"
            raise ConfigError(f"n={n}, trial {trial}: {key} does not fit a float; lower {scale}")


@dataclass
class RunReport:
    """Per-trial rows plus per-n aggregates; serializes to schema-1 JSON."""

    config: ExperimentConfig
    results: list[dict] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "schema": SCHEMA_VERSION,
            "rng_layout": RNG_LAYOUT,
            "config": self.config.to_dict(),
            "results": self.results,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)

    def result_for(self, n: int) -> dict:
        return next(r for r in self.results if r["n"] == n)


def _trial_row(run: TrialRun) -> dict:
    return {
        "trial": run.trial,
        "computed": run.computed,
        "oracle": run.oracle_value,
        "correct": run.correct,
        "stage1_value": run.stage1_value,
        "stage1_correct": run.stage1_correct,
        "resamples": run.resamples,
        "metrics": run.metrics.snapshot(),
    }


def _aggregate(n: int, rows: list[dict]) -> dict:
    trials = len(rows)
    errors = sum(not r["correct"] for r in rows)
    stage1_errors = sum(not r["stage1_correct"] for r in rows)
    lo, hi = wilson_interval(errors, trials)
    mean = lambda key: float(np.mean([r["metrics"][key] for r in rows]))
    return {
        "n": n,
        "trials": trials,
        "errors": errors,
        "error_rate": errors / trials,
        "wilson_low": lo,
        "wilson_high": hi,
        "stage1_errors": stage1_errors,
        "stage1_error_rate": stage1_errors / trials,
        "resamples": sum(r["resamples"] for r in rows),
        "mean_tx": mean("tx_count"),
        "mean_slots": mean("slots_total"),
        "mean_slots_stage1": mean("slots_stage1"),
        "mean_slots_stage2": mean("slots_stage2"),
        "mean_tx_stage2": mean("tx_stage2"),
        "mean_em1": mean("em1"),
        "mean_em2": mean("em2"),
        "mean_em1_stage1": mean("em1_stage1"),
        "trials_detail": rows,
    }


def run_experiment(config: ExperimentConfig) -> RunReport:
    """Run every (n, trial) of the config and aggregate per n."""
    report = RunReport(config=config)
    for n in config.n:
        rows = [_trial_row(run_trial(config, n, t)) for t in range(config.trials)]
        report.results.append(_aggregate(n, rows))
    return report


@dataclass
class SweepReport:
    """Scaling table: normalized cost columns per n and their band ratios."""

    config: ExperimentConfig
    rows: list[dict] = field(default_factory=list)
    band_ratios: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "schema": SCHEMA_VERSION,
            "rng_layout": RNG_LAYOUT,
            "config": self.config.to_dict(),
            "rows": self.rows,
            "band_ratios": self.band_ratios,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)

    def to_csv(self) -> str:
        lines = [CSV_HEADER]
        for r in self.rows:
            lines.append(
                f"{r['n']},{r['trials']},{r['error_rate']},{r['tx_total']},{r['tx_per_n']},"
                f"{r['slots_total']},{r['slots_norm']},{r['em1']},{r['em2']},{r['resamples']}"
            )
        return "\n".join(lines) + "\n"


def sweep(config: ExperimentConfig) -> SweepReport:
    """Measure cost scaling across the configured n values.

    Requires at least three n values spanning an 8x range.  Emits, per n,
    the mean total transmissions, slots, and stage-1 energy normalized by
    their expected growth laws, plus the repetition-mode stage-2 time and
    histogram stage-2 transmissions; band_ratios holds max/min per column.
    Those two columns come from the closed-form stage-2 accounting of each
    trial's world, whatever the protocol and mode under test.  The histogram
    column is null at an n whose arrays pass the tree-code cap, and so is
    its band ratio; so is the band ratio of a column whose minimum is 0.
    """
    ns = sorted(config.n)
    if len(ns) < 3 or max(ns) < 8 * min(ns):
        raise ConfigError("a sweep needs >= 3 values of n spanning at least an 8x range")

    report = SweepReport(config=config)
    for n in ns:
        rows = []
        rep_slots_all, hist_tx_all = [], []
        for t in range(config.trials):
            run = run_trial(config, n, t)
            rows.append(_trial_row(run))
            rep_link = replace(run.link_config, mode="repetition")
            rep_slots_all.append(stage2_cost(run.plan, run.params, rep_link, "max")[0])
            try:
                hist_tx_all.append(stage2_cost(run.plan, run.params, run.link_config, "hist")[1])
            except CapacityError:
                hist_tx_all.append(None)
        hist_tx = None if None in hist_tx_all else float(np.mean(hist_tx_all))
        agg = _aggregate(n, rows)
        log_n = math.log(n)
        time_norm = math.sqrt(n / log_n)
        report.rows.append(
            {
                "n": n,
                "trials": agg["trials"],
                "error_rate": agg["error_rate"],
                "tx_total": agg["mean_tx"],
                "tx_per_n": agg["mean_tx"] / n,
                "slots_total": agg["mean_slots"],
                "slots_norm": agg["mean_slots"] / time_norm,
                "slots_stage2_repetition": float(np.mean(rep_slots_all)),
                "slots_stage2_repetition_norm": float(np.mean(rep_slots_all)) / math.sqrt(n * log_n),
                "slots_stage2": agg["mean_slots_stage2"],
                "em1_stage1": agg["mean_em1_stage1"],
                "em1_stage1_norm": agg["mean_em1_stage1"] / (n * log_n),
                "hist_stage2_tx": hist_tx,
                "hist_stage2_tx_per_n": None if hist_tx is None else hist_tx / n,
                "em1": agg["mean_em1"],
                "em2": agg["mean_em2"],
                "resamples": agg["resamples"],
            }
        )

    for col in (
        "tx_per_n",
        "slots_norm",
        "slots_stage2_repetition_norm",
        "em1_stage1_norm",
        "hist_stage2_tx_per_n",
    ):
        vals = [r[col] for r in report.rows]
        report.band_ratios[col] = (
            max(vals) / min(vals) if None not in vals and min(vals) > 0 else None
        )
    return report


@dataclass
class AuditReport:
    """Outcome of the interference / obliviousness / energy audit."""

    collision_violations: list[str] = field(default_factory=list)
    obliviousness_violations: list[str] = field(default_factory=list)
    energy_violations: list[str] = field(default_factory=list)

    @property
    def collision_free(self) -> bool:
        return not self.collision_violations

    @property
    def oblivious(self) -> bool:
        return not self.obliviousness_violations

    @property
    def energy_exact(self) -> bool:
        return not self.energy_violations

    @property
    def passed(self) -> bool:
        return self.collision_free and self.oblivious and self.energy_exact

    def summary(self) -> str:
        status = lambda ok: "ok" if ok else "FAIL"
        return (
            f"collision-free: {status(self.collision_free)}; "
            f"oblivious schedules: {status(self.oblivious)}; "
            f"energy identities: {status(self.energy_exact)}"
        )


# The audit proof's scalar bounds must hold by this margin, so that no rounding crosses them.
_SLACK = 1.0 + 1e-9


def _beyond(gap: float, params: DerivedParams) -> bool:
    """Whether points ``gap`` apart are outside the guard ring and beyond the radius."""
    return gap >= (1.0 + params.delta) * params.radius * _SLACK and gap > params.radius * _SLACK


# _contained reads the members' positions this many at a time.
_CONTAINED_BLOCK = 1 << 18


def _contained(grid: CellGrid, positions: np.ndarray) -> np.ndarray:
    """Per cell: whether its members and center lie in its square, as
    assign_cells cuts it (``_cell_index``; a point outside the unit square
    lies in no cell).  The members go a block of ``_CONTAINED_BLOCK`` at a
    time, so no n-sized temporary is built."""
    inside = positions.min(initial=0.0) >= 0.0 and positions.max(initial=1.0) <= 1.0

    def home(nodes):
        at = positions.take(nodes, axis=0)
        cells = _cell_index(at, grid.grid_dim)
        if not inside:  # only a moved world
            cells[~((at >= 0.0) & (at <= 1.0)).all(axis=1)] = -1
        return cells

    strays = np.zeros(len(grid), dtype=np.int64)
    for lo in range(0, grid.n, _CONTAINED_BLOCK):
        hi = min(lo + _CONTAINED_BLOCK, grid.n)
        first, counts = _cell_runs(grid.offsets[1:], lo, hi)
        owner = np.arange(first, first + counts.size).repeat(counts)
        strays += np.bincount(owner[home(grid.members[lo:hi]) != owner], minlength=len(grid))
    placed = np.flatnonzero(grid.centers >= 0)  # every cell but an empty hand-built one
    centered = np.ones(len(grid), dtype=bool)
    centered[placed] = home(grid.centers[placed]) == placed
    return (strays == 0) & centered


def _links_adjacent(plan, grid_dim: int) -> bool:
    """Whether every link of the plan joins two edge-adjacent cells."""
    links = np.concatenate([np.zeros((0, 2), dtype=np.int64), *(s.links for s in plan.stages)])
    rows, cols = np.divmod(links - 1, grid_dim)
    return bool((np.abs(np.diff(rows)) + np.abs(np.diff(cols)) == 1).all())


def audit_coloring(
    grid: CellGrid,
    params: DerivedParams,
    coloring: Coloring,
    positions: np.ndarray,
    class_bases: np.ndarray | None = None,
    contained: np.ndarray | None = None,
    rule: np.ndarray | None = None,
) -> list[str]:
    """Prove the intra-cell coloring collision-free, or name the offenders.

    Any transmitter of one cell must sit at least (1 + delta) * radius, and
    beyond the radius (at delta = 0), from every listener of any same-class
    cell, which covers every slot of the lockstep schedule at once.
    Violations carry a representative slot, the class's first
    (``class_bases``, one per class in coloring order, as stage1_layout
    gives them; slot 0 when not given), where both offending cells are
    guaranteed active.  Two cells that lie in their squares and have their
    periodic colors (``channel._cell_colors``) are proven apart
    (validate_run gives the inequality); the other pairs, or all when the
    inequality fails, get the exact member-to-member check, in pair order.
    A cell is open unless it is proven and ``(rule == coloring.colors)``
    holds at it, read in one pass over the coloring's cells; only the
    classes that hold an open cell are looped over.  ``contained`` and
    ``rule`` are ``_contained(grid, positions)`` and
    ``_cell_colors(len(grid), grid.grid_dim, params.reuse_distance)`` where
    the caller has them.
    """
    guard = (1.0 + params.delta) * params.radius
    if rule is None:
        rule = _cell_colors(len(grid), grid.grid_dim, params.reuse_distance)
    if contained is None:
        contained = _contained(grid, positions)
    proven = contained & _beyond((params.reuse_distance - 1) / grid.grid_dim, params)
    cells, bounds = coloring.cells, coloring.bounds
    open_ = ~(proven[cells - 1] & (rule == coloring.colors)[cells])
    violations = []
    owners = np.searchsorted(bounds, np.flatnonzero(open_), side="right") - 1
    for k in dict.fromkeys(owners.tolist()):  # the classes with an open cell, in order
        color, lo, hi = coloring.palette[k], bounds[k], bounds[k + 1]
        listed, at = cells[lo:hi].tolist(), open_[lo:hi]
        base = 0 if class_bases is None else class_bases[k]
        for i, j in zip(*np.nonzero(np.triu(at[:, None] | at, 1))):
            a, b = listed[i], listed[j]
            dist = float(distances(positions, grid.cell(a).members, grid.cell(b).members).min())
            if dist < guard or dist <= params.radius:
                ring = f"inside the guard ring {guard:.4f}"
                if dist >= guard:  # only the radius is breached, as at delta = 0
                    ring = f"within the radius {params.radius:.4f}"
                violations.append(
                    f"slot {base}: same-color cells {a} and {b} (color {color}) have "
                    f"members {dist:.4f} apart, {ring}"
                )
    return violations


def _audit_single_hop(run: TrialRun, bases: np.ndarray, wide: np.ndarray) -> list[str]:
    """Name each ``wide`` cell whose farthest two members lie beyond the radius,
    in coloring order, at its class's first slot (``bases``, one per class)."""
    if not wide.any():
        return []
    cells, bounds = run.coloring.cells, run.coloring.bounds
    at = np.flatnonzero(wide[cells - 1])
    owners = np.searchsorted(bounds, at, side="right") - 1
    violations = []
    for j, base in zip(cells[at].tolist(), bases[owners].tolist()):
        members = run.grid.cell(j).members
        dist = distances(run.instance.positions, members, members)
        a, b = np.unravel_index(dist.argmax(), dist.shape)
        if dist[a, b] > run.params.radius:
            violations.append(
                f"slot {base}: cell {j} members {members[a]} and {members[b]} are "
                f"{dist[a, b]:.4f} apart, beyond the radius {run.params.radius:.4f}"
            )
    return violations


def _replay_slots(run: TrialRun, rule: np.ndarray) -> list[str]:
    """Resolve every stage-2 subslot without noise, one resolve_slot call per
    stage, and name each subslot whose links do not all deliver.

    Within a logical slot, the link from child cell j fires in subslot
    ``rule[j]``, its periodic color (``channel._cell_colors``), as the
    runners number it (upward; downward subslots are a disjoint second
    bank).  The subslots are named in the order of their first link.
    """
    world = (run.instance.positions, run.params, NoiseModel(0.0), np.random.default_rng(0))
    violations = []
    for si, stage in enumerate(run.plan.stages):
        lanes = rule[stage.links[:, 0]]
        txs, rxs = run.grid.centers[stage.links.T - 1]
        failed = resolve_slot(lanes, txs, 0, rxs, *world, listen_slots=lanes) < RECEIVED
        if not failed.any():
            continue
        for lane in dict.fromkeys(lanes.tolist()):  # in the order of their first link
            bad = failed & (lanes == lane)
            if bad.any():
                named = ", ".join(f"{tx}->{rx}" for tx, rx in zip(txs[bad], rxs[bad]))
                violations.append(f"stage {si} subslot {lane}: links {named} did not deliver")
    return violations


def _coverage(coloring: Coloring) -> list[str]:
    """Name the cells that are in no color class."""
    named = np.flatnonzero(coloring.colors[1:] < 0) + 1
    if not named.size:
        return []
    more = f" and {named.size - 3} more" if named.size > 3 else ""
    return [f"cells {named[:3].tolist()}{more} are in no color class"]


def _same_rows(a: TraceRecord | None, b: TraceRecord | None) -> bool:
    """Whether two run-length records hold the same columns, in the same order."""
    return (
        a is not None
        and b is not None
        and a.copies == b.copies
        and np.array_equal(a.txs, b.txs)
        and np.array_equal(a.first, b.first)
    )


def _row_keys(records: list[TraceRecord]) -> np.ndarray:
    """(slot << 32) + tx for every (slot, tx) row of run-length records."""
    keys = [((r.first[:, None] + np.arange(r.copies)) << 32) + r.txs[:, None] for r in records]
    return np.concatenate([np.zeros(0, dtype=np.int64)] + [k.ravel() for k in keys])


def _slots_off_schedule(traced: list[TraceRecord], schedule: list[TraceRecord]) -> list[int]:
    """The first three slots whose (slot, tx) rows differ, as multisets, between
    two lists of run-length records; [] when the rows agree.

    A record equal to the one in the same place of the other list cancels
    it, and only the rest expand to rows, so lists whose records are equal
    pair by pair build no rows at all.
    """
    unequal = [(a, b) for a, b in zip_longest(traced, schedule) if not _same_rows(a, b)]
    if not unequal:
        return []
    keys = [_row_keys([r for r in side if r is not None]) for side in zip(*unequal)]
    values, where = np.unique(np.concatenate(keys), return_inverse=True)
    net = np.bincount(where, weights=np.repeat([1, -1], [k.size for k in keys]))
    return np.unique(values[net != 0] >> 32)[:3].tolist()


def validate_run(run: TrialRun) -> AuditReport:
    """Audit a traced trial: collision freedom, oblivious schedules, energy.

    Checks (slot-indexed on failure): (a) no intended receiver can observe a
    collision in the discovery, identity, counting, or inter-cell phases;
    confirmation slots with several believers are the documented exception.
    Under the protocol model delivery depends on positions alone, so (a) is
    proven from five properties of the run's data, one array pass each:
    1. containment: each cell's members and center lie in its square
       (``geometry._cell_index``, the rule assign_cells cuts by);
    2. periodic coloring: each cell's color (Coloring.colors) is its color
       under the periodic rule (row mod D) * D + col mod D, D =
       reuse_distance (channel._cell_colors), which is also its stage-2
       lane whatever the coloring;
    3. adjacency: each plan link joins two edge-adjacent cells;
    4. the scalar inequalities, with side = 1 / grid_dim, r = radius and a
       1 + 1e-9 slack:
       - sqrt(2) * side <= r: a cell's members are in range (single hop);
       - (D - 1) * side >= (1 + delta) * r and > r: same-class members are
         D - 1 sides apart, strictly beyond r even at delta = 0, where the
         guard ring is the radius (stage 1);
       - sqrt(5) * side <= r, (D - 2) * side >= (1 + delta) * r and > r: a
         link's centers are in range, and the other transmitters of its
         lane, in cells of the child's color, are D - 2 sides from its
         receiver (stage 2);
    5. coverage: every cell 1..len(grid) has a color, so it runs stage 1 in
       the one class of that color; a cell in no class is named.
    With (b), which sends one member of a cell per stage-1 slot, every
    discovery, counting, identity and single-believer confirmation slot
    reaches every member charged as a receiver, and every stage-2 link
    delivers.  Only what the proof leaves open gets an exact check:
    audit_coloring's pairs with a cell off 1 or 2, the single-hop check on
    cells off 1, and the noiseless stage-2 replay (_replay_slots) when a
    cell is off 1, a link off 3 or a stage-2 inequality fails; a failed
    stage-1 inequality opens every pair, or every cell; audit_coloring loops
    only over the classes with an open cell, and the single-hop check
    returns at once when no cell is open.
    (b) The trace's discovery, identity and counting records equal
    stage1_schedule's run-length records, compared record by record with the
    one in the same place (copies, then txs, then first slots) and never
    concatenated -- only the unequal records are expanded to (slot, tx)
    rows, whose multiset difference names the first differing slots, so
    records that split the same rows differently still agree -- and its
    stage-2 arrays equal the plan's; (c) the energy counters satisfy their
    defining identities, the stage-1 transmissions equal the trace's copies
    summed over its transmitters, and the stage-1 slots, stage-2 slots and
    stage-2 transmissions match their closed-form accounting identities.
    No second trial runs.
    """
    if run.channel.trace is None:
        raise ValueError("validate_run needs a trial executed with capture_trace=True")
    layout = stage1_layout(run.grid, run.coloring, run.stage1_config, run.config.protocol)
    bases, spans, _ = layout
    grid, params, positions = run.grid, run.params, run.instance.positions
    side, contained = 1.0 / grid.grid_dim, _contained(grid, positions)
    wide = ~contained | (math.sqrt(2) * side * _SLACK > params.radius)
    rule = _cell_colors(len(grid), grid.grid_dim, params.reuse_distance)
    report = AuditReport(
        audit_coloring(grid, params, run.coloring, positions, bases, contained, rule)
        + _audit_single_hop(run, bases, wide)
        + _coverage(run.coloring)
    )
    if not (
        math.sqrt(5) * side * _SLACK <= params.radius
        and _beyond((params.reuse_distance - 2) * side, params)
        and _links_adjacent(run.plan, grid.grid_dim)
        and contained.all()
    ):
        report.collision_violations += _replay_slots(run, rule)

    trace = run.channel.trace
    traced = [r for r in trace.stage1 if r.phase in ("discovery", "identity", "hist_count")]
    schedule = stage1_schedule(grid, run.coloring, layout, run.stage1_config, run.config.protocol)
    slots = _slots_off_schedule(traced, schedule)
    if slots:
        report.obliviousness_violations.append(f"stage-1 rows off the schedule at slots {slots}")
    if trace.stage2_stages != [[a.cells for a in s.arrays] for s in run.plan.stages]:
        report.obliviousness_violations.append("stage-2 array structure differs from the plan")

    m = run.metrics
    e = m.energy
    if m.em2 != e.e_t * m.tx_count or m.em1 != e.e_t * m.tx_count + e.e_r * m.rx_count:
        report.energy_violations.append("em1/em2 do not match their defining identities")
    slots2, tx2 = stage2_cost(run.plan, run.params, run.link_config, run.config.protocol)
    for name, counted, expected in (
        ("stage-1 transmissions", m.tx_stage1, sum(r.copies * r.txs.size for r in trace.stage1)),
        ("stage-1 slots", m.slots_stage1, int(spans.sum())),
        ("stage-2 slots", m.slots_stage2, slots2),
        ("stage-2 transmissions", m.tx_stage2, tx2),
    ):
        if counted != expected:
            report.energy_violations.append(
                f"{name} {counted} differ from the accounting identity {expected}"
            )
    return report


def _audit_trial(config: ExperimentConfig, n: int, trial: int = 0) -> AuditReport:
    return validate_run(run_trial(config, n, trial, capture_trace=True))


# ---------------------------------------------------------------------------
# CLI


def _int_list(text: str) -> list[int]:
    return [int(v) for v in text.split(",") if v]


_CHOICES = {"protocol": PROTOCOLS, "mode": MODES, "bit_source": BIT_SOURCES}


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    """One flag per ExperimentConfig field, in field order, typed by its annotation.

    Tuple fields take comma-separated integers; fields left unset stay None
    and fall back to the --config file or the config default.
    """
    hints = get_type_hints(ExperimentConfig)
    for f in fields(ExperimentConfig):
        hint = hints[f.name]
        if get_origin(hint) is UnionType:  # an optional field, X | None
            hint = next(a for a in get_args(hint) if a is not NoneType)
        flag = "--" + f.name.replace("_", "-")
        if f.name in _CHOICES:
            parser.add_argument(flag, choices=_CHOICES[f.name])
        elif get_origin(hint) is tuple:
            parser.add_argument(flag, type=_int_list, help="comma-separated integers")
        else:
            parser.add_argument(flag, type=hint)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="noisyplanar",
        description="Simulate MAX/histogram aggregation protocols on noisy random planar networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, text in (
        ("run", "run the configured experiment and write a JSON report"),
        ("sweep", "run a scaling sweep over several n and write JSON + CSV tables"),
        ("validate", "run with trace capture and audit interference/obliviousness/energy"),
    ):
        p = sub.add_parser(name, help=text)
        p.add_argument("--config", help="JSON file of kebab-case config keys")
        if name != "validate":
            p.add_argument("--out", help="path for the JSON report")
        if name == "sweep":
            p.add_argument("--csv", help="path for the CSV sweep table")
        _add_config_flags(p)
    return parser


def _config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    data: dict = {}
    if args.config:
        try:
            with open(args.config) as fh:
                loaded = json.load(fh)
        except (OSError, ValueError) as exc:  # unreadable, a directory, or not JSON
            raise ConfigError(f"--config {args.config}: {exc}") from exc
        if not isinstance(loaded, dict):
            raise ConfigError("--config file must hold a JSON object")
        data.update(loaded)
    for f in fields(ExperimentConfig):
        value = getattr(args, f.name)
        if value is not None:
            data[f.name.replace("_", "-")] = value
    return ExperimentConfig.from_dict(data)


def _write_or_print(text: str, path: str | None, mode: str = "w") -> None:
    if not path:
        print(text)
        return
    try:
        with open(path, mode) as fh:
            fh.write(text)
    except OSError as exc:  # a directory, a missing parent, no permission
        raise ConfigError(f"cannot write {path}: {exc.strerror}") from exc


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if not exc.code else 2

    created = []  # report files the probe below made, removed if the run fails
    try:
        config = _config_from_args(args)
        # Fail on an unwritable path before the first trial.
        for path in filter(None, (getattr(args, "out", None), getattr(args, "csv", None))):
            new = not os.path.lexists(path)
            _write_or_print("", path, "a")  # appending keeps an existing file intact
            if new:
                created.append(path)
        if args.command == "run":
            report = run_experiment(config)
            _write_or_print(report.to_json(), args.out)
            if args.out:
                for r in report.results:
                    print(
                        f"n={r['n']}: {r['trials'] - r['errors']}/{r['trials']} correct, "
                        f"mean tx={r['mean_tx']:.0f}, mean slots={r['mean_slots']:.0f}"
                    )
        elif args.command == "sweep":
            report = sweep(config)
            if args.out:
                _write_or_print(report.to_json(), args.out)
            if args.csv:
                _write_or_print(report.to_csv(), args.csv)
            if not args.csv:
                print(report.to_csv(), end="")
        else:  # validate
            failed = False
            for n in config.n:
                audit = _audit_trial(config, n)
                print(f"n={n}: {audit.summary()}")
                for v in (
                    audit.collision_violations
                    + audit.obliviousness_violations
                    + audit.energy_violations
                ):
                    print(f"  {v}", file=sys.stderr)
                failed = failed or not audit.passed
            if failed:
                return 4
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        status = 2
    except (ProtocolInfeasibleError, InfeasibleRunError, CapacityError) as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        status = 3
    else:
        return 0
    for path in created:
        os.remove(path)
    return status


if __name__ == "__main__":
    sys.exit(main())
