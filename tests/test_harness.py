"""Experiment orchestration, reports, scaling sweeps, audits, and the CLI."""

import ast
import importlib
import importlib.util
import inspect
import json
import math
import os
import re
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from noisyplanar.channel import (
    COLLIDED,
    RECEIVED,
    Channel,
    NoiseModel,
    ScheduleClass,
    distances,
    resolve_slot,
)
from noisyplanar.config import ConfigError, ExperimentConfig
from noisyplanar.geometry import CellGrid, DerivedParams, place_nodes
from noisyplanar.harness import (
    CSV_HEADER,
    RNG_LAYOUT,
    AuditReport,
    SweepReport,
    _slots_off_schedule,
    audit_coloring,
    main,
    run_experiment,
    run_trial,
    sweep,
    validate_run,
    wilson_interval,
)
from noisyplanar.intracell import stage1_layout, stage1_schedule
from noisyplanar.oracle import oracle

from conftest import dense_slot, schedule_per_cell, slot_by_slot, slot_keys, stage1_keys


class TestOracle:
    def test_all_zero(self):
        inst = place_nodes(50, seed=0)
        assert oracle(inst, "max") == 0
        assert oracle(inst, "hist") == 0

    def test_single_one(self):
        inst = place_nodes(3, seed=0).with_bits(np.array([0, 1, 0], dtype=np.int8))
        assert oracle(inst, "max") == 1
        assert oracle(inst, "hist") == 1

    def test_bernoulli_count_in_band(self):
        rng = np.random.default_rng(0)
        bits = (rng.random(1000) < 0.5).astype(np.int8)
        inst = place_nodes(1000, seed=0).with_bits(bits)
        assert abs(oracle(inst, "hist") - 500) <= 3 * math.sqrt(250)
        with pytest.raises(ValueError):
            oracle(inst, "meanish")


class TestWilson:
    def test_interval_contains_proportion(self):
        lo, hi = wilson_interval(3, 20)
        assert 0.0 <= lo <= 3 / 20 <= hi <= 1.0

    def test_width_shrinks_like_inverse_sqrt_trials(self):
        w = lambda n: -np.subtract(*wilson_interval(n // 10, n))
        ratio = w(100) / w(400)
        assert ratio == pytest.approx(2.0, rel=0.15)

    def test_zero_trials_degenerate(self):
        assert wilson_interval(0, 0) == (0.0, 1.0)


class TestRunExperiment:
    @pytest.mark.parametrize("protocol", ["max", "hist"])
    def test_noiseless_twenty_for_twenty(self, protocol):
        cfg = ExperimentConfig(
            protocol=protocol, n=(500,), trials=20, eps0=0.0, base_seed=5, bit_p=0.2
        )
        report = run_experiment(cfg)
        r = report.result_for(500)
        assert r["errors"] == 0 and r["trials"] == 20
        assert r["stage1_errors"] == 0
        assert all(row["correct"] for row in r["trials_detail"])

    def test_report_reproducible_bit_for_bit(self):
        cfg = ExperimentConfig(protocol="max", n=(400,), trials=5, eps0=0.1, base_seed=9)
        assert run_experiment(cfg).to_json() == run_experiment(cfg).to_json()

    def test_report_rows_recompute_aggregates(self):
        cfg = ExperimentConfig(protocol="max", n=(400,), trials=8, eps0=0.1, base_seed=2)
        r = run_experiment(cfg).result_for(400)
        assert r["error_rate"] == sum(not row["correct"] for row in r["trials_detail"]) / 8
        assert r["mean_tx"] == pytest.approx(
            np.mean([row["metrics"]["tx_count"] for row in r["trials_detail"]])
        )

    def test_explicit_bits_source(self):
        bits = [0] * 399 + [1]
        cfg = ExperimentConfig(
            protocol="max", n=(400,), trials=2, eps0=0.0, bit_source="explicit", bits=tuple(bits)
        )
        r = run_experiment(cfg).result_for(400)
        assert all(row["computed"] == 1 for row in r["trials_detail"])

    def test_bits_without_the_explicit_source_are_refused(self):
        # Any other source draws its own bits, so given bits would be ignored
        # while the report echoes them.
        with pytest.raises(ConfigError, match="bits need bit-source 'explicit'"):
            ExperimentConfig(n=(3,), bits=(1, 0, 1))

    def test_single_one_at_random_source(self):
        cfg = ExperimentConfig(
            protocol="hist", n=(400,), trials=4, eps0=0.0, bit_source="single-one-at-random"
        )
        r = run_experiment(cfg).result_for(400)
        assert all(row["oracle"] == 1 and row["computed"] == 1 for row in r["trials_detail"])

    def test_adversarial_noise_injection(self):
        cfg = ExperimentConfig(protocol="max", n=(400,), trials=1, eps0=0.1)
        hostile = NoiseModel(0.1, adversary=lambda s, t, r, h: 0.1)
        run = run_trial(cfg, 400, 0, noise=hostile)
        assert run.computed in (0, 1)

    def test_schema_and_config_echo(self):
        cfg = ExperimentConfig(protocol="max", n=(400,), trials=1)
        data = json.loads(run_experiment(cfg).to_json())
        assert data["schema"] == 1
        assert data["config"]["protocol"] == "max"
        assert data["config"]["bit-source"] == "bernoulli"
        assert data["results"][0]["resamples"] >= 0

    def test_run_and_sweep_reports_declare_the_rng_layout(self):
        cfg = ExperimentConfig(protocol="max", n=(400,), trials=1)
        assert RNG_LAYOUT == 6  # iid identity noise drawn from its sufficient statistics
        assert json.loads(run_experiment(cfg).to_json())["rng_layout"] == 6
        assert json.loads(SweepReport(cfg).to_json())["rng_layout"] == 6


class TestSweep:
    def test_requires_three_values_spanning_8x(self):
        with pytest.raises(ConfigError):
            sweep(ExperimentConfig(n=(500, 1000), trials=1))
        with pytest.raises(ConfigError):
            sweep(ExperimentConfig(n=(500, 1000, 2000), trials=1))

    def test_desk_scale_sweep_columns_and_csv(self):
        cfg = ExperimentConfig(protocol="max", n=(300, 900, 2400), trials=2, eps0=0.0)
        table = sweep(cfg)
        assert [r["n"] for r in table.rows] == [300, 900, 2400]
        for row in table.rows:
            for col in (
                "tx_per_n",
                "slots_norm",
                "slots_stage2_repetition_norm",
                "em1_stage1_norm",
                "hist_stage2_tx_per_n",
            ):
                assert row[col] > 0
        assert set(table.band_ratios) == {
            "tx_per_n",
            "slots_norm",
            "slots_stage2_repetition_norm",
            "em1_stage1_norm",
            "hist_stage2_tx_per_n",
        }
        csv = table.to_csv().splitlines()
        assert csv[0] == CSV_HEADER
        assert len(csv) == 4
        assert csv[1].startswith("300,2,")


class TestValidateRun:
    @pytest.mark.parametrize("protocol", ["max", "hist"])
    def test_default_runs_pass_audit(self, protocol):
        cfg = ExperimentConfig(protocol=protocol, n=(1000,), trials=1, eps0=0.1, base_seed=4)
        audit = validate_run(run_trial(cfg, 1000, 0, capture_trace=True))
        assert audit.passed, audit.summary()

    def test_miscolored_schedule_fails_with_slot_index(self):
        # Merge two grid-adjacent cells into one color class: their members
        # are within the guard ring, so the audit must name a slot.
        cfg = ExperimentConfig(protocol="max", n=(1000,), trials=1, eps0=0.0)
        run = run_trial(cfg, 1000, 0, capture_trace=True)
        bad = [ScheduleClass(color=0, cells=(1, 2))]
        violations = audit_coloring(
            run.grid, run.params, bad, run.instance.positions, class_bases={0: 120}
        )
        assert violations
        assert "slot 120" in violations[0]

    def test_moved_cell_is_named_at_its_class_base_slot(self):
        # Move cell 2, grid-adjacent to cell 1, into cell 1's color class: the
        # audit must fail, naming both cells at the class's first slot, which
        # every stage-1 slot of the class shares with them.
        cfg = ExperimentConfig(protocol="max", n=(1000,), trials=1, eps0=0.0)
        run = run_trial(cfg, 1000, 0, capture_trace=True)
        moved = []
        for cls in run.coloring:
            cells = [j for j in cls.cells if j != 2] + ([2] if 1 in cls.cells else [])
            if cells:
                moved.append(ScheduleClass(cls.color, tuple(sorted(cells))))
        run.coloring = moved
        layout = stage1_layout(run.grid, run.coloring, run.stage1_config, "max")
        cls, base = next((cls, b) for cls, b, _, _ in layout if 1 in cls.cells)
        audit = validate_run(run)
        assert not audit.passed
        assert [v for v in audit.collision_violations if v.startswith(
            f"slot {base}: same-color cells 1 and 2 (color {cls.color}) have members "
        )]

    @pytest.mark.parametrize("protocol", ["max", "hist"])
    def test_cell_beyond_single_hop_is_named(self, protocol):
        # Move a cell's second and third members to its first member
        # +-(0.9 r, 0): each is within the radius of the first but 1.8 r from
        # the other, so the cell is no longer single-hop.  Every stage-1
        # transmitter of the cell must reach every member, so the audit must
        # fail and name the cell at its class's first slot.
        cfg = ExperimentConfig(protocol=protocol, n=(1000,), trials=1, eps0=0.0)
        run = run_trial(cfg, 1000, 0, capture_trace=True)
        assert validate_run(run).passed
        cell = next(c for c in run.grid if c.index != run.grid.sink_cell and c.size >= 3)
        first, second, third = cell.members[:3].tolist()
        positions = run.instance.positions.copy()
        positions[second] = positions[first] + (0.9 * run.params.radius, 0.0)
        positions[third] = positions[first] - (0.9 * run.params.radius, 0.0)
        run.instance = replace(run.instance, positions=positions)
        layout = stage1_layout(run.grid, run.coloring, run.stage1_config, protocol)
        base = next(b for cls, b, _, _ in layout if cell.index in cls.cells)
        audit = validate_run(run)
        assert not audit.passed
        named = [v for v in audit.collision_violations if v.startswith(f"slot {base}: cell ")]
        assert named == [
            f"slot {base}: cell {cell.index} members {second} and {third} are "
            f"{1.8 * run.params.radius:.4f} apart, beyond the radius {run.params.radius:.4f}"
        ]

    def test_stage2_links_sharing_a_subslot_are_named(self):
        # Move the first cell of a three-cell array into its parent's color
        # class: both of the array's first links then fire in one subslot,
        # where the parent's center transmits while it should receive.
        cfg = ExperimentConfig(protocol="max", n=(1000,), trials=1, eps0=0.0)
        run = run_trial(cfg, 1000, 0, capture_trace=True)
        si, cells = next(
            (si, a.cells) for si, st in enumerate(run.plan.stages) for a in st.arrays
            if len(a.cells) >= 3
        )
        child, parent, grandparent = (run.grid.cell(j) for j in cells[:3])
        color = next(cls.color for cls in run.coloring if parent.index in cls.cells)
        moved = []
        for cls in run.coloring:
            cells = [j for j in cls.cells if j != child.index]
            cells += [child.index] if cls.color == color else []
            if cells:
                moved.append(ScheduleClass(cls.color, tuple(sorted(cells))))
        run.coloring = moved
        audit = validate_run(run)
        prefix = f"stage {si} subslot {color}: "
        named = [v for v in audit.collision_violations if v.startswith(prefix)]
        assert len(named) == 1
        assert f"{child.center}->{parent.center}" in named[0]
        assert f"{parent.center}->{grandparent.center}" in named[0]

    def test_coloring_without_the_last_cell_fails_the_audit(self):
        # A coloring that lists every cell but the highest-numbered one: that
        # cell's lane reads -1, so the audit runs to a failing report instead
        # of indexing past the lanes of the cells the coloring lists.
        cfg = ExperimentConfig(protocol="max", n=(2000,), trials=1, eps0=0.1, base_seed=13)
        run = run_trial(cfg, 2000, 0, capture_trace=True)
        last = len(run.grid)
        run.coloring = [
            ScheduleClass(cls.color, tuple(j for j in cls.cells if j != last))
            for cls in run.coloring
        ]
        audit = validate_run(run)
        assert not audit.passed

    def test_run_whose_coloring_leaves_out_the_last_cell_is_named(self, monkeypatch):
        # The trial itself runs on a coloring without the highest-numbered
        # cell, so the trace, the layout and the closed forms all agree and
        # that cell never runs stage 1; only the coverage count sees it.
        import noisyplanar.harness as hz

        full = hz.color_cells

        def short(grid, params):
            last = len(grid)
            return [
                ScheduleClass(c.color, tuple(j for j in c.cells if j != last))
                for c in full(grid, params)
            ]

        monkeypatch.setattr(hz, "color_cells", short)
        cfg = ExperimentConfig(protocol="max", n=(2000,), trials=1, eps0=0.1, base_seed=13)
        run = run_trial(cfg, 2000, 0, capture_trace=True)
        audit = validate_run(run)
        assert not audit.collision_free and audit.oblivious and audit.energy_exact
        assert audit.collision_violations == [f"cells [{len(run.grid)}] are in no color class"]

    def test_cells_in_several_classes_or_none_are_named(self):
        cfg = ExperimentConfig(protocol="max", n=(2000,), trials=1, eps0=0.1, base_seed=13)
        run = run_trial(cfg, 2000, 0, capture_trace=True)
        # The first class loses its first cell, and the first cells of the
        # next four classes are listed once more in a class of their own.
        first = run.coloring[0]
        lost, twice = first.cells[0], sorted(c.cells[0] for c in run.coloring[1:5])
        run.coloring = [
            ScheduleClass(first.color, first.cells[1:]),
            *run.coloring[1:],
            ScheduleClass(first.color, tuple(twice)),
        ]
        coverage = [v for v in validate_run(run).collision_violations if v.startswith("cells ")]
        assert coverage == [
            f"cells [{lost}] are in no color class",
            f"cells {twice[:3]} and 1 more are in several color classes",
        ]

    @staticmethod
    def split(record, at):
        """The record as two records that hold its rows, cut before row ``at``."""
        return [replace(record, txs=record.txs[:at], first=record.first[:at]),
                replace(record, txs=record.txs[at:], first=record.first[at:])]

    @pytest.mark.parametrize("protocol", ["max", "hist"])
    def test_schedule_split_into_other_records_is_on_schedule(self, protocol):
        cfg = ExperimentConfig(protocol=protocol, n=(2000,), trials=1, eps0=0.1)
        run = run_trial(cfg, 2000, 0, capture_trace=True)
        layout = stage1_layout(run.grid, run.coloring, run.stage1_config, protocol)
        schedule = stage1_schedule(run.grid, layout, run.stage1_config, protocol)
        traced = schedule[:1]
        halves = self.split(schedule[0], schedule[0].txs.size // 3)
        assert _slots_off_schedule(traced, halves) == []
        assert _slots_off_schedule(traced, halves[::-1]) == []
        assert _slots_off_schedule(halves[::-1], traced) == []
        assert _slots_off_schedule(schedule, [*halves, *schedule[1:]]) == []

    def test_changed_first_slot_is_named_however_the_schedule_splits(self):
        cfg = ExperimentConfig(protocol="hist", n=(2000,), trials=1, eps0=0.1)
        run = run_trial(cfg, 2000, 0, capture_trace=True)
        record = run.channel.trace.stage1[0]
        first = record.first.copy()
        first[4] += 1  # the fifth member starts, and ends, one slot late
        changed = replace(record, first=first)
        slots = self.off_schedule(record, changed)
        assert slots == [int(record.first[4]), int(record.first[4]) + run.stage1_config.r2]
        assert _slots_off_schedule([changed], [record]) == slots
        for at in (3, 5, record.txs.size // 2):
            halves = self.split(record, at)
            assert _slots_off_schedule([changed], halves) == slots
            assert _slots_off_schedule([changed], halves[::-1]) == slots

    def test_changed_schedule_names_its_first_slots(self):
        cfg = ExperimentConfig(protocol="max", n=(400,), trials=1)
        run = run_trial(cfg, 400, 0, capture_trace=True)
        trace = run.channel.trace
        i, record = next((i, r) for i, r in enumerate(trace.stage1) if r.phase == "identity")
        trace.stage1[i] = replace(record, txs=record.txs + 1)
        audit = validate_run(run)
        assert audit.energy_exact and not audit.oblivious
        slots = (record.first[0] + np.arange(3)).tolist()
        assert f"at slots {slots}" in audit.obliviousness_violations[0]

    @staticmethod
    def off_schedule(record, changed):
        """The first three slots whose (slot, tx) rows differ between two records."""
        a, b = stage1_keys([record], (record.phase,)), stage1_keys([changed], (record.phase,))
        differ = np.setxor1d(a, b)  # a record's rows are distinct
        return np.unique(differ >> 32)[:3].tolist()

    @pytest.mark.parametrize("delta", [1, -1])
    def test_wrong_copies_names_the_first_differing_slots(self, delta):
        # One more or one fewer copy per member of the first discovery
        # record: each member's last slot is added or dropped.
        cfg = ExperimentConfig(protocol="max", n=(400,), trials=1)
        run = run_trial(cfg, 400, 0, capture_trace=True)
        trace, c_rep = run.channel.trace, run.stage1_config.c_rep
        record = trace.stage1[0]
        assert record.phase == "discovery" and record.copies == c_rep
        trace.stage1[0] = changed = replace(record, copies=c_rep + delta)
        base = int(record.first[0])
        last = c_rep if delta > 0 else c_rep - 1  # offset from a member's first slot
        slots = [base + last + k * c_rep for k in range(3)]
        assert self.off_schedule(record, changed) == slots
        audit = validate_run(run)
        assert not audit.oblivious
        assert audit.obliviousness_violations == [f"stage-1 rows off the schedule at slots {slots}"]
        assert audit.energy_violations[0].startswith("stage-1 transmissions")

    def test_wrong_first_on_one_member_names_its_slots(self):
        cfg = ExperimentConfig(protocol="hist", n=(400,), trials=1)
        run = run_trial(cfg, 400, 0, capture_trace=True)
        trace, r2 = run.channel.trace, run.stage1_config.r2
        record = trace.stage1[0]
        first = record.first.copy()
        first[4] += 1  # the fifth member starts, and ends, one slot late
        trace.stage1[0] = changed = replace(record, first=first)
        slots = [int(record.first[4]), int(record.first[4]) + r2]
        assert self.off_schedule(record, changed) == slots
        audit = validate_run(run)
        assert audit.energy_exact and not audit.oblivious
        assert audit.obliviousness_violations == [f"stage-1 rows off the schedule at slots {slots}"]

    def test_schedule_shifted_in_every_run_is_caught(self, monkeypatch):
        # Every run records its identity slots one late, so a second run
        # would agree with this one; the layout's schedule does not.
        record = Channel.record

        def late_identity(self, phase, txs, first, copies):
            first = np.add(first, 1) if phase == "identity" else first
            record(self, phase, txs, first, copies)

        monkeypatch.setattr(Channel, "record", late_identity)
        cfg = ExperimentConfig(protocol="max", n=(400,), trials=1)
        run = run_trial(cfg, 400, 0, capture_trace=True)
        _, base, _, max_members = stage1_layout(run.grid, run.coloring, run.stage1_config, "max")[0]
        id_slot = run.stage1_config.phase_slots(base, max_members)[1]
        audit = validate_run(run)
        assert audit.energy_exact and not audit.oblivious
        assert f"at slots [{id_slot}," in audit.obliviousness_violations[0]

    def test_stage2_arrays_off_the_plan_are_caught(self):
        cfg = ExperimentConfig(protocol="max", n=(1000,), trials=1)
        run = run_trial(cfg, 1000, 0, capture_trace=True)
        stages = run.channel.trace.stage2_stages
        stages[0] = stages[0][1:]
        audit = validate_run(run)
        assert audit.energy_exact and not audit.oblivious
        assert audit.obliviousness_violations == ["stage-2 array structure differs from the plan"]

    @pytest.mark.parametrize("protocol", ["max", "hist"])
    def test_flipped_bits_follow_the_same_schedule(self, protocol, monkeypatch):
        # The flipped-bit run is the reference for obliviousness: explicit
        # bits keep the trial's placement and noise stream and flip every bit.
        import noisyplanar.harness as hz

        cfg = ExperimentConfig(protocol=protocol, n=(800,), trials=1, eps0=0.1)
        run = run_trial(cfg, 800, 0, capture_trace=True)
        bits = run.instance.bits
        flipped_cfg = replace(cfg, bit_source="explicit", bits=tuple(1 - bits))
        flipped = run_trial(flipped_cfg, 800, 0, capture_trace=True)
        assert np.array_equal(flipped.instance.positions, run.instance.positions)
        assert np.array_equal(flipped.instance.bits, 1 - bits)
        layout = stage1_layout(run.grid, run.coloring, run.stage1_config, protocol)
        phases = ("discovery", "identity", "hist_count")
        records = stage1_schedule(run.grid, layout, run.stage1_config, protocol)
        schedule = stage1_keys(records, phases)
        for r in (run, flipped):
            assert np.array_equal(stage1_keys(r.channel.trace.stage1, phases), schedule)
        assert flipped.channel.trace.stage2_stages == run.channel.trace.stage2_stages

        def second_trial(*args, **kwargs):
            raise AssertionError("validate_run ran a trial")

        monkeypatch.setattr(hz, "run_trial", second_trial)
        assert validate_run(run).passed and validate_run(flipped).passed

    @pytest.mark.parametrize("n", [400, 2000, 8000])
    @pytest.mark.parametrize("protocol", ["max", "hist"])
    def test_trace_expands_to_the_per_cell_schedule(self, protocol, n):
        # Noiseless, so every cell's single believer is its witness and the
        # confirmation rows follow from the witnesses.
        cfg = ExperimentConfig(protocol=protocol, n=(n,), trials=1, eps0=0.0)
        run = run_trial(cfg, n, 0, capture_trace=True)
        records, s1cfg = run.channel.trace.stage1, run.stage1_config
        phases = ["discovery", "identity", "confirmation"] if protocol == "max" else ["hist_count"]
        assert [r.phase for r in records] == phases  # one per phase, in draw order
        layout = stage1_layout(run.grid, run.coloring, s1cfg, protocol)
        oblivious = ("discovery", "identity", "hist_count")
        assert np.array_equal(
            stage1_keys(records, oblivious), schedule_per_cell(run.grid, layout, s1cfg, protocol)
        )
        if protocol == "max":
            rows = [
                (s1cfg.phase_slots(base, max_members)[2] + np.arange(s1cfg.r2),
                 np.full(s1cfg.r2, run.stage1.witnesses[j]))
                for cls, base, _, max_members in layout
                for j in cls.cells
            ]
            want = slot_keys(*(np.concatenate(column) for column in zip(*rows)))
            assert np.array_equal(stage1_keys(records, ("confirmation",)), want)

    def test_confirmation_slots_are_exempt(self):
        # Flipping every data bit changes the confirmation transmitters but
        # not the discovery/identity schedules, so the audit leaves the
        # confirmation phase, traced last under its own name, out of (b):
        # other confirmation transmitters still pass.
        cfg = ExperimentConfig(protocol="max", n=(800,), trials=1, eps0=0.0, bit_p=0.5)
        run = run_trial(cfg, 800, 0, capture_trace=True)
        trace = run.channel.trace
        assert [e.phase for e in trace.stage1] == ["discovery", "identity", "confirmation"]
        assert validate_run(run).passed
        confirmation = trace.stage1[2]
        trace.stage1[2] = replace(confirmation, txs=confirmation.txs + 1)
        assert validate_run(run).passed

    def test_requires_trace(self):
        cfg = ExperimentConfig(protocol="max", n=(400,), trials=1)
        with pytest.raises(ValueError):
            validate_run(run_trial(cfg, 400, 0))

    @pytest.mark.parametrize(
        "counter", ["tx_stage2", "slots_stage2", "slots_stage1", "tx_stage1"]
    )
    def test_stage2_accounting_identity_catches_corruption(self, counter):
        cfg = ExperimentConfig(protocol="max", n=(400,), trials=1)
        run = run_trial(cfg, 400, 0, capture_trace=True)
        assert validate_run(run).passed
        setattr(run.channel.metrics, counter, getattr(run.channel.metrics, counter) + 1)
        audit = validate_run(run)
        assert not audit.energy_exact
        assert "accounting identity" in audit.energy_violations[0]
        assert "FAIL" in audit.summary()

    @pytest.mark.parametrize("mode", ["repetition", "treecode"])
    def test_audit_covers_other_link_modes(self, mode):
        cfg = ExperimentConfig(protocol="max", n=(600,), trials=1, eps0=0.05, mode=mode)
        audit = validate_run(run_trial(cfg, 600, 0, capture_trace=True))
        assert audit.passed, audit.summary()


def _reference_audit_coloring(grid, params, coloring, positions, class_bases=None):
    """The all-pairs coloring audit: every same-class cell pair's member distances."""
    guard = (1.0 + params.delta) * params.radius
    violations = []
    for cls in coloring:
        base = (class_bases or {}).get(cls.color, 0)
        for i, a in enumerate(cls.cells):
            for b in cls.cells[i + 1 :]:
                dist = float(distances(positions, grid.cell(a).members, grid.cell(b).members).min())
                if dist < guard or dist <= params.radius:
                    ring = (
                        f"inside the guard ring {guard:.4f}"
                        if dist < guard
                        else f"within the radius {params.radius:.4f}"
                    )
                    violations.append(
                        f"slot {base}: same-color cells {a} and {b} (color {cls.color}) have "
                        f"members {dist:.4f} apart, {ring}"
                    )
    return violations


def _reference_single_hop(run, layout):
    """Every cell's all-pairs member distances against the radius."""
    positions, radius = run.instance.positions, run.params.radius
    violations = []
    for cls, base, _, _ in layout:
        for j in cls.cells:
            members = run.grid.cell(j).members.tolist()
            far = (radius, None, None)  # the first farthest pair beyond the radius
            for i, a in enumerate(members):
                for b, d in zip(members[i + 1 :], distances(positions, [a], members[i + 1 :])[0]):
                    if d > far[0]:
                        far = (float(d), a, b)
            if far[1] is not None:
                violations.append(
                    f"slot {base}: cell {j} members {far[1]} and {far[2]} are {far[0]:.4f} "
                    f"apart, beyond the radius {radius:.4f}"
                )
    return violations


def _reference_replay_slots(run, report):
    """The per-subslot stage-2 replay: one resolve_slot call per subslot."""
    params, grid = run.params, run.grid
    positions = run.instance.positions
    rng = np.random.default_rng(0)
    noiseless = NoiseModel(0.0)
    color_of = {j: cls.color for cls in run.coloring for j in cls.cells}
    for si, stage in enumerate(run.plan.stages):
        groups = {}
        for array in stage.arrays:
            for child, parent in zip(array.cells, array.cells[1:]):
                groups.setdefault(color_of[child], []).append(
                    (grid.cell(child).center, grid.cell(parent).center)
                )
        for subslot, links in groups.items():
            txs, receivers = [tx for tx, _ in links], [rx for _, rx in links]
            kinds = resolve_slot(subslot, txs, 0, receivers, positions, params, noiseless, rng)
            bad = [f"{tx}->{rx}" for (tx, rx), k in zip(links, kinds.tolist()) if k < RECEIVED]
            if bad:
                report.collision_violations.append(
                    f"stage {si} subslot {subslot}: links {', '.join(bad)} did not deliver"
                )


def _reference_collisions(run):
    """Check (a) of validate_run, built from the per-cell and all-pairs loops."""
    layout = stage1_layout(run.grid, run.coloring, run.stage1_config, run.config.protocol)
    bases = {cls.color: base for cls, base, _, _ in layout}
    report = AuditReport(
        collision_violations=_reference_audit_coloring(
            run.grid, run.params, run.coloring, run.instance.positions, bases
        )
        + _reference_single_hop(run, layout)
    )
    _reference_replay_slots(run, report)
    return report.collision_violations


def _move_cell(coloring, cell, color):
    """The coloring with one cell moved into the class of the given color."""
    moved = []
    for cls in coloring:
        cells = [j for j in cls.cells if j != cell] + ([cell] if cls.color == color else [])
        if cells:
            moved.append(ScheduleClass(cls.color, tuple(sorted(cells))))
    return moved


def _merge_pairwise(coloring):
    """The coloring with consecutive classes merged pairwise: grid neighbours
    then share a class."""
    merged = [
        ScheduleClass(a.color, tuple(sorted(a.cells + b.cells)))
        for a, b in zip(coloring[::2], coloring[1::2])
    ]
    return merged + coloring[len(merged) * 2 :]


def _hand_grid(*cells):
    """One row of hand-placed cells, each argument a cell's member positions.

    delta = 0.5 and radius = 0.1 put the guard radius at 0.15.
    """
    positions = np.array([p for members in cells for p in members], dtype=float)
    offsets = np.cumsum([0] + [len(members) for members in cells])
    lo = int(offsets[-1])
    grid = CellGrid(
        members=np.arange(lo), offsets=offsets, centers=offsets[:-1], grid_dim=len(cells),
        sink_cell=1,
    )
    params = DerivedParams(n=lo, delta=0.5, grid_dim=len(cells), radius=0.1, interference_bound=8)
    return grid, params, positions


class TestAuditAgainstPerCellReference:
    @pytest.mark.parametrize("n", [1000, 4000])
    @pytest.mark.parametrize("protocol", ["max", "hist"])
    def test_pairwise_merged_colorings(self, protocol, n):
        # Consecutive classes merged pairwise put grid neighbours in one class.
        cfg = ExperimentConfig(protocol=protocol, n=(n,), trials=1, eps0=0.1)
        run = run_trial(cfg, n, 0, capture_trace=True)
        run.coloring = _merge_pairwise(run.coloring)
        want = _reference_collisions(run)
        assert validate_run(run).collision_violations == want
        # Every merged class with two cells that share a grid edge is named.
        coords = lambda j: divmod(j - 1, run.grid.grid_dim)
        touching = {
            cls.color
            for cls in run.coloring
            for a in cls.cells
            for b in cls.cells
            if sum(abs(u - v) for u, v in zip(coords(a), coords(b))) == 1
        }
        named = {int(c) for v in want for c in re.findall(r"same-color .* \(color (\d+)\)", v)}
        assert touching
        assert touching <= named

    def test_moved_cell_colorings(self):
        cfg = ExperimentConfig(protocol="max", n=(1000,), trials=1, eps0=0.0)
        run = run_trial(cfg, 1000, 0, capture_trace=True)
        color_of = {j: cls.color for cls in run.coloring for j in cls.cells}
        array = next(a.cells for st in run.plan.stages for a in st.arrays if len(a.cells) >= 3)
        original = run.coloring
        for cell, color in ((2, color_of[1]), (array[0], color_of[array[1]])):
            run.coloring = _move_cell(original, cell, color)
            want = _reference_collisions(run)
            assert want
            assert validate_run(run).collision_violations == want

    def test_boxes_near_members_far_get_the_exact_check(self):
        # Guard radius 0.15.  Cells 1 and 2 are diagonal strips whose boxes
        # nearly touch while their members are about 0.35 apart.  Cell 3 has
        # a member 0.11 from cell 2's and cell 5 one 0.11 from cell 1's, so
        # pair order puts (1, 5) before (2, 3).  Cell 4's box is far from all.
        # No cell lies in its square, so every pair gets the exact check.
        grid, params, positions = _hand_grid(
            [(0.2, 0.5), (0.5, 0.2)],
            [(0.55, 0.55), (0.9, 0.9)],
            [(0.95, 0.8), (0.95, 0.6)],
            [(0.2, 0.95), (0.25, 0.9)],
            [(0.6, 0.25), (0.95, 0.1)],
        )
        coloring = [ScheduleClass(color=7, cells=(1, 2, 3, 4, 5))]
        got = audit_coloring(grid, params, coloring, positions, {7: 40})
        assert got == _reference_audit_coloring(grid, params, coloring, positions, {7: 40})
        assert [v.split(" (")[0] for v in got] == [
            "slot 40: same-color cells 1 and 5",
            "slot 40: same-color cells 2 and 3",
        ]

    def test_member_pair_at_exactly_the_guard_distance(self):
        # sqrt(g * g) == g in binary floating point, so cells 1 and 2 sit
        # exactly the guard apart (allowed); cells 3 and 4 sit one ulp closer.
        guard = (1.0 + 0.5) * 0.1
        grid, params, positions = _hand_grid(
            [(0.0, 0.5)], [(guard, 0.5)], [(0.0, 0.9)], [(np.nextafter(guard, 0.0), 0.9)]
        )
        assert float(distances(positions, [0], [1])[0, 0]) == guard
        coloring = [ScheduleClass(color=0, cells=(1, 2)), ScheduleClass(color=1, cells=(3, 4))]
        got = audit_coloring(grid, params, coloring, positions)
        assert got == _reference_audit_coloring(grid, params, coloring, positions)
        assert len(got) == 1 and "same-color cells 3 and 4 (color 1)" in got[0]

    def test_member_pair_at_exactly_the_radius_with_no_guard_ring(self):
        # At delta = 0 the guard ring is the radius, and a transmitter exactly
        # the radius away is in range: cell 1's listener at (0.0, 0.5) hears
        # its own transmitter and cell 2's, and collides.
        grid, params, positions = _hand_grid([(0.0, 0.5), (0.0, 0.55)], [(0.1, 0.5)])
        params = replace(params, delta=0.0)
        assert float(distances(positions, [0], [2])[0, 0]) <= params.radius
        rng = np.random.default_rng(0)
        kinds = resolve_slot(0, [1, 2], 0, [0], positions, params, NoiseModel(0.0), rng)
        assert kinds.tolist() == [COLLIDED]
        coloring = [ScheduleClass(color=0, cells=(1, 2))]
        got = audit_coloring(grid, params, coloring, positions)
        assert got == _reference_audit_coloring(grid, params, coloring, positions)
        assert got == [
            "slot 0: same-color cells 1 and 2 (color 0) have members 0.1000 apart, "
            "within the radius 0.1000"
        ]


def _count_calls(monkeypatch, names):
    """Wrap each named harness function to append its name to the returned list."""
    import noisyplanar.harness as hz

    calls = []
    for name in names:
        original = getattr(hz, name)

        def counting(*args, _name=name, _original=original, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(hz, name, counting)
    return calls


class TestAuditProof:
    @pytest.mark.parametrize("n", [1000, 4000])
    @pytest.mark.parametrize("delta", [0.0, 0.25, 0.5, 1.0, 2.0])
    @pytest.mark.parametrize("protocol", ["max", "hist"])
    def test_default_runs_are_proven_without_a_distance(self, monkeypatch, protocol, delta, n):
        # Containment, the periodic coloring, adjacency and the scalar
        # inequalities hold on a default run, so check (a) measures no
        # distance and resolves no slot; the all-pairs reference agrees.
        cfg = ExperimentConfig(protocol=protocol, n=(n,), trials=1, eps0=0.1, delta=delta)
        run = run_trial(cfg, n, 0, capture_trace=True)
        calls = _count_calls(monkeypatch, ("distances", "resolve_slot"))
        audit = validate_run(run)
        assert audit.passed, audit.summary()
        assert calls == []
        assert _reference_collisions(run) == []

    def test_failed_inequalities_send_everything_to_the_exact_checks(self, monkeypatch):
        # A slack that no bound meets fails every inequality: every same-class
        # pair, every cell and every stage-2 stage gets its exact check.
        import noisyplanar.harness as hz

        cfg = ExperimentConfig(protocol="max", n=(1000,), trials=1, eps0=0.1)
        run = run_trial(cfg, 1000, 0, capture_trace=True)
        calls = _count_calls(monkeypatch, ("distances", "resolve_slot"))
        monkeypatch.setattr(hz, "_SLACK", 10.0)
        assert validate_run(run).passed
        pairs = sum(len(cls.cells) * (len(cls.cells) - 1) // 2 for cls in run.coloring)
        assert calls.count("distances") == pairs + len(run.grid)
        assert calls.count("resolve_slot") == len(run.plan.stages)

    def test_a_link_between_cells_that_do_not_touch_is_replayed(self, monkeypatch):
        # Drop the middle cell of a three-cell array: its link then joins two
        # cells a cell apart, which the proof does not cover, so stage 2 is
        # replayed while stage 1 stays proven.
        cfg = ExperimentConfig(protocol="max", n=(1000,), trials=1, eps0=0.0)
        run = run_trial(cfg, 1000, 0, capture_trace=True)
        stages = list(run.plan.stages)
        si, ai, cells = next(
            (si, ai, a.cells) for si, st in enumerate(stages) for ai, a in enumerate(st.arrays)
            if len(a.cells) >= 3
        )
        arrays = list(stages[si].arrays)
        arrays[ai] = replace(arrays[ai], cells=cells[:1] + cells[2:])
        stages[si] = replace(stages[si], arrays=tuple(arrays))
        run.plan = replace(run.plan, stages=tuple(stages))
        calls = _count_calls(monkeypatch, ("distances", "resolve_slot"))
        audit = validate_run(run)
        assert calls == ["resolve_slot"] * len(stages)
        assert audit.obliviousness_violations == ["stage-2 array structure differs from the plan"]


class TestReplayIsArrayLevel:
    @pytest.mark.parametrize("protocol", ["max", "hist"])
    def test_one_array_call_per_stage2_stage(self, monkeypatch, protocol):
        # A default run is proven from geometry and replays nothing.  The
        # moved-child fixture breaks the periodic coloring, so stage 2 is
        # replayed: a replay that falls back to per-subslot or per-link work
        # makes more calls or returns something other than one kind array
        # per call.
        import noisyplanar.harness as hz

        cfg = ExperimentConfig(protocol=protocol, n=(2000,), trials=1, eps0=0.1)
        run = run_trial(cfg, 2000, 0, capture_trace=True)
        returned = []

        def counting(*args, **kwargs):
            kinds = resolve_slot(*args, **kwargs)
            returned.append(type(kinds))
            return kinds

        monkeypatch.setattr(hz, "resolve_slot", counting)
        assert validate_run(run).passed
        assert returned == []
        color_of = {j: cls.color for cls in run.coloring for j in cls.cells}
        array = next(a.cells for st in run.plan.stages for a in st.arrays if len(a.cells) >= 3)
        run.coloring = _move_cell(run.coloring, array[0], color_of[array[1]])
        assert not validate_run(run).passed
        color_of = {j: cls.color for cls in run.coloring for j in cls.cells}
        subslots = sum(
            len({color_of[j] for array in stage.arrays for j in array.cells[:-1]})
            for stage in run.plan.stages
        )
        assert subslots > 0
        assert len(returned) == len(run.plan.stages)
        assert len(run.plan.stages) < subslots
        assert set(returned) == {np.ndarray}

    @pytest.mark.parametrize("eps0", [0.0, 0.3])
    def test_stage_call_equals_one_call_per_subslot(self, eps0):
        # The moved-child fixture: an array's first cell moved into its
        # parent's class, so two links of one stage share a subslot.
        cfg = ExperimentConfig(protocol="max", n=(1000,), trials=1, eps0=0.0)
        run = run_trial(cfg, 1000, 0, capture_trace=True)
        color_of = {j: cls.color for cls in run.coloring for j in cls.cells}
        array = next(a.cells for st in run.plan.stages for a in st.arrays if len(a.cells) >= 3)
        color_of[array[0]] = color_of[array[1]]
        rng = np.random.default_rng(3)
        failed = 0
        for stage in run.plan.stages:
            links = [(c, p) for a in stage.arrays for c, p in zip(a.cells, a.cells[1:])]
            subslots = np.array([color_of[c] for c, _ in links])
            txs, rxs = run.grid.centers[np.array(links).T - 1]
            bits = rng.integers(2, size=len(links))
            seed = int(rng.integers(1 << 30))
            ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
            world = (run.instance.positions, run.params, NoiseModel(eps0))
            got = resolve_slot(subslots, txs, bits, rxs, *world, ours, listen_slots=subslots)
            want = slot_by_slot(subslots, txs, bits, rxs, subslots, *world, theirs)
            assert got.tolist() == want.tolist()
            assert ours.bit_generator.state == theirs.bit_generator.state
            failed += int((got < RECEIVED).sum())
        assert failed >= 2


class TestLocalPairingAgainstDenseOracle:
    @pytest.mark.parametrize("n", [8000, 32768])
    @pytest.mark.parametrize("protocol", ["max", "hist"])
    def test_every_replay_call_equals_the_dense_oracle(self, monkeypatch, protocol, n):
        # Every call the audit makes on the pairwise-merged and moved-cell
        # colorings (one per stage-2 stage; the plain coloring is proven and
        # makes none), and one class-sized two-slot call per class of each
        # coloring (each cell's first member, then its center, transmit;
        # every member of the class listens in both slots), is made again
        # with random bits and noise, against one dense single-slot call per
        # slot.
        import noisyplanar.harness as hz

        cfg = ExperimentConfig(protocol=protocol, n=(n,), trials=1, eps0=0.1)
        run = run_trial(cfg, n, 0, capture_trace=True)
        plain = run.coloring
        color_of = {j: cls.color for cls in plain for j in cls.cells}
        array = next(a.cells for st in run.plan.stages for a in st.arrays if len(a.cells) >= 3)
        calls = []

        def recording(*args, **kwargs):
            calls.append((args, kwargs["listen_slots"]))
            return resolve_slot(*args, **kwargs)

        monkeypatch.setattr(hz, "resolve_slot", recording)
        world = (run.instance.positions, run.params)
        class_calls = []
        for coloring in (
            plain,
            _merge_pairwise(plain),
            _move_cell(plain, 2, color_of[1]),
            _move_cell(plain, array[0], color_of[array[1]]),
        ):
            run.coloring = coloring
            validate_run(run)
            for k, cls in enumerate(coloring):
                members, sizes, centers = run.grid.gather(cls.cells)
                slots = np.array([2 * k, 2 * k + 1])
                txs = np.concatenate([members[sizes.cumsum() - sizes], centers])
                class_calls.append((
                    (slots.repeat(sizes.size), txs, 0, np.tile(members, 2), *world),
                    slots.repeat(members.size),
                ))
        assert len(calls) == 3 * len(run.plan.stages)  # the plain coloring is proven
        calls += class_calls
        rng = np.random.default_rng(n)
        kinds = set()
        for (slots, txs, _, listeners, positions, params, *_), listen_slots in calls:
            bits = rng.integers(2, size=len(txs))
            for eps0 in (0.0, 0.3):
                seed = int(rng.integers(1 << 30))
                world = (positions, params, NoiseModel(eps0))
                ours, theirs, single = (np.random.default_rng(seed) for _ in range(3))
                got = resolve_slot(
                    slots, txs, bits, listeners, *world, ours, listen_slots=listen_slots
                )
                want = slot_by_slot(
                    slots, txs, bits, listeners, listen_slots, *world, theirs, resolve=dense_slot
                )
                by_slot = slot_by_slot(slots, txs, bits, listeners, listen_slots, *world, single)
                assert got.tolist() == want.tolist() == by_slot.tolist()
                assert ours.bit_generator.state == theirs.bit_generator.state
                assert single.bit_generator.state == theirs.bit_generator.state
                kinds |= set(got.tolist())
        assert {COLLIDED, RECEIVED, RECEIVED + 1} <= kinds


class TestCli:
    def test_run_writes_report(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main(
            [
                "run",
                "--protocol",
                "max",
                "--n",
                "400",
                "--trials",
                "2",
                "--eps0",
                "0.0",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        data = json.loads(out.read_text())
        assert data["schema"] == 1
        assert data["results"][0]["errors"] == 0
        assert "n=400" in capsys.readouterr().out

    def test_config_file_round_trip(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(
            json.dumps(
                {
                    "protocol": "hist",
                    "n": [400],
                    "trials": 2,
                    "eps0": 0.0,
                    "bit-source": "bernoulli",
                    "bit-p": 0.25,
                    "base-seed": 3,
                }
            )
        )
        out = tmp_path / "r.json"
        assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        assert data["config"]["protocol"] == "hist"
        assert data["config"]["bit-p"] == 0.25

    def test_flags_override_config_file(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"protocol": "max", "n": [400], "trials": 1}))
        out = tmp_path / "r.json"
        assert main(["run", "--config", str(cfg_path), "--trials", "3", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["config"]["trials"] == 3

    def test_unknown_config_key_is_exit_2(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"protocll": "max"}))
        assert main(["run", "--config", str(cfg_path)]) == 2

    def test_bad_flag_value_is_exit_2(self):
        assert main(["run", "--protocol", "median"]) == 2

    def test_bad_sweep_range_is_exit_2(self):
        assert main(["sweep", "--n", "400,500,600", "--trials", "1"]) == 2

    @pytest.mark.parametrize(
        "flags",
        [
            ["--mode", "treecode", "--alphabet", "6"],
            ["--c-rep", "1", "--eps0", "0.1"],
            ["--l1", "3"],
        ],
        ids=["treecode-alphabet", "discovery-budget", "identity-code-length"],
    )
    def test_library_rule_violation_is_exit_2(self, flags, capsys):
        assert main(["run", "--n", "400", *flags]) == 2
        assert "config error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--k-rs", "inf", "k-rs must be a finite number, got inf"),
            ("--delta", "inf", "delta must be a finite number, got inf"),
            ("--delta", "nan", "delta must be a finite number, got nan"),
            ("--gamma", "nan", "gamma must be a finite number, got nan"),
            ("--e-t", "nan", "e-t must be a finite number, got nan"),
            ("--e-r", "inf", "e-r must be a finite number, got inf"),
            ("--eps0", "nan", "eps0 must be a finite number, got nan"),
            ("--base-seed", "-1", "base-seed must be >= 0, got -1"),
            ("--code-seed", "-1", "code-seed must be >= 0, got -1"),
            ("--treecode-seed", "-1", "treecode-seed must be >= 0, got -1"),
        ],
    )
    def test_non_finite_or_negative_seed_is_exit_2(self, flag, value, message, tmp_path, capsys):
        # Past validation these crash a trial or reach the report as NaN or
        # Infinity, which are not JSON: one config error line, and no report.
        out = tmp_path / "r.json"
        assert main(["run", "--n", "500", "--trials", "1", flag, value, "--out", str(out)]) == 2
        assert capsys.readouterr().err.splitlines() == [f"config error: {message}"]
        assert not out.exists()

    def test_bits_without_the_explicit_source_are_exit_2(self, capsys):
        assert main(["run", "--n", "10", "--bits", "1,0", "--trials", "1"]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "config error: bits need bit-source 'explicit', got 'bernoulli'"
        ]

    def test_k_rs_overflowing_a_slot_count_is_exit_2(self, tmp_path, capsys):
        # ceil(k_rs * rounds) of an abstract array is infinite at 1e308; 1e300 runs.
        out = tmp_path / "r.json"
        argv = ["run", "--n", "500", "--trials", "1", "--out", str(out), "--k-rs"]
        assert main([*argv, "1e308"]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "config error: k-rs * 14 rounds must be finite at n=500, got k-rs 1e+308"
        ]
        assert not out.exists()
        assert main([*argv, "1e300"]) == 0
        assert out.exists()

    @pytest.mark.parametrize("command", ["run", "sweep", "validate"])
    @pytest.mark.parametrize(
        "flag, value, counter, scale",
        [
            ("--k-rs", "1e305", "slots_total", "k-rs"),
            ("--e-t", "1e308", "em1", "e-t or e-r"),
            ("--e-r", "1e308", "em1", "e-t or e-r"),
        ],
    )
    def test_counters_past_a_float_are_exit_2(
        self, tmp_path, capsys, command, flag, value, counter, scale
    ):
        # Each ceil(k_rs * rounds) fits a float at 1e305, but the trial's slot
        # total does not; 1e308 per transmission or reception sums to infinity.
        out = tmp_path / "r.json"
        argv = [command, "--n", "500,1500,4000" if command == "sweep" else "500"]
        argv += ["--trials", "1", flag, value]
        if command != "validate":
            argv += ["--out", str(out)]
        assert main(argv) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"config error: n=500, trial 0: {counter} does not fit a float; lower {scale}"
        ]
        assert not out.exists() or out.read_text() == ""

    FAILING_RUN = ["run", "--n", "500", "--trials", "1", "--k-rs", "1e305"]  # exit 2

    def test_a_failed_run_leaves_no_report_file(self, tmp_path):
        out = tmp_path / "r.json"
        assert main([*self.FAILING_RUN, "--out", str(out)]) == 2
        assert not out.exists()

    def test_a_failed_sweep_leaves_no_report_files(self, tmp_path):
        # c_rep = 9 misses the discovery budget at eps0 = 0.3.
        out, csv = tmp_path / "s.json", tmp_path / "c.csv"
        argv = ["sweep", "--n", "3,30,300", "--trials", "1", "--eps0", "0.3"]
        assert main([*argv, "--out", str(out), "--csv", str(csv)]) == 2
        assert not out.exists() and not csv.exists()

    def test_a_failed_run_keeps_an_existing_report(self, tmp_path):
        out = tmp_path / "r.json"
        out.write_bytes(b'{"kept": true}\n')
        assert main([*self.FAILING_RUN, "--out", str(out)]) == 2
        assert out.read_bytes() == b'{"kept": true}\n'

    @pytest.mark.parametrize("mode", ["abstract", "repetition", "treecode"])
    @pytest.mark.parametrize("protocol", ["max", "hist"])
    def test_a_one_cell_grid_runs_and_validates(self, tmp_path, protocol, mode):
        # At n = 3 the grid is 1 x 1, so the plan has no sub-stages.
        argv = ["--protocol", protocol, "--mode", mode, "--n", "3", "--trials", "2"]
        argv += ["--eps0", "0.1"]
        out = tmp_path / "r.json"
        assert main(["run", *argv, "--out", str(out)]) == 0
        assert json.loads(out.read_text())["results"][0]["mean_slots_stage2"] == 0
        assert main(["validate", *argv]) == 0

    @pytest.mark.parametrize(
        "pad", ["-1", "-20"], ids=["pad-short-of-the-protocol", "pad-leaving-no-depth"]
    )
    def test_negative_treecode_pad_is_exit_2(self, pad, capsys):
        # A tree shorter than the protocol never carries its payload rounds,
        # and one of depth <= 0 cannot be built.
        code = main(
            ["run", "--protocol", "max", "--mode", "treecode", "--n", "600", "--trials", "10",
             "--eps0", "0", "--treecode-pad", pad, "--bit-source", "single-one-at-random"]
        )
        assert code == 2
        assert "config error: treecode-pad must be >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize("d_max", ["0", "21", "40"])
    def test_decoding_cap_outside_its_range_is_exit_2(self, d_max, monkeypatch, capsys):
        # Histogram arrays at n = 8000 need 22 rounds: a cap of 40 would build
        # a depth-28 tree, 2^29 int64 labels.  The config is refused first.
        import noisyplanar.harness as hz

        def no_trial(*args, **kwargs):
            raise AssertionError("a trial ran")

        monkeypatch.setattr(hz, "run_trial", no_trial)
        code = main(
            ["run", "--protocol", "hist", "--mode", "treecode", "--n", "8000", "--trials", "1",
             "--d-max", d_max]
        )
        assert code == 2
        assert f"config error: d-max must lie in 1..20, got {d_max}" in capsys.readouterr().err

    def test_validate_takes_no_out(self, tmp_path):
        # validate writes no report, so an --out it would ignore is refused.
        path = tmp_path / "v.json"
        assert main(["validate", "--n", "400", "--trials", "1", "--out", str(path)]) == 2
        assert not path.exists()

    def test_infeasible_treecode_depth_is_exit_3(self):
        # Histogram arrays at n = 4000 need q + g - 1 = 19 rounds, beyond the
        # default decoding cap of 16.
        code = main(
            ["run", "--protocol", "hist", "--mode", "treecode", "--n", "4000", "--trials", "1"]
        )
        assert code == 3

    def test_sweep_names_the_histogram_column_past_the_tree_code_cap(self, tmp_path):
        # The sweep's hist_stage2_tx column prices the histogram protocol.  At
        # the default cap of 16 rounds its arrays fit at n = 300 and 900 but
        # not at 2400, and at a cap of 8 at no n, while every MAX trial fits:
        # the column reads null where the arrays do not fit, and so does its
        # band ratio, while the sweep succeeds.
        base = ["sweep", "--protocol", "max", "--mode", "treecode", "--n", "300,900,2400",
                "--trials", "1", "--eps0", "0.05"]
        for flags, fits in (([], [True, True, False]), (["--d-max", "8"], [False] * 3)):
            out = tmp_path / "sweep.json"
            assert main(base + flags + ["--out", str(out)]) == 0
            report = json.loads(out.read_text())
            rows = report["rows"]
            assert [r["hist_stage2_tx"] is not None for r in rows] == fits
            assert [r["hist_stage2_tx_per_n"] is not None for r in rows] == fits
            assert all(r["tx_per_n"] > 0 for r in rows)
            assert report["band_ratios"]["hist_stage2_tx_per_n"] is None
            assert report["band_ratios"]["tx_per_n"] > 0

    def test_sweep_of_a_zero_column_writes_strict_json(self, tmp_path):
        # With e-t = e-r = 0 the stage-1 energy column reads 0 at every n, so
        # its band ratio is null: Infinity is not JSON, and a strict parser
        # refuses it.
        out = tmp_path / "sweep.json"
        argv = ["sweep", "--n", "300,900,2400", "--trials", "1", "--e-t", "0", "--e-r", "0"]
        assert main(argv + ["--out", str(out)]) == 0

        def refuse(constant):
            raise ValueError(f"{constant} is not JSON")

        report = json.loads(out.read_text(), parse_constant=refuse)
        assert [r["em1_stage1_norm"] for r in report["rows"]] == [0.0] * 3
        assert report["band_ratios"]["em1_stage1_norm"] is None
        assert report["band_ratios"]["tx_per_n"] > 0

    def test_readme_config_keys_are_the_config_fields_and_flags(self, capsys):
        readme = (Path(__file__).parent.parent / "README.md").read_text()
        paragraph = readme.split("`--config file.json` accepts", 1)[1].split("flags override", 1)[0]
        listed = re.findall(r"`([a-z0-9-]+)`", paragraph)
        keys = [f.name.replace("_", "-") for f in fields(ExperimentConfig)]
        assert listed == keys
        for command in ("run", "sweep", "validate"):
            assert main([command, "--help"]) == 0
            usage = capsys.readouterr().out
            assert all(f"--{key} " in usage for key in keys), command

    def test_sweep_writes_csv(self, tmp_path):
        csv_path = tmp_path / "table.csv"
        code = main(
            [
                "sweep",
                "--protocol",
                "max",
                "--n",
                "300,900,2400",
                "--trials",
                "1",
                "--csv",
                str(csv_path),
            ]
        )
        assert code == 0
        lines = csv_path.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 4

    def test_validate_subcommand_passes(self, capsys):
        code = main(
            ["validate", "--protocol", "max", "--n", "600", "--trials", "1", "--eps0", "0.1"]
        )
        assert code == 0
        assert "collision-free: ok" in capsys.readouterr().out

    def test_missing_config_file_is_exit_2(self):
        assert main(["run", "--config", "/nonexistent/cfg.json"]) == 2

    @pytest.mark.parametrize(
        "content,key",
        [
            ('{"n": ', None),
            (None, None),
            ('{"n": "abc"}', "n"),
            ('{"trials": 1.5}', "trials"),
            ('{"n": 400.7}', "n"),
            ('{"n": [400, 600.5, 800]}', "n"),
            ('{"n": 3, "bit-source": "explicit", "bits": [0.5, 1, 0]}', "bits"),
        ],
        ids=[
            "not-json",
            "directory",
            "n-not-an-integer",
            "trials-not-an-integer",
            "n-a-float",
            "n-list-holding-a-float",
            "bits-holding-a-float",
        ],
    )
    def test_bad_config_file_is_exit_2(self, tmp_path, content, key, capsys):
        path = tmp_path / "cfg.json"
        if content is None:
            path.mkdir()
        else:
            path.write_text(content)
        assert main(["run", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert "config error:" in err
        if key is not None:
            assert f"config error: {key} must" in err

    @pytest.mark.parametrize(
        "command,flag,target",
        [
            ("run", "--out", "existing-directory"),
            ("run", "--out", "missing-parent"),
            ("run", "--out", "under-a-file"),
            ("sweep", "--csv", "existing-directory"),
            ("sweep", "--out", "under-a-file"),
        ],
    )
    def test_unwritable_output_path_is_exit_2(self, tmp_path, command, flag, target, capsys):
        (tmp_path / "existing-directory").mkdir()
        (tmp_path / "a-file").write_text("")
        path = {
            "existing-directory": tmp_path / "existing-directory",
            "missing-parent": tmp_path / "missing" / "report.json",
            "under-a-file": tmp_path / "a-file" / "report.json",
        }[target]
        n = "400" if command == "run" else "300,900,2400"
        assert main([command, "--n", n, "--trials", "1", flag, str(path)]) == 2
        assert f"config error: cannot write {path}:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command,flag,target",
        [
            ("run", "--out", "existing-directory"),
            ("sweep", "--out", "under-a-file"),
            ("sweep", "--csv", "missing-parent"),
        ],
    )
    def test_unwritable_output_path_fails_before_the_first_trial(
        self, tmp_path, monkeypatch, command, flag, target, capsys
    ):
        import noisyplanar.harness as hz

        def no_trial(*args, **kwargs):
            raise hz.InfeasibleRunError("a trial ran")

        monkeypatch.setattr(hz, "run_trial", no_trial)
        (tmp_path / "existing-directory").mkdir()
        (tmp_path / "a-file").write_text("")
        path = {
            "existing-directory": tmp_path / "existing-directory",
            "missing-parent": tmp_path / "missing" / "table.csv",
            "under-a-file": tmp_path / "a-file" / "report.json",
        }[target]
        n = "400" if command == "run" else "300,900,2400"
        assert main([command, "--n", n, "--trials", "1", flag, str(path)]) == 2
        assert f"config error: cannot write {path}:" in capsys.readouterr().err

    @pytest.mark.parametrize("command,flag", [("run", "--out"), ("sweep", "--csv")])
    def test_infeasible_run_keeps_an_existing_output_file(
        self, tmp_path, monkeypatch, command, flag
    ):
        import noisyplanar.harness as hz

        def infeasible(*args, **kwargs):
            raise hz.InfeasibleRunError("no world")

        monkeypatch.setattr(hz, "run_trial", infeasible)
        path = tmp_path / "earlier.out"
        path.write_text("an earlier report\n")
        n = "400" if command == "run" else "300,900,2400"
        assert main([command, "--n", n, "--trials", "1", flag, str(path)]) == 3
        assert path.read_text() == "an earlier report\n"

    def test_failed_audit_is_exit_4(self, monkeypatch, capsys):
        import noisyplanar.harness as hz

        broken = hz.AuditReport(collision_violations=["slot 3: synthetic violation"])
        monkeypatch.setattr(hz, "_audit_trial", lambda cfg, n, trial=0: broken)
        assert main(["validate", "--n", "400", "--trials", "1"]) == 4
        assert "synthetic violation" in capsys.readouterr().err


def test_benchmark_patch_points_exist():
    # The traced benchmark swaps a timing wrapper in at each (owner, attr) of
    # benchmarks/tracing.PATCHES; a renamed or dropped attribute breaks it.
    path = Path(__file__).parent.parent / "benchmarks" / "tracing.py"
    spec = importlib.util.spec_from_file_location("benchmark_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [(owner, attr) for owner, attr, *_ in tracing.PATCHES if attr not in vars(owner)]
    assert not missing


def test_micro_benchmark_imports_exist():
    # benchmarks/micro sits outside testpaths, so a renamed or dropped name
    # that it imports from the package would break it silently.
    imported = []
    for path in sorted((Path(__file__).parent.parent / "benchmarks" / "micro").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "noisyplanar":
                imported += [(path.name, node.module, alias.name) for alias in node.names]
    assert imported
    missing = [
        (file, module, name)
        for file, module, name in imported
        if not hasattr(importlib.import_module(module), name)
    ]
    assert not missing


def test_benchmark_runner_reads_existing_names():
    # benchmarks/run.py reads the package as ``npl.<name>`` and calls
    # distribute_result positionally; a rename or a signature change there
    # would surface only when the benchmark runs.
    import noisyplanar

    tree = ast.parse((Path(__file__).parent.parent / "benchmarks" / "run.py").read_text())
    names = {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
        and node.value.id == "npl"
    }
    assert "distribute_result" in names
    assert not [name for name in sorted(names) if not hasattr(noisyplanar, name)]
    calls = [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and node.func.attr == "distribute_result"
    ]
    assert calls
    signature = inspect.signature(noisyplanar.distribute_result)
    for call in calls:
        assert not any(isinstance(arg, ast.Starred) for arg in call.args)
        assert all(kw.arg for kw in call.keywords)  # no **mapping
        signature.bind(*call.args, **{kw.arg: kw.value for kw in call.keywords})


def test_package_import_leaves_scipy_unloaded():
    # scipy is a test dependency only; importing it costs about half a
    # second and 38 MB of resident memory at start-up.
    import noisyplanar

    src = str(Path(noisyplanar.__file__).parent.parent)
    code = "import sys, noisyplanar; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


def test_micro_benchmarks_run():
    # benchmarks/micro sits outside testpaths; running its kernels once, untimed,
    # catches drift in the package API they call, not only in their imports.
    root = Path(__file__).parent.parent
    out = subprocess.run(
        [sys.executable, "-m", "pytest", "benchmarks/micro", "-q", "--benchmark-disable",
         "-p", "no:cacheprovider"],
        cwd=root, capture_output=True, text=True,
    )
    assert out.returncode == 0, out.stdout[-2000:] + out.stderr[-2000:]
