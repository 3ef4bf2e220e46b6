"""Experiment orchestration, reports, scaling sweeps, audits, and the CLI."""

import ast
import importlib
import importlib.util
import json
import math
import re
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from noisyplanar.channel import NoiseModel, ScheduleClass
from noisyplanar.config import ConfigError, ExperimentConfig
from noisyplanar.geometry import place_nodes
from noisyplanar.harness import (
    CSV_HEADER,
    audit_coloring,
    main,
    run_experiment,
    run_trial,
    sweep,
    validate_run,
    wilson_interval,
)
from noisyplanar.intracell import stage1_layout
from noisyplanar.oracle import oracle


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

    def test_single_one_at_random_source(self):
        cfg = ExperimentConfig(
            protocol="hist", n=(400,), trials=4, eps0=0.0, bit_source="single-one-at-random"
        )
        r = run_experiment(cfg).result_for(400)
        assert all(row["oracle"] == 1 and row["computed"] == 1 for row in r["trials_detail"])

    def test_adversarial_noise_injection(self):
        cfg = ExperimentConfig(protocol="max", n=(400,), trials=1, eps0=0.1)
        hostile = NoiseModel(0.1, mode="adversarial", adversary=lambda s, t, r, h: 0.1)
        run = run_trial(cfg, 400, 0, noise=hostile)
        assert run.computed in (0, 1)

    def test_schema_and_config_echo(self):
        cfg = ExperimentConfig(protocol="max", n=(400,), trials=1)
        data = json.loads(run_experiment(cfg).to_json())
        assert data["schema"] == 1
        assert data["config"]["protocol"] == "max"
        assert data["config"]["bit-source"] == "bernoulli"
        assert data["results"][0]["resamples"] >= 0


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

    def test_identity_replay_names_an_identity_slot(self):
        # Move cell 2, grid-adjacent to cell 1, into cell 1's color class: the
        # identity replay must name the class's first identity slot, which
        # follows c_rep slots per member of the class's largest cell.
        cfg = ExperimentConfig(protocol="max", n=(1000,), trials=1, eps0=0.0)
        run = run_trial(cfg, 1000, 0, capture_trace=True)
        moved = []
        for cls in run.coloring:
            cells = [j for j in cls.cells if j != 2] + ([2] if 1 in cls.cells else [])
            if cells:
                moved.append(ScheduleClass(cls.color, tuple(sorted(cells))))
        run.coloring = moved
        layout = stage1_layout(run.grid, run.coloring, run.stage1_config, "max")
        base, max_members = next((b, m) for cls, b, _, m in layout if 1 in cls.cells)
        id_slot = base + run.stage1_config.c_rep * max_members
        audit = validate_run(run)
        identity = [v for v in audit.collision_violations if v.startswith("identity")]
        assert identity
        assert all(v.startswith(f"identity slot {id_slot}: ") for v in identity)

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

    def test_changed_schedule_names_its_first_slots(self):
        cfg = ExperimentConfig(protocol="max", n=(400,), trials=1)
        run = run_trial(cfg, 400, 0, capture_trace=True)
        trace = run.channel.trace
        i, record = next((i, r) for i, r in enumerate(trace.stage1) if r.phase == "identity")
        trace.stage1[i] = replace(record, txs=record.txs + 1)
        audit = validate_run(run)
        assert audit.energy_exact and not audit.oblivious
        assert f"at slots {record.slots[:3].tolist()}" in audit.obliviousness_violations[0]

    @pytest.mark.parametrize("protocol", ["max", "hist"])
    def test_trace_holds_one_record_per_cell_and_phase(self, protocol):
        cfg = ExperimentConfig(protocol=protocol, n=(800,), trials=1, eps0=0.1)
        run = run_trial(cfg, 800, 0, capture_trace=True)
        phases = ("discovery", "identity", "confirmation") if protocol == "max" else ("hist_count",)
        keys = sorted((r.cell, r.phase) for r in run.channel.trace.stage1)
        assert keys == sorted((c.index, phase) for c in run.grid for phase in phases)

    def test_confirmation_slots_are_exempt(self):
        # Flipping every data bit changes the confirmation transmitters but
        # not the discovery/identity schedules, so the audit still passes;
        # the trace must mark confirmation as data-dependent.
        cfg = ExperimentConfig(protocol="max", n=(800,), trials=1, eps0=0.0, bit_p=0.5)
        run = run_trial(cfg, 800, 0, capture_trace=True)
        phases = {e.phase for e in run.channel.trace.stage1}
        assert "confirmation" in phases
        assert all(
            e.data_dependent for e in run.channel.trace.stage1 if e.phase == "confirmation"
        )
        assert all(
            not e.data_dependent
            for e in run.channel.trace.stage1
            if e.phase in ("discovery", "identity")
        )
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

    def test_infeasible_treecode_depth_is_exit_3(self):
        # Histogram arrays at n = 4000 need q + g - 1 = 19 rounds, beyond the
        # default decoding cap of 16.
        code = main(
            ["run", "--protocol", "hist", "--mode", "treecode", "--n", "4000", "--trials", "1"]
        )
        assert code == 3

    def test_sweep_names_the_histogram_column_past_the_tree_code_cap(self, capsys):
        # MAX arrays fit a cap of 8 rounds here, but the sweep's hist_stage2_tx
        # column prices the histogram protocol, whose arrays need more.
        code = main(
            ["sweep", "--protocol", "max", "--mode", "treecode", "--n", "300,900,2400",
             "--trials", "1", "--d-max", "8"]
        )
        assert code == 3
        err = capsys.readouterr().err
        assert "hist_stage2_tx" in err and "treecode mode" in err

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
