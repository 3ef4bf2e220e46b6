"""Golden reports: pinned digests of whole runs, so a refactor cannot move a byte."""

import hashlib
import json

import numpy as np
import pytest

from noisyplanar.channel import NoiseModel
from noisyplanar.config import ExperimentConfig
from noisyplanar.harness import run_experiment, run_trial, validate_run
from noisyplanar.intercell import distribute_result

# A declared RNG-layout change updates these digests in the same change.  Layouts
# 3, 4 and 5 (harness.RNG_LAYOUT) each moved only max-abstract-2000's content
# (its believers, so its confirmation counts); the other four differ from layout
# 2's digests by the "rng_layout" key alone.  Layout 4 draws every
# majority-decoded bit from one uniform: at eps0 = 0.1 and these repeat counts
# no such bit decodes wrong either way, so only the MAX run whose identity
# draws follow its discovery draws in the stream moved.  Layout 5 keeps layout
# 4's draws and sizes the identity code to the largest cell: in
# max-abstract-2000, trials 1 and 2 each gain one believer and one r2-copy
# confirmation (+23 tx); the other four re-serialise to layout 4's digests
# (LAYOUT_4), and the histogram reports to layout 2's (LAYOUT_2).  Layout 6
# draws iid identity noise from each member's sufficient statistics: every
# report moved by its "rng_layout" key alone (LAYOUT_5).
GOLDEN = [
    (dict(protocol="max", mode="abstract", n=(2000,), trials=3, eps0=0.1),
     "f299d9e8ab953ca449edf27f0aad2a180fde4f5a2374085072216efbd8f453ac"),
    (dict(protocol="hist", mode="repetition", n=(2000,), trials=3, eps0=0.1),
     "8636371ce65d77157098d973acd2e6b96dd2350317486f8191aa556a34f6ba0f"),
    (dict(protocol="max", mode="repetition", n=(1500,), trials=2, eps0=0.1),
     "422795c47291e15b74708de6e14646c791653a75731ff0621413baab51c70081"),
    (dict(protocol="max", mode="treecode", n=(600,), trials=2, eps0=0.05),
     "ed4fddf235b0746343b9fef900293ce650d7b843a9f390ae1c1b42cb68fbb5bc"),
    (dict(protocol="hist", mode="abstract", n=(3000,), trials=2, eps0=0.0),
     "a75d83fe8cdb395a6c7d0bc308d77ba46fec9f160b7f4a3ef87c1a751f5e1554"),
    # A 64 x 64 grid: 4,096 cells, where the goldens above stop at 144.
    (dict(protocol="max", mode="abstract", n=(131072,), trials=2, eps0=0.1),
     "5a77c3e2fae4aad466c79f997fb21d306abce356dfd0d227fd30a95ceb40c6d3"),
    (dict(protocol="hist", mode="repetition", n=(131072,), trials=2, eps0=0.1),
     "228a0d8ab1076ed7f48abd6acf8c0b0b47c6af66325733bfb276a6b41816f641"),
]
IDS = [f"{f['protocol']}-{f['mode']}-{f['n'][0]}" for f, _ in GOLDEN]
LAYOUT_5 = {
    "max-abstract-2000": "dbf415004041bbf45eae0cfd34c936d82c512d87d9c8473805fd8992c55a69d7",
    "hist-repetition-2000": "052ae234346093651d2b4aea4f1a2dec26e526cba5c685682ad1930637ec2593",
    "max-repetition-1500": "8da5ea7983ef8bfb91e2a2478d86c901b969834890e899a3259c30639a2acfa1",
    "max-treecode-600": "798812e306c03c322910c427a3ad4f1d0a6d7cb1e7caa9f3beb0824da75f2f79",
    "hist-abstract-3000": "c3b0f10720813128ddec98b477d4229164927e5a50d823ba62fa818b3d925f21",
}
LAYOUT_4 = {
    "hist-repetition-2000": "d103081a88beb7f7e6a82b3910d2842c9a8951a505de0ccd6891c84a775169c7",
    "max-repetition-1500": "7d7b1ec9b9b77dc5f0ccd3b6f1b629930e2f4757109d0da22121963a92e436d6",
    "max-treecode-600": "133121ecc0ab5814e064acacd4bc7cd97f5f1d94db81ac3e05187677cf384a7c",
    "hist-abstract-3000": "775104a8609e1fdaa17455ac20bc2df1a28cb2a091fd4a79a85de51715e6c927",
}
LAYOUT_2 = {
    "hist-repetition-2000": "7d0b3bf96e6a32ba00b284a7d59c942ecaf0239b531517c6759adfe60e39338d",
    "hist-abstract-3000": "78268bc8c4854183a11cd4c05723c6a1429289197f58f2e4a01b48c77023090d",
}


@pytest.mark.parametrize("fields, digest", GOLDEN, ids=IDS)
def test_report_digest_is_pinned(fields, digest):
    report = run_experiment(ExperimentConfig(base_seed=13, **fields))
    assert hashlib.sha256(report.to_json().encode()).hexdigest() == digest


@pytest.mark.parametrize("name", LAYOUT_2)
def test_report_as_layout_2_keeps_its_layout_2_digest(name):
    fields, _ = GOLDEN[IDS.index(name)]
    report = run_experiment(ExperimentConfig(base_seed=13, **fields)).to_dict()
    assert report["rng_layout"] == 6
    text = json.dumps({**report, "rng_layout": 2}, sort_keys=True, indent=2)
    assert hashlib.sha256(text.encode()).hexdigest() == LAYOUT_2[name]


@pytest.mark.parametrize("name", LAYOUT_5)
def test_report_as_layout_5_keeps_its_layout_5_digest(name):
    fields, _ = GOLDEN[IDS.index(name)]
    report = run_experiment(ExperimentConfig(base_seed=13, **fields)).to_dict()
    text = json.dumps({**report, "rng_layout": 5}, sort_keys=True, indent=2)
    assert hashlib.sha256(text.encode()).hexdigest() == LAYOUT_5[name]


@pytest.mark.parametrize("name", LAYOUT_4)
def test_report_as_layout_4_keeps_its_layout_4_digest(name):
    fields, _ = GOLDEN[IDS.index(name)]
    report = run_experiment(ExperimentConfig(base_seed=13, **fields)).to_dict()
    text = json.dumps({**report, "rng_layout": 4}, sort_keys=True, indent=2)
    assert hashlib.sha256(text.encode()).hexdigest() == LAYOUT_4[name]


def test_two_word_identity_trial_row_is_pinned():
    # The goldens at n <= 8,000 send every identity block in one uint64 word;
    # n = 70,000 sends its message bits in a 68-bit, two-word block.
    cfg = ExperimentConfig(protocol="max", mode="abstract", n=(70000,), trials=1, eps0=0.1,
                           base_seed=13)
    (row,) = run_experiment(cfg).result_for(70000)["trials_detail"]
    digest = hashlib.sha256(json.dumps(row, sort_keys=True).encode()).hexdigest()
    assert digest == "abf8a1198e7d80dbaf098498ac8a0922b6193b5fe7e5e87b5af47ecf6b6da92f"


def test_hist_repetition_trial_row_at_64x64_is_pinned():
    # n = 131,072 runs stage 2's array pass over 390 repetition arrays in 6
    # sub-stages; this pins trial 0's row alone.
    cfg = ExperimentConfig(protocol="hist", mode="repetition", n=(131072,), trials=1, eps0=0.1,
                           base_seed=13)
    (row,) = run_experiment(cfg).result_for(131072)["trials_detail"]
    digest = hashlib.sha256(json.dumps(row, sort_keys=True).encode()).hexdigest()
    assert digest == "a4c6f5e50461dd765ad700f806a7d476be11444bc75b7e54f2869f8d43d2f06b"


def test_traced_max_trial_verdict_is_pinned():
    cfg = ExperimentConfig(protocol="max", n=(8000,), trials=1, eps0=0.1, base_seed=13)
    audit = validate_run(run_trial(cfg, 8000, 0, capture_trace=True))
    verdict = (audit.collision_violations, audit.obliviousness_violations, audit.energy_violations)
    assert verdict == ([], [], [])


def _hooked_digest(protocol, mode, n, eps0):
    """SHA-256 of one hooked trial 0: the computed value, the stage-1 values,
    the metrics, every (slot, tx, rx) the hook is asked about and, for MAX,
    the distributed node values."""
    calls = []

    def hook(slot, tx, rx, history):
        calls.append((slot, tx, rx))
        return eps0 * ((7 * slot + 3 * tx + rx) % 5) / 4

    cfg = ExperimentConfig(protocol=protocol, mode=mode, n=(n,), trials=1, eps0=eps0,
                           base_seed=13)
    run = run_trial(cfg, n, 0, noise=NoiseModel(eps0, hook))
    digest = hashlib.sha256()
    digest.update(json.dumps([run.computed, run.metrics.snapshot()], sort_keys=True).encode())
    digest.update(np.asarray(run.stage1.values, dtype=np.int64).tobytes())
    if protocol == "max":
        values = distribute_result(
            run.tree, run.plan, run.computed, run.link_config, run.stage1_config.r2,
            run.channel, run.grid, run.params, run.coloring,
        )
        digest.update(np.asarray(values, dtype=np.int64).tobytes())
    digest.update(np.array(calls, dtype=np.int64).tobytes())
    return digest.hexdigest()


# Hooked trials, whose draws the iid goldens above never reach: the hook's
# answers vary with the reception, so a moved slot, transmitter, receiver or
# batch order moves the digest.
HOOKED = [
    (("max", "repetition", 2000, 0.25),
     "c22afd52630b848dbfb12980450463bf454d2e709675e430a2a65bc26cb74b9f"),
    (("hist", "repetition", 2000, 0.25),
     "6327ceb29d438ca05aa07122dc270bcf505d4ef5fcfdf8400d623651cd428d6e"),
    (("max", "treecode", 2000, 0.05),
     "458047fcb6c39b643b4590af4ce8c4c3dfeab9a6b63fca3d97ef352119c2a18d"),
]


@pytest.mark.parametrize("args, digest", HOOKED, ids=[f"{a[0]}-{a[1]}" for a, _ in HOOKED])
def test_hooked_trial_digest_is_pinned(args, digest):
    assert _hooked_digest(*args) == digest
