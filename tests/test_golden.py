"""Golden reports: pinned digests of whole runs, so a refactor cannot move a byte."""

import hashlib
import json

import pytest

from noisyplanar.config import ExperimentConfig
from noisyplanar.harness import run_experiment, run_trial, validate_run

# A declared RNG-layout change updates these digests in the same change.  Layouts
# 3 and 4 (harness.RNG_LAYOUT) each moved only max-abstract-2000's content (its
# believers, so its confirmation counts); the other four differ from layout 2's
# digests by the "rng_layout" key alone.  Layout 4 draws every majority-decoded
# bit from one uniform: at eps0 = 0.1 and these repeat counts no such bit
# decodes wrong either way, so only the MAX run whose identity draws follow
# its discovery draws in the stream moved.  The histogram reports still
# re-serialise to layout 2's digests (LAYOUT_2 pins that).
GOLDEN = [
    (dict(protocol="max", mode="abstract", n=(2000,), trials=3, eps0=0.1),
     "ae7ee7f4fa413d074fa9bf38bf9165751c512dc02495d253a73733b37e101710"),
    (dict(protocol="hist", mode="repetition", n=(2000,), trials=3, eps0=0.1),
     "d103081a88beb7f7e6a82b3910d2842c9a8951a505de0ccd6891c84a775169c7"),
    (dict(protocol="max", mode="repetition", n=(1500,), trials=2, eps0=0.1),
     "7d7b1ec9b9b77dc5f0ccd3b6f1b629930e2f4757109d0da22121963a92e436d6"),
    (dict(protocol="max", mode="treecode", n=(600,), trials=2, eps0=0.05),
     "133121ecc0ab5814e064acacd4bc7cd97f5f1d94db81ac3e05187677cf384a7c"),
    (dict(protocol="hist", mode="abstract", n=(3000,), trials=2, eps0=0.0),
     "775104a8609e1fdaa17455ac20bc2df1a28cb2a091fd4a79a85de51715e6c927"),
]
IDS = [f"{f['protocol']}-{f['mode']}-{f['n'][0]}" for f, _ in GOLDEN]
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
    assert report["rng_layout"] == 4
    text = json.dumps({**report, "rng_layout": 2}, sort_keys=True, indent=2)
    assert hashlib.sha256(text.encode()).hexdigest() == LAYOUT_2[name]


def test_two_word_identity_trial_row_is_pinned():
    # The goldens above stop at n <= 8,000, where every identity code fits one
    # uint64 word; n = 70,000 carries 17 message bits in a 68-bit, two-word code.
    cfg = ExperimentConfig(protocol="max", mode="abstract", n=(70000,), trials=1, eps0=0.1,
                           base_seed=13)
    (row,) = run_experiment(cfg).result_for(70000)["trials_detail"]
    digest = hashlib.sha256(json.dumps(row, sort_keys=True).encode()).hexdigest()
    assert digest == "abf8a1198e7d80dbaf098498ac8a0922b6193b5fe7e5e87b5af47ecf6b6da92f"


def test_hist_repetition_trial_row_at_64x64_is_pinned():
    # The histogram goldens stop at n <= 8,000; n = 131,072 runs stage 2's
    # array pass over 390 repetition arrays in 6 sub-stages.
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
