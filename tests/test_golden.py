"""Golden reports: pinned digests of whole runs, so a refactor cannot move a byte."""

import hashlib
import json

import pytest

from noisyplanar.config import ExperimentConfig
from noisyplanar.harness import run_experiment, run_trial, validate_run

# A declared RNG-layout change updates these digests in the same change.  Layout 3
# (harness.RNG_LAYOUT) moved only max-abstract-2000's content; the other four
# differ from layout 2's digests by the "rng_layout" key alone.  The histogram
# draws the same under every layout (LAYOUT_2 pins that); in the two small MAX
# runs the reordered stage-1 draws happen to decode to the same witnesses,
# believers and values, so no count and no later draw moved.
GOLDEN = [
    (dict(protocol="max", mode="abstract", n=(2000,), trials=3, eps0=0.1),
     "a648dd9fdd16b3a7b390642697b243288d5bbf4c3e8413ce6710c2ba847c7729"),
    (dict(protocol="hist", mode="repetition", n=(2000,), trials=3, eps0=0.1),
     "03c5faddb615ce8e2b9e5d6ce741f9e700d0f21359531903ebb809ffa672f740"),
    (dict(protocol="max", mode="repetition", n=(1500,), trials=2, eps0=0.1),
     "796a0f1b18ae08a719f581358296488f773c701c76fb5c4dbfe7674dae665515"),
    (dict(protocol="max", mode="treecode", n=(600,), trials=2, eps0=0.05),
     "f1642cf9bc7dd1ae77c107c377244bcb564dfcd0e03e65656003af9bbd685bc6"),
    (dict(protocol="hist", mode="abstract", n=(3000,), trials=2, eps0=0.0),
     "e86b66282fa980f6190c082f997d1346c1536d3fce6d9ba20f26f2e1e355affb"),
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
    assert report["rng_layout"] == 3
    text = json.dumps({**report, "rng_layout": 2}, sort_keys=True, indent=2)
    assert hashlib.sha256(text.encode()).hexdigest() == LAYOUT_2[name]


def test_traced_max_trial_verdict_is_pinned():
    cfg = ExperimentConfig(protocol="max", n=(8000,), trials=1, eps0=0.1, base_seed=13)
    audit = validate_run(run_trial(cfg, 8000, 0, capture_trace=True))
    verdict = (audit.collision_violations, audit.obliviousness_violations, audit.energy_violations)
    assert verdict == ([], [], [])
