"""Golden reports: pinned digests of whole runs, so a refactor cannot move a byte."""

import hashlib

import pytest

from noisyplanar.config import ExperimentConfig
from noisyplanar.harness import run_experiment, run_trial, validate_run

# A declared RNG-layout change updates these digests in the same change.  Layout 2
# (harness.RNG_LAYOUT) moved only max-abstract-2000's content; the other four
# differ from layout 1's digests by the "rng_layout" key alone.
GOLDEN = [
    (dict(protocol="max", mode="abstract", n=(2000,), trials=3, eps0=0.1),
     "2045f956583d9daff58c771d90182a2ce2870fb8948851d3216ffc32311515d4"),
    (dict(protocol="hist", mode="repetition", n=(2000,), trials=3, eps0=0.1),
     "7d0b3bf96e6a32ba00b284a7d59c942ecaf0239b531517c6759adfe60e39338d"),
    (dict(protocol="max", mode="repetition", n=(1500,), trials=2, eps0=0.1),
     "a0db5753a6a7c7aa3846b503de103ccc6318ebc8952eb7621af9a2d38c353e5a"),
    (dict(protocol="max", mode="treecode", n=(600,), trials=2, eps0=0.05),
     "97edaf2289e885a8d658fae29e462ccf18e6fe5bb599f8199c7f4763e858d4f4"),
    (dict(protocol="hist", mode="abstract", n=(3000,), trials=2, eps0=0.0),
     "78268bc8c4854183a11cd4c05723c6a1429289197f58f2e4a01b48c77023090d"),
]


@pytest.mark.parametrize(
    "fields, digest", GOLDEN, ids=[f"{f['protocol']}-{f['mode']}-{f['n'][0]}" for f, _ in GOLDEN]
)
def test_report_digest_is_pinned(fields, digest):
    report = run_experiment(ExperimentConfig(base_seed=13, **fields))
    assert hashlib.sha256(report.to_json().encode()).hexdigest() == digest


def test_traced_max_trial_verdict_is_pinned():
    cfg = ExperimentConfig(protocol="max", n=(8000,), trials=1, eps0=0.1, base_seed=13)
    audit = validate_run(run_trial(cfg, 8000, 0, capture_trace=True))
    verdict = (audit.collision_violations, audit.obliviousness_violations, audit.energy_violations)
    assert verdict == ([], [], [])
