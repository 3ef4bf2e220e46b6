"""Golden reports: pinned digests of whole runs, so a refactor cannot move a byte."""

import hashlib

import pytest

from noisyplanar.config import ExperimentConfig
from noisyplanar.harness import run_experiment, run_trial, validate_run

# A declared RNG-layout change updates these digests in the same change.
GOLDEN = [
    (dict(protocol="max", mode="abstract", n=(2000,), trials=3, eps0=0.1),
     "01bdbc39a97f7398c9fdfb501fdd2aebf236d12002231d75dc91154e9538e45f"),
    (dict(protocol="hist", mode="repetition", n=(2000,), trials=3, eps0=0.1),
     "6e9129b0d4d643e77decd849b9c0051def01aa3321bfdf687e5210229e5b24e7"),
    (dict(protocol="max", mode="repetition", n=(1500,), trials=2, eps0=0.1),
     "4b3cdfe35a7acf75300a0665e566801c1d1cd6d42a091c4212d4c5ea1f192c48"),
    (dict(protocol="max", mode="treecode", n=(600,), trials=2, eps0=0.05),
     "224f0c6653be53a719c968f8e5385a07e0954b051e5a8b62e7c6a489ec02b951"),
    (dict(protocol="hist", mode="abstract", n=(3000,), trials=2, eps0=0.0),
     "316346d9cdb71f18c2f8479391c3a4974581630b24dc36e9cfaa6bcbc5975fb9"),
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
