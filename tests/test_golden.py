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
# confirmation (+23 tx); the other four re-serialise to layout 4's digests,
# and the histogram reports to layout 2's.  Layout 6 draws iid identity noise
# from each member's sufficient statistics: every report moved by its
# "rng_layout" key alone.  Layout 7 draws every world cell by cell and stage 1
# in cell order, so every world, and with it every report, hooked trial and
# pinned row, is new; the law of the worlds and of the noise is unchanged.
# Earlier layouts' digests of the small goldens, each the layout-6 report with
# its "rng_layout" key set back (the checks that pinned them retired with
# layout 7, whose worlds they do not describe):
#   layout 5: max-abstract-2000 dbf415004041bbf45eae0cfd34c936d82c512d87d9c8473805fd8992c55a69d7,
#     hist-repetition-2000 052ae234346093651d2b4aea4f1a2dec26e526cba5c685682ad1930637ec2593,
#     max-repetition-1500 8da5ea7983ef8bfb91e2a2478d86c901b969834890e899a3259c30639a2acfa1,
#     max-treecode-600 798812e306c03c322910c427a3ad4f1d0a6d7cb1e7caa9f3beb0824da75f2f79,
#     hist-abstract-3000 c3b0f10720813128ddec98b477d4229164927e5a50d823ba62fa818b3d925f21;
#   layout 4: hist-repetition-2000 d103081a88beb7f7e6a82b3910d2842c9a8951a505de0ccd6891c84a775169c7,
#     max-repetition-1500 7d7b1ec9b9b77dc5f0ccd3b6f1b629930e2f4757109d0da22121963a92e436d6,
#     max-treecode-600 133121ecc0ab5814e064acacd4bc7cd97f5f1d94db81ac3e05187677cf384a7c,
#     hist-abstract-3000 775104a8609e1fdaa17455ac20bc2df1a28cb2a091fd4a79a85de51715e6c927;
#   layout 2: hist-repetition-2000 7d0b3bf96e6a32ba00b284a7d59c942ecaf0239b531517c6759adfe60e39338d,
#     hist-abstract-3000 78268bc8c4854183a11cd4c05723c6a1429289197f58f2e4a01b48c77023090d.
GOLDEN = [
    (dict(protocol="max", mode="abstract", n=(2000,), trials=3, eps0=0.1),
     "d1e423d495d77f32c49231f47e4cd30c857c673d44dc0cd36089434bf6b39b68"),
    (dict(protocol="hist", mode="repetition", n=(2000,), trials=3, eps0=0.1),
     "8194a15225d196efb7681d6e74330251f397cf688037ba293027f0567dfbb7d3"),
    (dict(protocol="max", mode="repetition", n=(1500,), trials=2, eps0=0.1),
     "707f6df9acb372008132cdedde44af70ffd6682620de0921abfa39f3fcec79b0"),
    (dict(protocol="max", mode="treecode", n=(600,), trials=2, eps0=0.05),
     "e2b81e917ea63a3ae5f1adbb73e6ad6de416ea7d0843016f7e05677201fa47c0"),
    (dict(protocol="hist", mode="abstract", n=(3000,), trials=2, eps0=0.0),
     "9c1a84d1dcc6224d7a9d2d4d3ceafdc3b84b5e857b6e8c831344da58928927f1"),
    # A 64 x 64 grid: 4,096 cells, where the goldens above stop at 144.
    (dict(protocol="max", mode="abstract", n=(131072,), trials=2, eps0=0.1),
     "1b771ddb452c18b48b54fe5a0415d18f07938958eeae29e0ab82e42abdf61773"),
    (dict(protocol="hist", mode="repetition", n=(131072,), trials=2, eps0=0.1),
     "941d4954861cadce82d0398db57cbbdf36c7248e1822ce211f0a5eff59dc3d68"),
]
IDS = [f"{f['protocol']}-{f['mode']}-{f['n'][0]}" for f, _ in GOLDEN]


@pytest.mark.parametrize("fields, digest", GOLDEN, ids=IDS)
def test_report_digest_is_pinned(fields, digest):
    report = run_experiment(ExperimentConfig(base_seed=13, **fields))
    assert hashlib.sha256(report.to_json().encode()).hexdigest() == digest


def test_two_word_identity_trial_row_is_pinned():
    # The goldens at n <= 8,000 send every identity block in one uint64 word;
    # n = 70,000 sends its message bits in a 68-bit, two-word block.
    cfg = ExperimentConfig(protocol="max", mode="abstract", n=(70000,), trials=1, eps0=0.1,
                           base_seed=13)
    (row,) = run_experiment(cfg).result_for(70000)["trials_detail"]
    digest = hashlib.sha256(json.dumps(row, sort_keys=True).encode()).hexdigest()
    assert digest == "f187936e6c164f9b205f7f27654c898eda0070c55e96ef63c3ca7aab98a21c16"


def test_hist_repetition_trial_row_at_64x64_is_pinned():
    # n = 131,072 runs stage 2's array pass over 390 repetition arrays in 6
    # sub-stages; this pins trial 0's row alone.
    cfg = ExperimentConfig(protocol="hist", mode="repetition", n=(131072,), trials=1, eps0=0.1,
                           base_seed=13)
    (row,) = run_experiment(cfg).result_for(131072)["trials_detail"]
    digest = hashlib.sha256(json.dumps(row, sort_keys=True).encode()).hexdigest()
    assert digest == "e51cf22ee5d9e6d4d36c3d50b452be3e32a69fcd162bcc3501f762742dec8d13"


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
     "4bfdf9a48ec14d43f63fa6a3a543da6555107a6170749ab0a85b5bf746fb15c0"),
    (("hist", "repetition", 2000, 0.25),
     "4910007331b86c80bc163ea3a23f77bd1524a334717103d97d2bebdd280ac56c"),
    (("max", "treecode", 2000, 0.05),
     "04a62541034e114c304cdab942fbc0ea2e86bd2522ebf136ef759735d3962cda"),
]


@pytest.mark.parametrize("args, digest", HOOKED, ids=[f"{a[0]}-{a[1]}" for a, _ in HOOKED])
def test_hooked_trial_digest_is_pinned(args, digest):
    assert _hooked_digest(*args) == digest
