"""End-to-end and per-layer benchmark of the noisyplanar simulator.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one named workload in this process, on one thread, against the package
in ``src/`` of the checkout this file sits in.  The seed becomes
``ExperimentConfig.base_seed``.  Set-up (a fresh interpreter importing the
package, the fastest of five, plus one warm-up op left out of the op timings)
is followed by ops in a closed loop until ``--seconds`` have passed.  With
``--trace 0`` the ops run as a user would run them and the last line of output
carries the end-to-end metrics named in BENCHMARK.json; with ``--trace 1``
every op runs once untraced and once more with timing wrappers around the
package's public layer functions, which must reproduce it exactly, and the
last line carries the per-layer metrics.  ``--workload all`` runs
every workload, each in its own process, and prints their metrics together.

Every op is checked: energy identities on the metrics snapshot, the oracle
against the data bits, the audit verdict where there is one.  A breach or an
exception counts the op as failed; a wrong answer at eps0 > 0 is the
modelled protocol's error and is only reported.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import math
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RESULTS = Path(__file__).resolve().parent / "results"
EPS0 = 0.1
IMPORT_REPEATS = 5
# Layer self times must add up to the traced op's wall time within this share.
SELF_COVERAGE_TOLERANCE = 0.10
# Raw end-to-end timings, printed but left out of BENCHMARK.json.  On a
# shared 2-vCPU host the CPU slows by 1.3-2x in spells lasting seconds to
# minutes, which moves every within-run statistic of a 20-second run by up to
# 40% between seeds.  The gated timings divide each timed part by the host
# speed sampled while it ran (HostSampler): op_rel.p50 for the ops, and
# setup_s, which scales those ratios back to seconds at PROBE_REFERENCE_S.
UNGATED = (("op_s.p10", "s"), ("op_s.p50", "s"), ("node_trials_per_s", "1/s"),
           ("setup_raw_s", "s"))
SAMPLE_INTERVAL_S = 0.05
# Both probe kernels take about this long on the reference host (a shared
# 2-vCPU x86_64 virtual machine, Python 3.11, numpy 2.4); setup_s is in
# seconds of that host.
PROBE_REFERENCE_S = 0.0004

# name -> (op kind, probe kernel, config fields besides eps0, trials and base_seed).
# The probe kernel is the one whose slowdowns track the op's dominant
# work: whole-array numpy for identity decoding, the interpreter elsewhere.
WORKLOADS = {
    "max-identity-70k": (
        "trial",
        "vector",
        dict(protocol="max", mode="abstract", bit_source="bernoulli", n=(70000,)),
    ),
    "hist-repetition-128k": (
        "trial",
        "interpreter",
        dict(protocol="hist", mode="repetition", bit_source="bernoulli", n=(131072,)),
    ),
    "audit-max-32k": ("audit", "interpreter", dict(protocol="max", mode="abstract", n=(32768,))),
    "sweep-repetition-1k-8k": (
        "sweep",
        "interpreter",
        dict(protocol="max", mode="repetition", n=(1000, 2000, 4000, 8000)),
    ),
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


@dataclass
class Outcome:
    """One op: wall time, canonical rows and failed checks.

    The report digest covers the rows, and the traced run of the op must
    reproduce them exactly.
    """

    wall: float
    rows: list[str]
    sims: list[tuple[int, float]]  # (slots_total, em1) per trial
    wrong: int
    problems: list[str] = field(default_factory=list)
    extra: dict = field(default_factory=dict)


def trial_row(run) -> str:
    snapshot = run.metrics.snapshot()
    row = {"n": run.n, "trial": run.trial, "computed": run.computed,
           "oracle": run.oracle_value, "metrics": snapshot}
    return json.dumps(row, sort_keys=True)


def check_run(run) -> list[str]:
    """Energy identities on the snapshot and the oracle against the data bits."""
    cfg, m = run.config, run.metrics.snapshot()
    problems = []
    if m["em2"] != cfg.e_t * m["tx_count"]:
        problems.append(f"em2 {m['em2']} != e_t * tx_count")
    if m["em1"] != cfg.e_t * m["tx_count"] + cfg.e_r * m["rx_count"]:
        problems.append(f"em1 {m['em1']} != e_t * tx_count + e_r * rx_count")
    bits = run.instance.bits
    truth = int(bits.max()) if cfg.protocol == "max" else int(bits.sum())
    if run.oracle_value != truth:
        problems.append(f"oracle {run.oracle_value} != {truth} from the data bits")
    return problems


def trial_outcome(run, wall) -> Outcome:
    return Outcome(
        wall=wall,
        rows=[trial_row(run)],
        sims=[(run.metrics.slots_total, run.metrics.em1)],
        wrong=int(not run.correct),
        problems=check_run(run),
    )


class Workload:
    """Ops of one workload; op k is deterministic in (seed, k)."""

    def __init__(self, name: str, seed: int):
        import noisyplanar

        self.pkg = noisyplanar
        self.name = name
        self.kind, self.probe, fields_ = WORKLOADS[name]
        self.config = noisyplanar.ExperimentConfig(eps0=EPS0, trials=1, base_seed=seed, **fields_)
        self.trials_per_op = len(self.config.n)
        self.nodes_per_op = sum(self.config.n)

    def seeds(self, k: int) -> dict:
        """Where op k's inputs come from."""
        if self.kind == "sweep":
            return {"base_seed": self.sweep_config(k).base_seed, "trials": [0]}
        return {"base_seed": self.config.base_seed, "trial": k}

    def sweep_config(self, k: int):
        # sweep() always runs trials 0..trials-1, so distinct sweeps need
        # distinct base seeds; op 0 keeps the workload seed itself.
        return replace(self.config, base_seed=self.config.base_seed + (k << 32))

    def run(self, k: int) -> Outcome:
        npl, cfg = self.pkg, self.config
        if self.kind == "sweep":
            t0 = time.perf_counter()
            report = npl.sweep(self.sweep_config(k))
            text, csv = report.to_json(), report.to_csv()
            return self._sweep_outcome(report, text, csv, time.perf_counter() - t0)
        n = cfg.n[0]
        t0 = time.perf_counter()
        run = npl.run_trial(cfg, n, k, capture_trace=self.kind == "audit")
        t1 = time.perf_counter()
        if self.kind == "trial":
            return trial_outcome(run, t1 - t0)
        audit = npl.validate_run(run)
        t2 = time.perf_counter()
        out = trial_outcome(run, t2 - t0)
        self._add_audit(out, audit)
        out.extra["audit_ratio"] = (t2 - t1) / (t1 - t0)
        return out

    def run_traced(self, k: int, tracer) -> Outcome:
        from noisyplanar import harness

        cfg = self.config
        tracer.begin(k)
        tracer.install()
        try:
            t0 = time.perf_counter()
            if self.kind == "sweep":
                report = tracer.span("harness.sweep", harness.sweep, self.sweep_config(k))
                text = tracer.span("harness.report", report.to_json)
                csv = tracer.span("harness.report", report.to_csv)
                wall = time.perf_counter() - t0
                tracer.count("harness.report_bytes", len(text.encode()))
                return self._sweep_outcome(report, text, csv, wall)
            run = harness.run_trial(cfg, cfg.n[0], k, capture_trace=self.kind == "audit")
            audit = harness.validate_run(run) if self.kind == "audit" else None
            wall = time.perf_counter() - t0
        finally:
            tracer.uninstall()
        out = trial_outcome(run, wall)
        if audit is not None:
            self._add_audit(out, audit)
            tracer.count("channel.trace_entries", len(run.channel.trace.stage1))
        if cfg.protocol == "max":
            tracer.count("intercell.distribute_result_s", self._time_distribute(run))
        return out

    def _time_distribute(self, run) -> float:
        """Push the MAX result back to every node, after and outside the op."""
        npl = self.pkg
        chan = npl.Channel(
            instance=run.instance,
            params=run.params,
            noise=npl.NoiseModel(run.config.eps0),
            rng=np.random.default_rng(run.aux_seeds[0]),
        )
        t0 = time.perf_counter()
        npl.distribute_result(run.tree, run.plan, run.computed, run.link_config,
                              run.stage1_config.r2, chan, run.grid, run.params, run.coloring)
        return time.perf_counter() - t0

    @staticmethod
    def _add_audit(out: Outcome, audit) -> None:
        if not audit.passed:
            out.problems.append(f"audit failed: {audit.summary()}")
        out.rows.append(json.dumps([audit.collision_violations, audit.obliviousness_violations,
                                    audit.energy_violations]))

    def _sweep_outcome(self, report, text, csv, wall) -> Outcome:
        cfg = self.config
        rows = report.rows
        problems = []
        if [r["n"] for r in rows] != sorted(cfg.n):
            problems.append(f"sweep rows cover n={[r['n'] for r in rows]}")
        for r in rows:
            if r["trials"] != cfg.trials or not 0.0 <= r["error_rate"] <= 1.0:
                problems.append(f"n={r['n']}: trials {r['trials']}, error rate {r['error_rate']}")
            # One trial per n, so the row's means are that trial's counters.
            if r["em2"] != cfg.e_t * r["tx_total"] or r["em1"] < r["em2"]:
                problems.append(f"n={r['n']}: energy identities broken")
        if len(csv.splitlines()) != len(rows) + 1:
            problems.append("sweep CSV does not hold one line per n")
        return Outcome(
            wall=wall,
            rows=[text],
            sims=[(r["slots_total"], r["em1"]) for r in rows],
            wrong=round(sum(r["error_rate"] * r["trials"] for r in rows)),
            problems=problems,
        )


def low_percentile(samples: list[float], pct: int) -> float:
    """Percentile ``pct`` by linear interpolation between closest ranks."""
    if len(samples) == 1:
        return samples[0]
    return statistics.quantiles(samples, n=100, method="inclusive")[pct - 1]


def tail_percentile(samples: list[float]) -> tuple[int, float] | None:
    """Highest whole percentile with at least ten samples above it (nearest rank)."""
    n = len(samples)
    if n < 20:
        return None
    pct = math.floor(100 * (n - 10) / n)
    return pct, sorted(samples)[math.ceil(pct / 100 * n) - 1]


def attempt(fn, *args):
    """Run one op and report its failed checks; an exception is reported and gives None."""
    try:
        out = fn(*args)
    except Exception:
        traceback.print_exc(file=sys.stderr)
        return None
    for p in out.problems:
        print(f"check failed: {p}", file=sys.stderr)
    return out


def interpreter_kernel(rng) -> int:
    """A fixed Python loop plus small-array numpy calls; never touches the package."""
    total = 0
    for i in range(4000):
        total += i % 7
    for _ in range(60):
        total += int((rng.random(64) < 0.1).sum())
    return total


WORDS = np.random.default_rng(0).integers(0, 2**63, size=(16384, 2), dtype=np.uint64)


def vector_kernel(_rng) -> int:
    """Fixed whole-array XOR, popcount and argmin work; never touches the package."""
    return int(np.argmin(np.bitwise_count(WORDS ^ WORDS[::-1]).sum(axis=1)))


KERNELS = {"interpreter": interpreter_kernel, "vector": vector_kernel}


class HostSampler:
    """How fast the host ran while a block ran, from a reference kernel.

    Inside ``with sampler:`` the kernel (about 0.4 ms) is timed at entry, at
    exit and every SAMPLE_INTERVAL_S in between, from a SIGALRM handler in
    this thread.  Slow spells on a shared host stretch the kernel and the
    block alike, so the block's time divided by ``probe()`` stays put while
    both move.  Sampling during the block, not only around it, follows spells
    that start or end inside a long op.
    """

    def __init__(self, kind: str):
        self.kernel = KERNELS[kind]
        self.rng = np.random.default_rng(0)
        self.samples: list[float] = []
        self._busy = False
        signal.signal(signal.SIGALRM, lambda signum, frame: self._sample())

    def _sample(self) -> None:
        if self._busy:
            return
        self._busy = True
        try:
            t0 = time.perf_counter()
            self.kernel(self.rng)
            self.samples.append(time.perf_counter() - t0)
        finally:
            self._busy = False

    def __enter__(self):
        self.samples = []
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        self._sample()

    def probe(self) -> float:
        """Mean kernel time over the block: the block's time-averaged host speed."""
        return statistics.fmean(self.samples)


def import_seconds() -> float:
    """Fastest wall time for a fresh interpreter to start and import the package.

    No timeout: with one, ``subprocess`` polls the child at up to 50 ms
    intervals, which would round every reading up to that grid.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(IMPORT_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import noisyplanar"], env=env, cwd=ROOT,
                       check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return min(times)


def reference_seconds(wall: float, probe: float) -> float:
    """``wall`` at the reference host's speed, given the host probe taken while it ran."""
    return wall / probe * PROBE_REFERENCE_S


def git_commit():
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def provenance(args, workload) -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "noisyplanar").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "package": workload.pkg.__version__,
        "git_commit": git_commit(),
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "platform": platform.platform(),
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "config": workload.config.to_dict(),
    }


def run_workload(args) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    t_process = time.perf_counter()

    workload = Workload(args.workload, args.seed)
    with HostSampler("interpreter") as import_sampler:
        setup_import = import_seconds()
    sampler = HostSampler(workload.probe)
    ops: list[dict] = []
    attempted = failed = wrong = 0
    kept: dict[int, Outcome] = {}

    def record(k, out, extra=None):
        nonlocal attempted, failed, wrong
        attempted += workload.trials_per_op
        entry = {"op": k, **workload.seeds(k), "ok": bool(out and not out.problems)}
        if out is not None:
            wrong += out.wrong
            entry.update(wall_s=out.wall, wrong=out.wrong, **out.extra, **(extra or {}))
            if k <= 1:
                kept[k] = out
        if not entry["ok"]:
            failed += workload.trials_per_op
        ops.append(entry)

    with sampler:
        warm = attempt(workload.run, 0)
    record(0, warm)
    warm_wall = warm.wall if warm else 0.0
    setup_raw_s = setup_import + warm_wall
    setup_s = reference_seconds(setup_import, import_sampler.probe()) + reference_seconds(
        warm_wall, sampler.probe()
    )

    from tracing import Tracer, median_metrics, op_layer_metrics

    tracer = Tracer()
    layer_per_op = []
    t_start = time.perf_counter()
    k = 1
    while True:
        with sampler:
            out = attempt(workload.run, k)
        if out is not None:
            out.extra["probe_s"] = sampler.probe()
            out.extra["probe_samples"] = len(sampler.samples)
        if not args.trace:
            record(k, out)
        else:
            traced = attempt(workload.run_traced, k, tracer)
            extra = {}
            if out is not None and traced is None:
                out.problems.append(f"traced op {k} raised")
            elif out is not None:
                if traced.rows != out.rows:
                    traced.problems.append(f"traced op {k} differs from the untraced op")
                    print(f"check failed: {traced.problems[-1]}", file=sys.stderr)
                layer = op_layer_metrics(tracer, k, traced.wall, workload.trials_per_op)
                layer["trace.overhead_ratio"] = traced.wall / out.wall - 1.0
                if abs(layer["trace.self_coverage"] - 1.0) > SELF_COVERAGE_TOLERANCE:
                    traced.problems.append(
                        f"layer self times cover {layer['trace.self_coverage']:.3f} of op {k}"
                    )
                    print(f"check failed: {traced.problems[-1]}", file=sys.stderr)
                out.problems += traced.problems
                layer_per_op.append(layer)
                extra = {"traced_wall_s": traced.wall}
            record(k, out, extra)
        k += 1
        if time.perf_counter() - t_start >= args.seconds:
            break
    timed_wall = time.perf_counter() - t_start

    timed = [o for o in ops[1:] if o["ok"]]
    samples = [o["wall_s"] / workload.trials_per_op for o in timed]
    relative = [o["wall_s"] / workload.trials_per_op / o["probe_s"] for o in timed]
    digest_ops = [kept.get(0), kept.get(1)]
    digest = None
    if all(o is not None and not o.problems for o in digest_ops):
        digest = hashlib.sha256("\n".join(r for o in digest_ops for r in o.rows).encode())
        digest = digest.hexdigest()
    sims = [s for o in digest_ops if o is not None for s in o.sims]

    values = {}
    if args.trace:
        if layer_per_op:
            values = median_metrics(layer_per_op)
    elif samples:
        values = {
            "setup_s": setup_s,
            "setup_raw_s": setup_raw_s,
            "op_rel.p50": statistics.median(relative),
            "op_s.p10": low_percentile(samples, 10),
            "op_s.p50": statistics.median(samples),
            "node_trials_per_s": len(timed) * workload.nodes_per_op / timed_wall,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "sim_slots": statistics.fmean(s for s, _ in sims),
            "sim_em1": statistics.fmean(e for _, e in sims),
        }
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"no value for {missing}: every op failed", file=sys.stderr)
    metrics = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]} for m in wanted}

    diagnostics = {
        **{name: values[name] for name, _ in UNGATED if name in values and not args.trace},
        "failed_frac": failed / attempted,
        "wrong_answers": wrong,
        "ops_timed": len(timed),
        "timed_wall_s": timed_wall,
        "setup_import_s": setup_import,
        "report_digest": digest,
        "process_s": time.perf_counter() - t_process,
    }
    tail = tail_percentile(samples)
    if tail is not None:
        diagnostics[f"op_s.p{tail[0]}"] = tail[1]
    if workload.kind == "audit":
        ratios = [o["audit_ratio"] for o in timed]
        if ratios:
            diagnostics["audit_ratio"] = statistics.median(ratios)

    prov = provenance(args, workload)
    print("provenance " + json.dumps(prov, sort_keys=True))
    for name, m in metrics.items():
        print(f"metric {name} = {m['value']:.6g} {m['unit']}")
    if tail is not None:
        print(f"metric op_s.tail = {tail[1]:.6g} s (p{tail[0]} of {len(samples)} ops)")
    else:
        print(f"metric op_s.tail omitted: {len(samples)} ops, fewer than 20")
    if not args.trace:
        for name, unit in UNGATED:
            if name in values:
                print(f"metric {name} = {values[name]:.6g} {unit} (printed, not in BENCHMARK.json)")
    print(f"metric failed_frac = {diagnostics['failed_frac']:.6g} ratio")
    if "audit_ratio" in diagnostics:
        print(f"metric audit_ratio = {diagnostics['audit_ratio']:.6g} ratio")
    print(f"wrong answers: {wrong} of {attempted} trials (protocol error at eps0={EPS0})")
    print(f"report digest (ops 0 and 1): {digest}")

    RESULTS.mkdir(parents=True, exist_ok=True)
    stem = RESULTS / f"{workload.name}-seed{args.seed}-trace{args.trace}"
    stem.with_suffix(".json").write_text(json.dumps(
        {"provenance": prov, "metrics": metrics, "diagnostics": diagnostics, "ops": ops,
         "layers_per_op": layer_per_op}, indent=1, sort_keys=True))
    if args.trace:
        tracer.dump(stem.with_suffix(".spans.tsv"), t_process)

    correct = failed == 0 and not missing
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Every workload in its own process; prints each one's metric lines."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exited with {proc.returncode}", file=sys.stderr)
            return 1
        for line in lines[:-1]:
            print(f"[{name}] {line}")
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            merged["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "noisyplanar" / "__init__.py").is_file() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"no noisyplanar sources under {SRC} or no BENCHMARK.json beside them",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    import noisyplanar

    if Path(noisyplanar.__file__).resolve().parent != SRC / "noisyplanar":
        print(f"imported noisyplanar from {noisyplanar.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
