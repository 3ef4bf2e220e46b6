"""Import path and a summary line per kernel for the micro-benchmarks."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))


def pytest_terminal_summary(terminalreporter, config):
    """Print each kernel's median time beside the operation counts it stored."""
    session = getattr(config, "_benchmarksession", None)
    if session is None or not session.benchmarks:
        return
    terminalreporter.section("kernel operation counts")
    for bench in session.benchmarks:
        if bench:
            counts = ", ".join(f"{k}={v}" for k, v in sorted(bench.extra_info.items()))
            terminalreporter.write_line(f"{bench.name}: median {bench.stats.median * 1e6:.1f} us; {counts}")
