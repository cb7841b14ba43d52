"""Shared pieces of the benchmark: configuration on the kept paths, seeded
inputs, statistics, provenance and the correctness gate."""

from __future__ import annotations

import dataclasses
import json
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_DIR = ROOT / ".perfbench_work"
GOLDEN_PATH = HERE / "golden.json"
DEFAULT_SEED = 1


# -- configuration ------------------------------------------------------------


def kept_paths() -> dict:
    """Batch engine, columnar core, exact tier -- requested only while
    ``StaConfig`` still has the field, so the benchmark runs unchanged
    once a duplicate path (and its field) is deleted."""
    from repro.core.modes import StaConfig

    fields = {f.name for f in dataclasses.fields(StaConfig)}
    wanted = {"engine": "batch", "core": "columnar", "solver_tier": "exact"}
    return {key: value for key, value in wanted.items() if key in fields}


def sta_config(mode: str):
    from repro.core.modes import AnalysisMode, StaConfig

    return StaConfig(mode=AnalysisMode(mode), **kept_paths())


# -- seeded inputs ------------------------------------------------------------


def circuit_spec(seed: int, scale: float):
    """The Table-1 generator spec (s35932 stand-in) at ``scale``, seeded."""
    from repro.circuit.generators import S35932_SPEC

    return dataclasses.replace(S35932_SPEC.scaled(scale), seed=seed)


def write_bench_file(seed: int, scale: float) -> str:
    """Generate the seeded netlist and write it as a ``.bench`` file (the
    only input the socket workloads hand to the program)."""
    from repro.circuit.bench import write_bench
    from repro.circuit.generators import generate_bench

    WORK_DIR.mkdir(exist_ok=True)
    path = WORK_DIR / f"s35932_{scale:g}_{seed}.bench"
    path.write_text(write_bench(generate_bench(circuit_spec(seed, scale))))
    return str(path)


# -- statistics ---------------------------------------------------------------


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolation percentile (``q`` in 0..100); 0.0 when empty."""
    if not values:
        return 0.0
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def median(values: list[float]) -> float:
    return percentile(values, 50.0)


# -- host-speed reference -----------------------------------------------------

# Iterations of the reference kernel, and its time on the 2-vCPU x86-64 VM
# the benchmark was tuned on when the host did not slow it down.
REFERENCE_LOOPS = 20000
REFERENCE_NOMINAL_S = 0.045
# Kernel runs on each side of a lap that its scale is taken from.
REFERENCE_WINDOW = 1


def reference_seconds() -> float:
    """Seconds for a fixed piece of work of the program's kind: an
    interpreted loop over small numpy operations and a dict."""
    import numpy as np

    x = np.linspace(0.0, 1.0, 64)
    table: dict[int, float] = {}
    start = time.perf_counter()
    for i in range(REFERENCE_LOOPS):
        y = np.minimum(x * 1.0001 + i, 3.0)
        table[i & 63] = float(y[i & 63]) + 0.5 * table.get((i - 1) & 63, 0.0)
    return time.perf_counter() - start


class Stopwatch:
    """Times consecutive pieces of work in wall and in reference seconds.

    The VM the benchmark was tuned on slows down by up to 1.7x, everything
    in the process alike (CPU time tracks wall time), in phases that last
    from seconds to tens of minutes.  The reference kernel runs between
    every two laps.  A lap's reference seconds are its wall time scaled by
    ``REFERENCE_NOMINAL_S`` over the median of the ``REFERENCE_WINDOW``
    kernel runs on each side of it: seconds as on the same host when it is
    not slowed down.  With ``normalize`` off (traced runs) the kernel does
    not run and both readings are the wall time.
    """

    def __init__(self, normalize: bool = True):
        self.normalize = normalize
        self.references: list[float] = [reference_seconds()] if normalize else []
        # (wall seconds, index of the kernel run just before the lap)
        self.laps: list[tuple[float, int]] = []

    def lap(self, start: float) -> int:
        """Record the work since ``start``, a ``perf_counter`` reading
        taken after the previous lap; returns the lap's index."""
        self.laps.append((time.perf_counter() - start, len(self.references) - 1))
        if self.normalize:
            self.references.append(reference_seconds())
        return len(self.laps) - 1

    def wall(self, lap: int) -> float:
        return self.laps[lap][0]

    def seconds(self, lap: int) -> float:
        wall, before = self.laps[lap]
        if not self.normalize:
            return wall
        lo = max(0, before + 1 - REFERENCE_WINDOW)
        nearby = self.references[lo : before + 1 + REFERENCE_WINDOW]
        return wall * REFERENCE_NOMINAL_S / median(nearby)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def units(seconds: float, unit_seconds: float, minimum: int):
    """Indices of the units of work a run of ``seconds`` makes.

    The count is fixed by ``seconds`` (``unit_seconds`` is one unit's cost
    on a 2-core x86-64 container), not by a deadline, so every run of a
    seed does the same work however fast the host is at the moment.  Only
    a host far slower than that stops early, once ``minimum`` units ran
    and 1.2x ``seconds`` passed.
    """
    count = max(minimum, round(seconds / unit_seconds))
    end = time.perf_counter() + 1.2 * seconds
    for index in range(count):
        if index >= minimum and time.perf_counter() > end:
            return
        yield index


# -- correctness gate ---------------------------------------------------------


class Gate:
    """Counts operations and failures; a wrong answer is a failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def op(self) -> None:
        self.attempted += 1

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(message)

    def check(self, condition: bool, message: str) -> bool:
        """Count one checked answer; a false ``condition`` fails it."""
        self.attempted += 1
        if not condition:
            self.fail(message)
        return condition

    @property
    def correct(self) -> bool:
        return self.failed == 0

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def load_golden(path: str | None) -> dict:
    target = Path(path) if path else GOLDEN_PATH
    if not target.is_file():
        return {}
    return json.loads(target.read_text())


def check_golden(
    gate: Gate, golden: dict, workload: str, scale: float, seed: int, digests: dict
) -> None:
    """Compare ``float.hex()`` digests with the committed golden entry for
    this (workload, scale, seed), when one exists."""
    expected = golden.get(workload, {}).get(f"{scale:g}", {}).get(str(seed))
    if expected is None:
        return
    for key, want in sorted(expected.items()):
        got = digests.get(key)
        gate.check(got == want, f"golden {workload} {key}: {got} != {want}")


# -- provenance and host noise ------------------------------------------------


def _git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        top = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]) != ROOT:
        return "unknown"
    return lines[1]


def calibrate() -> float:
    """Seconds for a fixed pure-Python loop (0.3-0.5 s on a 2-core x86-64
    container); recorded as host noise, never used to scale a metric."""
    start = time.perf_counter()
    total = 0
    for i in range(6_000_000):
        total += i % 7
    return time.perf_counter() - start


def provenance() -> dict:
    return {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg": [round(x, 2) for x in os.getloadavg()],
        "calibration_s": round(calibrate(), 4),
        "argv": sys.argv[1:],
    }
