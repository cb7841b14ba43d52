"""Smoke check of the benchmark itself.

Runs every workload end to end at a tiny scale, untraced and traced, and
checks that each prints every metric of ``BENCHMARK.json`` with its unit
and passes the correctness gate.  Then tampers with one golden digest and
checks that the gate fails (non-zero exit, ``"correct": false``).

    python3 perfbench/smoke.py          # from the repository root
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCALE = "0.01"


def run(workload: str, trace: int, *extra: str) -> tuple[int, dict | None]:
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "1",
        "--seconds", "1", "--trace", str(trace), "--scale", SCALE, *extra,
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    try:
        return proc.returncode, json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stderr.write(proc.stdout + proc.stderr)
        return proc.returncode, None


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems: list[str] = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            code, result = run(workload, trace)
            label = f"{workload} --trace {trace}"
            if result is None or code != 0 or not result["correct"]:
                problems.append(f"{label}: exit {code}, result {result}")
                continue
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != want:
                problems.append(f"{label}: metrics {sorted(set(got) ^ set(want))} differ")
            print(f"ok  {label}: {len(got)} metrics")

    golden = json.loads((HERE / "golden.json").read_text())
    designs = golden["table1-cold"][SCALE]
    entry = designs[sorted(designs)[0]]
    mode = sorted(entry)[0]
    entry[mode] = float(float.fromhex(entry[mode]) * 1.5).hex()
    tampered = ROOT / ".perfbench_work" / "golden-tampered.json"
    tampered.parent.mkdir(exist_ok=True)
    tampered.write_text(json.dumps(golden))
    code, result = run("table1-cold", 0, "--golden", str(tampered))
    if code == 0 or result is None or result["correct"]:
        problems.append(f"tampered digest not caught: exit {code}, result {result}")
    else:
        print(f"ok  tampered {mode} digest fails the gate (exit {code})")

    for problem in problems:
        print(f"FAIL {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
