"""Write the committed checkpoint fixtures and their resumed digests.

    PYTHONPATH=src python3 tests/golden/make_checkpoints.py

Writes ``tests/golden/checkpoints/<name>.json``: a format-2 checkpoint of
s27's iterative analysis, interrupted after pass 1, for each entry of
:data:`FIXTURES`; and ``tests/golden/checkpoints/resumed.json``: the
golden digest of each resumed run (every field of
:func:`tests.golden.make_golden.digest` plus a sha256 of the explain
payload).  ``tests/test_checkpoint_resume.py`` resumes copies of the
committed files and compares.

The fixtures are worth keeping only as files written by older code: they
prove that checkpoints already on disk still resume to the same numbers.
Regenerate them only when ``CHECKPOINT_FORMAT`` changes, and say so in
the change.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
CHECKPOINT_DIR = HERE / "checkpoints"
RESUMED_PATH = CHECKPOINT_DIR / "resumed.json"
SCHEMA = "repro.golden-checkpoint-resume/1"

if __name__ == "__main__":
    sys.path.insert(0, str(HERE.parent.parent / "src"))
    sys.path.insert(0, str(HERE.parent.parent))

from repro.core.analyzer import CrosstalkSTA  # noqa: E402
from repro.core.checkpoint import CheckpointManager  # noqa: E402
from repro.core.explain import explain_result  # noqa: E402
from repro.core.iterative import run_iterative  # noqa: E402
from repro.core.modes import AnalysisMode, StaConfig, WindowCheck  # noqa: E402
from repro.errors import AnalysisInterrupted  # noqa: E402
from repro.testing import interrupt_after_pass  # noqa: E402
from tests.golden.make_golden import build_design, digest  # noqa: E402

# Fixture name -> the iterative configuration it checkpoints.  With
# Esperance, s27's pass 2 copies one cell's events from pass 1, so the
# resumed pass reads the restored state.
FIXTURES: dict[str, dict] = {
    "s27-esperance-overlap": {
        "window_check": WindowCheck.OVERLAP,
        "esperance": True,
    },
    "s27-overlap": {"window_check": WindowCheck.OVERLAP},
}


def config_for(name: str, checkpoint: str | None = None) -> StaConfig:
    return StaConfig(
        mode=AnalysisMode.ITERATIVE, checkpoint=checkpoint, **FIXTURES[name]
    )


def interrupt(design, config: StaConfig, passes: int) -> None:
    """Run ``config``'s iterative analysis until ``passes`` passes are
    checkpointed to ``config.checkpoint``, then stop it."""
    sta = CrosstalkSTA(design, config)
    propagator = sta._propagator_for(config)
    manager = CheckpointManager(
        config.checkpoint,
        fingerprint=sta._checkpoint_fingerprint(config),
        propagator=propagator,
    )
    try:
        run_iterative(
            propagator, checkpoint=manager, after_pass=interrupt_after_pass(passes)
        )
    except AnalysisInterrupted:
        return
    raise RuntimeError(f"the run converged within {passes} pass(es)")


def resumed_digest(design, result) -> dict:
    """The golden fingerprints of one resumed analysis."""
    payload = explain_result(design.circuit, result)
    blob = json.dumps(payload, sort_keys=True)
    return {
        **digest(design, result),
        "explain_sha256": hashlib.sha256(blob.encode()).hexdigest(),
    }


def main() -> int:
    design = build_design("s27")
    CHECKPOINT_DIR.mkdir(exist_ok=True)
    entries = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name in FIXTURES:
            target = CHECKPOINT_DIR / f"{name}.json"
            interrupt(design, config_for(name, str(target)), passes=1)
            work = str(Path(tmp) / target.name)
            shutil.copyfile(target, work)
            result = CrosstalkSTA(design, config_for(name, work)).run()
            entries[name] = resumed_digest(design, result)
            print(f"{name}: {entries[name]['longest_delay']}", flush=True)
    payload = {"schema": SCHEMA, "entries": entries}
    RESUMED_PATH.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(entries)} checkpoints to {CHECKPOINT_DIR}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
