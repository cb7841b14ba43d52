"""Smoke tests: the fast example scripts run end to end.

The examples double as integration tests of the public API; the
quickest run here in full (each carries internal assertions).
"""

import importlib.util
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).parent.parent / "examples"


def run_example(name: str, argv: list[str] | None = None) -> None:
    spec = importlib.util.spec_from_file_location(name, EXAMPLES / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    old_argv = sys.argv
    sys.argv = [name] + (argv or [])
    try:
        spec.loader.exec_module(module)
        module.main()
    finally:
        sys.argv = old_argv


class TestExamples:
    def test_quickstart(self, capsys):
        run_example("quickstart")
        out = capsys.readouterr().out
        assert "Bound ordering verified" in out
        assert "Critical path" in out

    def test_coupling_demo(self, capsys):
        run_example("coupling_demo")
        out = capsys.readouterr().out
        assert "crosstalk delay penalty" in out
        assert "active coupling model" in out

    def test_hold_analysis(self, capsys):
        run_example("hold_analysis")
        out = capsys.readouterr().out
        assert "min_iterative" in out
        assert "Every earliest-arrival bound precedes its latest-arrival bound." in out

    def test_multicorner(self, capsys):
        run_example("multicorner")
        out = capsys.readouterr().out
        assert "Hold side (min analysis at the fast corner):" in out
        assert "hold 40 ps: MET" in out

    def test_crosstalk_repair(self, capsys):
        run_example("crosstalk_repair", ["0.01"])
        out = capsys.readouterr().out
        assert "Top crosstalk-critical nets:" in out
        assert "cold verify: bit-identical" in out
        assert "C_c" in out

    def test_custom_circuit(self, capsys):
        run_example("custom_circuit")
        out = capsys.readouterr().out
        assert "Longest path:" in out
        assert "bounds hold" in out

    def test_plot_layout(self, tmp_path, capsys):
        target = tmp_path / "layout.svg"
        run_example("plot_layout", [str(target)])
        assert target.exists()
        assert "<svg" in target.read_text()
