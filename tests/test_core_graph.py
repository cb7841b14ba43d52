"""Tests for timing-graph ordering and state."""

import pytest

from repro.circuit import s27
from repro.circuit.netlist import Circuit, NetlistError
from repro.core.columnar import DIR_INDEX, ColumnTimingState, compile_design
from repro.core.graph import evaluation_order
from repro.waveform.pwl import FALLING, RISING


class TestEvaluationOrder:
    def test_all_cells_once(self):
        circuit = s27()
        order = evaluation_order(circuit)
        names = [c.name for c in order]
        assert len(names) == len(set(names)) == len(circuit.cells)

    def test_drivers_precede_consumers(self):
        circuit = s27()
        position = {c.name: i for i, c in enumerate(evaluation_order(circuit))}
        for cell in circuit.cells.values():
            dep_nets = (
                [cell.pins["CLK"].net] if cell.is_sequential else cell.input_nets()
            )
            for net in dep_nets:
                driver = net.driver_cell()
                if driver is not None:
                    assert position[driver.name] < position[cell.name]

    def test_flip_flop_after_clock_buffers(self):
        """A buffered clock must evaluate before the flip-flops it feeds."""
        circuit = Circuit("c")
        circuit.add_clock()
        circuit.add_input("d")
        circuit.add_cell("INV_X4", "buf1", {"A": "CLK", "Y": "ck1"})
        circuit.add_cell("INV_X4", "buf2", {"A": "ck1", "Y": "ck2"})
        circuit.add_cell("DFF_X1", "ff", {"D": "d", "CLK": "ck2", "Q": "q"})
        circuit.add_cell("INV_X1", "g", {"A": "q", "Y": "y"})
        position = {c.name: i for i, c in enumerate(evaluation_order(circuit))}
        assert position["buf1"] < position["buf2"] < position["ff"] < position["g"]

    def test_combinational_cycle_detected(self):
        circuit = Circuit("c")
        circuit.add_cell("INV_X1", "a", {"A": "y2", "Y": "y1"})
        circuit.add_cell("INV_X1", "b", {"A": "y1", "Y": "y2"})
        with pytest.raises(NetlistError, match="cycle"):
            evaluation_order(circuit)

    def test_ff_feedback_allowed(self):
        circuit = Circuit("c")
        circuit.add_clock()
        circuit.add_cell("DFF_X1", "ff", {"D": "y", "CLK": "CLK", "Q": "q"})
        circuit.add_cell("INV_X1", "g", {"A": "q", "Y": "y"})
        assert len(evaluation_order(circuit)) == 2


class TestTimingState:
    """The pass state (:class:`ColumnTimingState`) over s27's nets."""

    @pytest.fixture
    def state(self, s27_design):
        return ColumnTimingState(compile_design(s27_design))

    def _set_event(self, state, net_name, direction, t):
        state.set_event(
            DIR_INDEX[direction],
            state.compiled.net_id[net_name],
            t,
            100e-12,
            t - 40e-12,
            t + 40e-12,
        )

    def test_quiet_time_from_event(self, state):
        self._set_event(state, "G10", RISING, 1e-9)
        assert state.quiet_time("G10", RISING) == pytest.approx(1.04e-9)

    def test_quiet_time_without_event_is_minus_infinity(self, state):
        state.present[state.compiled.net_id["G10"]] = True
        assert state.quiet_time("G10", FALLING) == float("-inf")
        assert state.quiet_time("unknown", RISING) == float("-inf")

    def test_snapshot_covers_all_directions(self, state):
        self._set_event(state, "G10", RISING, 1e-9)
        snapshot = state.quiet_snapshot()
        assert snapshot[("G10", RISING)] == pytest.approx(1.04e-9)
        assert snapshot[("G10", FALLING)] == float("-inf")
        assert set(snapshot) == {("G10", RISING), ("G10", FALLING)}
