"""Table-lookup (NLDM) delay calculator.

A :class:`~repro.waveform.gatedelay.GateDelayCalculator` that answers
every canonical arc key from characterized slew x load tables instead of
integrating the stage, so the analyzer and the propagator run on it
unchanged (cache, priming, counters).  Coupling capacitances are handled
the only way a capacitance-only table model can: folded into the load,
at 1x (ignore) or 2x (the classical "static doubled" approach).  The
active coupling model of the paper fundamentally cannot be expressed
here -- which is exactly the comparison the ablation bench quantifies.
"""

from __future__ import annotations

import hashlib
from typing import Iterable

from repro.characterize.characterize import LibraryCharacterization
from repro.circuit.library import CellType
from repro.waveform.gatedelay import ArcResult, GateDelayCalculator
from repro.waveform.pwl import opposite


class NldmDelayCalculator(GateDelayCalculator):
    """Arc calculator backed by NLDM tables.

    ``coupling_factor`` scales coupling capacitance into the lumped load:
    1.0 reproduces the best-case treatment, 2.0 the static-doubled one.
    Any *active* coupling in a key is folded at ``coupling_factor`` as
    well -- the table model's only option.  A key's stage-signature token
    maps back to the first (cell, pin) that interned it; pins sharing a
    signature integrate the same stage, so their tables agree.
    """

    def __init__(
        self,
        characterization: LibraryCharacterization,
        coupling_factor: float = 2.0,
        **kwargs,
    ):
        if coupling_factor < 0:
            raise ValueError("coupling factor must be non-negative")
        super().__init__(**kwargs)
        self.characterization = characterization
        self.coupling_factor = coupling_factor

    def _solve_key(self, key: tuple) -> ArcResult:
        token, input_direction, tt, c_passive, c_active, _aiding = key
        self._c_evaluations.inc()
        ctype, pin = self._sig_rep[token]
        arc_table = self.characterization.cell(ctype.name).arc(pin, input_direction)
        delay, transition = arc_table.lookup(
            tt, c_passive + self.coupling_factor * c_active
        )
        t_cross = 0.5 * tt + delay
        # Threshold markers approximated from the output ramp shape.
        half_swing = 0.5 * transition
        return ArcResult(
            direction=opposite(input_direction),
            t_cross=t_cross,
            transition=transition,
            t_early=t_cross - half_swing * 0.88,
            t_late=t_cross + half_swing * 0.88,
            coupled=False,
        )

    def _batch_solve(self, misses: list[tuple]) -> None:
        # Table lookups need no vectorized integration.
        for key in misses:
            self._arc_cache[key] = self._solve_key(key)

    def fingerprint(self, cell_types: Iterable[CellType]) -> str:
        """The transistor-level fingerprint plus the tables and the
        coupling factor, so a persisted cache never mixes the models."""
        h = hashlib.sha256(super().fingerprint(cell_types).encode())
        h.update(f"nldm|{self.coupling_factor!r}".encode())
        for name in sorted(self.characterization.cells):
            arcs = self.characterization.cells[name].arcs
            for pin, direction in sorted(arcs):
                table = arcs[(pin, direction)]
                h.update(f"{name}|{pin}|{direction}|{table.slews}|{table.loads}".encode())
                h.update(table.delay.tobytes())
                h.update(table.transition.tobytes())
        return h.hexdigest()
