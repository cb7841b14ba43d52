"""Transistor-level device models.

This subpackage provides the device substrate the paper's transistor-level
timing analysis is built on (Section 3 of Ringe et al., DATE 2000):

* :mod:`repro.devices.params` -- 0.5 um process constants.
* :mod:`repro.devices.mosfet` -- smooth analytic MOSFET DC model.
* :mod:`repro.devices.tables` -- the per-stage table of that model with
  bilinear interpolation, the representation the timing analysis reads.
* :mod:`repro.devices.newton` -- damped scalar Newton iteration used by the
  waveform engine ("classical Newton approximation" per the paper, in
  contrast to TETA's successive-chord method).
"""

from repro.devices.mosfet import Mosfet, MosfetParams, nmos, pmos
from repro.devices.newton import NewtonError, NewtonResult, solve_newton
from repro.devices.params import ProcessParams, default_process
from repro.devices.tables import StageTable

__all__ = [
    "Mosfet",
    "MosfetParams",
    "NewtonError",
    "NewtonResult",
    "ProcessParams",
    "StageTable",
    "default_process",
    "nmos",
    "pmos",
    "solve_newton",
]
