"""Shared fixtures.

Expensive objects (prepared designs, delay calculators) are session-scoped;
tests must not mutate them.
"""

from __future__ import annotations

import pytest

from repro.circuit import default_library, s27
from repro.devices.params import default_process
from repro.flow import prepare_design
from repro.waveform import GateDelayCalculator


@pytest.fixture(scope="session")
def process():
    return default_process()


@pytest.fixture(scope="session")
def library():
    return default_library()


@pytest.fixture(scope="session")
def calculator():
    return GateDelayCalculator()


@pytest.fixture(scope="session")
def s27_circuit():
    return s27()


@pytest.fixture(scope="session")
def s27_design(s27_circuit):
    return prepare_design(s27_circuit)


@pytest.fixture(scope="session")
def small_design():
    """A generated ~120-cell design with real coupling, shared read-only
    (the golden digests' ``small`` design)."""
    from tests.golden.make_golden import build_design

    return build_design("small")
