"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro.frontend.builders import make_builder
from repro.frontend.machine import FunctionalMachine
from repro.timing.config import MachineConfig
from repro.workloads.generators import WorkloadSpec


@pytest.fixture
def machine() -> FunctionalMachine:
    """A fresh functional machine."""
    return FunctionalMachine()


@pytest.fixture
def scalar_builder(machine):
    return make_builder("scalar", machine, name="test")


@pytest.fixture
def mmx_builder(machine):
    return make_builder("mmx", machine, name="test")


@pytest.fixture
def mdmx_builder(machine):
    return make_builder("mdmx", machine, name="test")


@pytest.fixture
def mom_builder(machine):
    return make_builder("mom", machine, name="test")


@pytest.fixture
def way4_config() -> MachineConfig:
    return MachineConfig.for_way(4)


@pytest.fixture
def tiny_spec() -> WorkloadSpec:
    """Smallest workload used for cross-variant correctness tests."""
    return WorkloadSpec(scale=1, seed=7)


#: Every field of a :class:`~repro.timing.lowered.LoweredTrace` that the
#: timing backends read: equal fields simulate identically.
_LOWERED_FIELDS = ("name", "isa", "num_instructions", "total_ops",
                   "num_regs", "shapes", "shape_ids", "srcs", "dsts",
                   "opcodes", "opcode_ids")


def _assert_same_lowering(a, b) -> None:
    for field in _LOWERED_FIELDS:
        assert getattr(a, field) == getattr(b, field), field


def _assert_same_trace(a, b) -> None:
    _assert_same_lowering(a.lower(), b.lower())
    assert (a.name, a.isa) == (b.name, b.isa)
    assert list(a) == list(b)


@pytest.fixture(scope="session")
def assert_same_lowering():
    """``check(a, b)``: two lowerings agree on every lowered column."""
    return _assert_same_lowering


@pytest.fixture(scope="session")
def assert_same_trace():
    """``check(a, b)``: two traces agree on name, ISA, every instruction
    (in order) and every lowered column.

    The column-vs-object equivalence tests use this.  It lowers before it
    iterates, so a column trace is lowered by column adoption, as on a
    cold sweep.
    """
    return _assert_same_trace
