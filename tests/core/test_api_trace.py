"""Every high-level entry point takes one observer knob, ``trace=``.

The communication-schedule recorder is an ordinary tracer, so passing
``trace=ScheduleRecorder()`` to any ``repro.core.api.multiply_*`` call
must capture the schedule of every rank without touching the product.
"""

from __future__ import annotations

import pytest

from repro.core import api
from repro.machine.record import ScheduleRecorder

A = (1 << 600) - 17
B = (1 << 599) + 3

ENTRY_POINTS = [
    "multiply_parallel",
    "multiply_fault_tolerant",
    "multiply_replicated",
    "multiply_checkpointed",
    "multiply_multistep",
    "multiply_soft_tolerant",
]


@pytest.mark.parametrize("name", ENTRY_POINTS)
def test_schedule_recorder_through_trace(name):
    recorder = ScheduleRecorder()
    out = getattr(api, name)(A, B, trace=recorder)
    assert out.product == A * B
    ops = recorder.ops()
    assert sorted(ops) == list(range(len(out.run.per_rank)))
    assert all(ops[rank] for rank in ops)
