"""The tracer's byte-identity gate: traced runs against frozen exports.

The schedule recorder's half of the observation surface is frozen in
``tests/machine/golden/commcheck_*.json``; this is the tracer's half.
For three traced runs, ``tests/obs/golden/`` holds the Chrome trace,
the JSONL event stream and the metrics snapshot, each written only
after two runs of the scenario produced it byte for byte:

- ``machine_hard_fault`` — the two-rank hard-fault campaign of
  ``tests/obs/test_determinism.py`` (send, fault, replacement,
  recovery);
- ``parallel`` — a fault-free ``multiply_parallel`` at ``P = 9``;
- ``ft_hard_fault`` — ``multiply_fault_tolerant`` at ``P = 9, f = 1``
  with rank 4 killed at its first multiplication op: aborts,
  replacement, modeled collectives and the recovery phase.

A change that alters a trace on purpose regenerates the matching
fixture from :func:`observe` and says why.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.core.api import multiply_fault_tolerant, multiply_parallel
from repro.machine.engine import Machine
from repro.machine.errors import HardFault
from repro.machine.fault import FaultEvent, FaultSchedule
from repro.obs.export import dump_chrome_trace, dump_jsonl

GOLDEN = Path(__file__).parent / "golden"

A = (1 << 2000) - 17
B = (1 << 1999) + 3


def _machine_hard_fault():
    def program(comm):
        with comm.phase("evaluation"):
            if comm.rank == 0:
                comm.send(1, [1, 2, 3, 4])
            else:
                comm.recv(0)
        try:
            with comm.phase("multiplication"):
                comm.charge_flops(100)
        except HardFault:
            comm.begin_replacement()
            with comm.phase("recovery"):
                comm.charge_flops(10)
        return comm.incarnation

    sched = FaultSchedule([FaultEvent(rank=1, phase="multiplication", op_index=0)])
    run = Machine(2, fault_schedule=sched, trace=True).run(program)
    assert run.results == [0, 1]
    return run


def _parallel():
    out = multiply_parallel(A, B, p=9, k=2, trace=True)
    assert out.product == A * B
    return out.run


def _ft_hard_fault():
    sched = FaultSchedule([FaultEvent(rank=4, phase="multiplication", op_index=0)])
    out = multiply_fault_tolerant(A, B, p=9, k=2, f=1, fault_schedule=sched, trace=True)
    assert out.product == A * B
    return out.run


CASES = {
    "machine_hard_fault": _machine_hard_fault,
    "parallel": _parallel,
    "ft_hard_fault": _ft_hard_fault,
}


def observe(case: str, scratch: Path) -> dict[str, str]:
    """Run ``case`` traced; return fixture suffix -> exported text."""
    run = CASES[case]()
    chrome, jsonl = scratch / f"{case}.chrome.json", scratch / f"{case}.jsonl"
    dump_chrome_trace(run.trace, str(chrome))
    dump_jsonl(run.trace, str(jsonl))
    metrics = json.dumps(run.metrics.as_dict(), sort_keys=True, indent=1) + "\n"
    return {
        "chrome.json": chrome.read_text(encoding="utf-8"),
        "jsonl": jsonl.read_text(encoding="utf-8"),
        "metrics.json": metrics,
    }


@pytest.mark.parametrize("case", sorted(CASES))
def test_trace_exports_byte_identical(case, tmp_path):
    for suffix, got in observe(case, tmp_path).items():
        want = (GOLDEN / f"{case}.{suffix}").read_text(encoding="utf-8")
        assert got == want, f"{case}.{suffix} drifted from its fixture"
