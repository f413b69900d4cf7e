"""The engine-conformance gate: the event engine against frozen fixtures.

The event engine (docs/MACHINE.md "Engines") replaced free-running OS
threads with a deterministic cooperative scheduler.  Until the thread
engine was retired, this suite ran every scenario on both engines and
demanded byte-identical observations.  The last thread-vs-event
agreement is frozen as data in ``tests/machine/golden/``; every file
there was written only after both engines produced it byte for byte.
Each test re-runs its scenario on the event engine and compares the
result with the fixture.  Four layers, in increasing cost:

- **Products** — every algorithm variant run fault-free must return the
  frozen exact product (``cells.json`` ``products``).
- **Costs** — per-rank F/BW/L vector clocks, the per-phase cost ledgers
  (key order included), the critical path and peak memory
  (``cells.json`` ``costs``): virtual time is a function of the program,
  not of the scheduler.
- **Communication graphs** — commcheck extraction must reproduce the
  canonical JSON of all eight variants (``commcheck_<variant>.json``).
- **Faults and campaigns** — under injected hard faults the recovered
  product, the fired events, the canonical fault log and the error
  class must match (``cells.json`` ``faults``); the seeded campaign
  smoke report must match ``campaign_seed1.json`` to the byte.

Fault-log entry *order* is canonicalized: the thread engine appended
entries in wall-clock interleaving order, which was never deterministic,
so the entry set is the frozen surface.  A change that alters one of
these outputs on purpose regenerates the fixture entry from the matching
``observe_*`` helper below and says why.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path
from typing import Any

import pytest

from repro.campaign.registry import get_variant
from repro.campaign.runner import CampaignConfig, _workload_rng, run_campaign
from repro.campaign.report import to_json
from repro.commcheck.extract import COMMCHECK_VARIANTS, extract_variant, make_config
from repro.core.api import multiply_fault_tolerant, multiply_parallel
from repro.machine.backends.demo import restartable_slice_multiply
from repro.machine.engine import Machine
from repro.machine.fault import FaultEvent, FaultSchedule

GOLDEN = Path(__file__).parent / "golden"

#: Small operands keep the suite fast.
_CFG = CampaignConfig(seed=3, trials=1, bits=240, timeout=20.0, minimize=False)

#: The fast tier's representatives: the plain parallel algorithm (pure
#: send/recv traffic, 9 ranks) and the linear-code variant (votes, gates,
#: agreement and replacement — the full control-plane surface).
_FAST_VARIANTS = ("parallel", "ft_linear")

_X = 0xDEADBEEF_CAFEF00D_0123456789ABCDEF
_Y = 0xFEEDFACE_8BADF00D_FEDCBA9876543210

_COST_CASES = {
    "parallel": (multiply_parallel, {"p": 9, "k": 2}),
    "fault_tolerant": (multiply_fault_tolerant, {"p": 9, "k": 2, "f": 1}),
}

_FAULT_CASES = {
    "mid-work-kill": [FaultEvent(rank=1, phase="work", op_index=2)],
    "first-work-op-kill": [FaultEvent(rank=0, phase="work", op_index=0)],
}

_UNTOLERATED = [
    FaultEvent(rank=0, phase="*", op_index=0),
    FaultEvent(rank=1, phase="*", op_index=0),
]


# -- observations (each one is what a fixture freezes) -----------------------


def _plain(value: Any) -> Any:
    """``value`` as the JSON document the fixture stores."""
    return json.loads(json.dumps(value))


def _events(events) -> list[dict]:
    return [dataclasses.asdict(e) for e in events]


def _execute(name: str, events=()):
    spec = get_variant(name)
    workload = spec.make_workload(_workload_rng(_CFG.seed, name), _CFG)
    return spec.execute(workload, FaultSchedule(list(events)), _CFG)


def observe_product(name: str) -> dict:
    out = _execute(name)
    assert out.error is None, f"{name} failed: {out.error!r}"
    return _plain({"actual": out.actual, "expected": out.expected})


def observe_costs(case: str) -> dict:
    fn, kwargs = _COST_CASES[case]
    out = fn(_X, _Y, word_bits=16, **kwargs)
    run = out.run

    def triple(c) -> list[int]:
        return [c.f, c.bw, c.l]

    return _plain(
        {
            "product": out.product,
            "per_rank": [triple(c) for c in run.per_rank],
            "critical_path": triple(run.critical_path),
            # A list of pairs, not a dict: the phase key order is pinned.
            "phase_costs": [[k, triple(c)] for k, c in run.phase_costs.items()],
            "peak_memory": run.peak_memory,
        }
    )


def observe_recovery(case: str) -> dict:
    out = _execute("ft_linear", _FAULT_CASES[case])
    assert out.error is None, f"{case} failed: {out.error!r}"
    return _plain(
        {"actual": out.actual, "expected": out.expected, "fired": _events(out.fired)}
    )


def observe_machine_fault_log() -> dict:
    sched = FaultSchedule([FaultEvent(rank=2, phase="multiplication", op_index=0)])
    res = Machine(3, timeout=20.0, fault_schedule=sched).run(
        restartable_slice_multiply, args=(_X, _Y)
    )
    log = sorted(
        (e.rank, e.phase, e.op_index, e.incarnation, e.kind)
        for e in res.fault_log.entries
    )
    return _plain(
        {"product": res.results[0], "fired": _events(sched.fired), "fault_log": log}
    )


def observe_untolerated_kill() -> dict:
    out = _execute("parallel", _UNTOLERATED)
    assert out.error is not None, "an over-budget kill must fail loudly"
    return {"error_class": type(out.error).__name__}


def observe_graph(name: str) -> str:
    return extract_variant(name, make_config(bits=240, timeout=20.0)).canonical_json()


def observe_campaign() -> str:
    cfg = CampaignConfig(
        seed=1,
        trials=3,
        variants=("parallel", "ft_linear"),
        bits=240,
        timeout=20.0,
    )
    return to_json(run_campaign(cfg))


# -- the gate -----------------------------------------------------------------


@pytest.fixture(scope="module")
def cells() -> dict:
    return json.loads((GOLDEN / "cells.json").read_text())


def _golden_text(name: str) -> str:
    return (GOLDEN / name).read_bytes().decode("utf-8")


class TestProductConformance:
    @pytest.mark.parametrize("name", _FAST_VARIANTS)
    def test_fast_variants_bit_identical(self, name, cells):
        assert observe_product(name) == cells["products"][name]

    @pytest.mark.slow
    @pytest.mark.parametrize("name", COMMCHECK_VARIANTS)
    def test_all_variants_bit_identical(self, name, cells):
        observed = observe_product(name)
        assert observed["actual"] == observed["expected"]
        assert observed == cells["products"][name]


class TestCostConformance:
    """Virtual time is scheduler-independent: every cost cell matches."""

    @pytest.mark.parametrize("case", list(_COST_CASES))
    def test_per_rank_and_phase_costs_identical(self, case, cells):
        observed = observe_costs(case)
        assert observed["product"] == _X * _Y
        assert observed == cells["costs"][case]


class TestGraphConformance:
    def test_ft_linear_graph_byte_identical(self):
        assert observe_graph("ft_linear") == _golden_text("commcheck_ft_linear.json")

    @pytest.mark.slow
    @pytest.mark.parametrize("name", COMMCHECK_VARIANTS)
    def test_all_graphs_byte_identical(self, name):
        assert observe_graph(name) == _golden_text(f"commcheck_{name}.json")


class TestFaultConformance:
    """Within-budget kills: same recovery, same fault log."""

    @pytest.mark.parametrize("case", list(_FAULT_CASES))
    def test_recovered_product_and_fired_identical(self, case, cells):
        observed = observe_recovery(case)
        assert observed["actual"] == observed["expected"]
        assert observed["fired"], "the injected fault never fired"
        assert observed == cells["faults"][case]

    def test_fault_log_identical_on_machine_run(self, cells):
        """The machine-level fault log (rank, phase, op index, incarnation,
        kind per entry) must carry the frozen entry set."""
        observed = observe_machine_fault_log()
        assert observed["product"] == _X * _Y
        assert observed["fault_log"], "the injected fault left no log entries"
        assert observed == cells["faults"]["machine_run"]

    def test_untolerated_kill_same_loud_class(self, cells):
        """Over-budget injection must fail loudly with the frozen error
        class (never a hang, never silent)."""
        assert observe_untolerated_kill() == cells["faults"]["untolerated_kill"]


class TestCampaignConformance:
    """The seeded smoke campaign is the aggregate oracle: every trial's
    verdict, fault schedule, forensics and repro snippet fold into one
    canonical JSON document that must match the fixture to the byte."""

    def test_campaign_report_byte_identical(self):
        assert observe_campaign() == _golden_text("campaign_seed1.json")
