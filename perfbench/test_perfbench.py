"""Self-tests of the benchmark (run: ``python3 -m pytest perfbench -q``)."""

from __future__ import annotations

import contextlib
import json
import random
from collections import Counter
from pathlib import Path

import pytest

import run
import workloads
from layertrace import LayerTracer, attribute
from repro.campaign.oracle import DEFECT_VERDICTS, VERDICT_EXACT, VERDICT_LOUD, VERDICT_TOLERATED
from repro.campaign.runner import CampaignConfig, run_campaign
from repro.machine.costs import Counts

BENCHMARK = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def campaign() -> workloads.FaultCampaign:
    return workloads.FaultCampaign(3)


# -- the op stream is a pure function of the seed -----------------------------


@pytest.mark.parametrize("cls", [workloads.Table1Multiply, workloads.ProtocolGrid])
def test_inputs_depend_only_on_seed(cls):
    one, two, other = cls(5), cls(5), cls(6)
    for i in range(2 * one.cycle):
        assert one.inputs(i) == two.inputs(i)
    assert one.inputs(0) != other.inputs(0)


def test_campaign_trials_match_run_campaign(campaign):
    """Same seed, same schedules: the benchmark's trial stream replays
    ``run_campaign``'s per-variant trial list exactly."""
    again = workloads.FaultCampaign(3)
    reference = run_campaign(CampaignConfig(seed=3, trials=2, minimize=False), jobs=1)
    for i in range(2 * campaign.cycle):
        v, trial, shape, events = campaign.inputs(i)
        assert (v, trial, shape, events) == again.inputs(i)
        record = reference.variants[v].trials[trial]
        assert record.variant == campaign.specs[v].name
        assert (record.shape, tuple(record.events)) == (shape, tuple(events))


# -- planted failures are counted ----------------------------------------------


def test_planted_wrong_product_and_moved_cell_fail():
    wl = workloads.Table1Multiply(1)
    inp = wl.inputs(0)
    out = wl.run(inp)
    assert wl.check(inp, out) == []

    out.product += 1
    assert any("wrong product" in p for p in wl.check(inp, out))
    out.product -= 1

    cp = out.run.critical_path
    out.run.critical_path = Counts(cp.f + 1, cp.bw, cp.l)
    assert any("critical cell" in p for p in wl.check(inp, out))


class _CorruptGrid(workloads.ProtocolGrid):
    def run(self, inp):
        out = super().run(inp)
        out.results[0] = (0, 0, 0)
        return out


def test_planted_failure_fails_the_command(monkeypatch, capsys):
    monkeypatch.setitem(workloads.WORKLOADS, "protocol_grid", _CorruptGrid)
    monkeypatch.setattr(run, "setup_samples", lambda workload, seed: [0.5])
    code = run.main(["--workload", "protocol_grid", "--seed", "1", "--seconds", "0"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert result["correct"] is False
    assert result["failed"] == 2  # the op and the fixture


def test_non_default_engine_is_refused(monkeypatch, capsys):
    monkeypatch.setenv("REPRO_ENGINE", "thread")
    code = run.main(["--workload", "protocol_grid", "--seed", "1", "--seconds", "0"])
    assert code == 2
    assert capsys.readouterr().out == ""


# -- printed names match BENCHMARK.json ------------------------------------------


def test_declared_names_match_benchmark_json():
    declared = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert declared == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    verdicts = DEFECT_VERDICTS | {VERDICT_EXACT, VERDICT_TOLERATED, VERDICT_LOUD}
    assert set(run.VERDICTS) == verdicts


@pytest.mark.parametrize("trace, key", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_names_are_benchmark_json_names(trace, key, capsys):
    code = run.main(
        ["--workload", "protocol_grid", "--seed", "2", "--seconds", "0", "--trace", str(trace)]
    )
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 0 and result["correct"] is True
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == {m["name"]: m["unit"] for m in BENCHMARK[key]}


def test_local_reference_is_a_windowed_median():
    assert run.local_reference([1.0, 9.0, 2.0, 3.0, 4.0, 8.0]) == [2.0, 2.5, 3.0, 4.0, 3.5, 4.0]


def _ops(scale):
    """Two cycles of three ops whose times and reference passes are all
    ``scale`` times those of a unit host."""
    return [
        run.Op(i, wall=scale * (1 + i % 3), cpu=scale * (1 + i % 3), problems=[], signature=None,
               ref_wall=scale * 0.01, ref_cpu=scale * 0.01)
        for i in range(6)
    ]


def test_reference_units_cancel_host_speed(capsys):
    fast = run.end_to_end(_ops(1.0), 3, 12.0, [0.2])
    slow = run.end_to_end(_ops(1.5), 3, 18.0, [0.3])
    capsys.readouterr()
    for name in ("op_ref.p50", "op_ref.tail", "ops_per_ref", "cpu_ref_per_op"):
        assert slow[name]["value"] == pytest.approx(fast[name]["value"])
    assert fast["op_ref.p50"]["value"] == pytest.approx(200.0)  # cycle mean 2 s, ref 10 ms
    assert fast["ops_per_ref"]["value"] == pytest.approx(6 / 1200)


def test_tail_is_the_mean_of_the_slowest_tenth():
    samples = list(range(1, 101))
    random.Random(0).shuffle(samples)
    assert run.tail(samples) == (95.5, 10)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 1)


# -- the traced breakdown ------------------------------------------------------------


def _traced(wl, cycles):
    tracer = LayerTracer()
    wl.oracle_span = lambda: tracer.span("campaign.oracle")
    tracer.install()
    try:
        ops, _ = run.closed_loop(wl, 0.0, tracer=tracer, cycles=cycles)
    finally:
        tracer.uninstall()
        wl.oracle_span = contextlib.nullcontext
    assert [p for op in ops for p in op.problems] == []
    return tracer


@pytest.fixture(scope="module")
def traced(campaign):
    return {
        "table1_multiply": _traced(workloads.Table1Multiply(1), cycles=1),
        "protocol_grid": _traced(workloads.ProtocolGrid(1), cycles=1),
        # Two cycles: faults, replacements, recoveries, loud failures.
        "fault_campaign": _traced(campaign, cycles=2),
    }


def test_layer_times_add_up_to_op_wall(traced):
    """Self times of every layer, the engine's spawn/teardown/handoff and
    the unattributed remainder sum to each op's wall time within 1%."""
    for tracer in traced.values():
        for op, acc in attribute(tracer.spans).items():
            parts = {
                k: v for k, v in acc.items()
                if k.endswith(".self_s") or k.startswith("machine.engine.") or k == "unattributed_s"
            }
            assert min(parts.values()) > -1e-6, (op, parts)
            assert sum(parts.values()) == pytest.approx(acc["wall_s"], rel=0.01)


def test_tracing_restores_every_patched_entry_point(traced):
    from repro.bigint import blockops, lazy
    from repro.machine import collectives
    from repro.machine.comm import Communicator

    assert lazy.apply_matrix_to_blocks is blockops.apply_matrix_to_blocks
    assert not hasattr(blockops.apply_matrix_to_blocks, "__wrapped__")
    assert not hasattr(collectives.t_reduce, "__wrapped__")
    assert not hasattr(Communicator.send, "__wrapped__")


def test_predicted_zeros(traced):
    counts = {name: Counter(tracer.counts) for name, tracer in traced.items()}
    assert counts["protocol_grid"]["bigint.leaf.calls"] == 0
    assert counts["table1_multiply"]["bigint.leaf.calls"] > 0
    for quiet in ("table1_multiply", "protocol_grid"):
        assert counts[quiet]["machine.fault.fired"] == 0
        assert counts[quiet]["coding.recover.calls"] == 0
    assert counts["fault_campaign"]["machine.fault.fired"] > 0
    assert counts["fault_campaign"]["coding.recover.calls"] > 0
