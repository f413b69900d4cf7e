"""The benchmark's three workloads.

Each workload is a closed loop over a seeded op stream: ``inputs(i)`` is
a pure function of ``(seed, i)``, ``run`` is the only timed call, and
``check`` compares the output with an exact reference (native ``a*b``,
the rank's own input, or the campaign oracle) plus the modeled costs
pinned below.  The pinned values were measured at the commit that added
the benchmark; a moved cell is a failed op.  ``cycle`` is the number of
ops after which the stream has visited every case once; runs stop only
at a cycle boundary so every run measures the same mix.
"""

from __future__ import annotations

import contextlib
import random
import time
from typing import Any

from repro.bigint.limbs import LimbVector
from repro.campaign.oracle import DEFECT_VERDICTS, classify
from repro.campaign.probe import probe_variant
from repro.campaign.registry import registered_variants
# The runner's own seed derivation, so the trials replay run_campaign's.
from repro.campaign.runner import (
    CampaignConfig,
    _sampler_rng,
    _workload_rng,
    run_campaign,
)
from repro.campaign.sampler import ScheduleSampler
from repro.core import api
from repro.core.ft_linear import ColumnCode
from repro.machine.engine import Machine
from repro.machine.fault import FaultSchedule

WORD_BITS = 16


def _rng(seed: int, i: int) -> random.Random:
    return random.Random(seed * 1_000_003 + i)


def _operand(rng: random.Random, bits: int) -> int:
    return rng.getrandbits(bits) | (1 << (bits - 1))


def run_cells(run: Any) -> dict[str, tuple[int, int, int]]:
    """Critical-path and per-phase ``(F, BW, L)`` of a ``RunResult``."""
    cells = {"critical": _fbl(run.critical_path)}
    for name, counts in run.phase_costs.items():
        cells[name] = _fbl(counts)
    return cells


def _fbl(c: Any) -> tuple[int, int, int]:
    return (c.f, c.bw, c.l)


def _cell_problems(label: str, got: dict, want: dict, fields: tuple[int, ...]) -> list[str]:
    """Compare pinned cells; ``fields`` selects which of F/BW/L to check."""
    problems = []
    if set(got) != set(want):
        problems.append(f"{label}: phases {sorted(got)} != pinned {sorted(want)}")
    for name in sorted(set(got) & set(want)):
        g = tuple(got[name][f] for f in fields)
        w = tuple(want[name][f] for f in fields)
        if g != w:
            problems.append(f"{label}: {name} cell {g} != pinned {w}")
    return problems


# -- table1_multiply ---------------------------------------------------------

TABLE1_API = {
    "parallel": api.multiply_parallel,
    "ft_toomcook": api.multiply_fault_tolerant,
    "replication": api.multiply_replicated,
}

#: (algorithm, k, P, operand bits): both Table 1 geometries.
TABLE1_CASES = (
    ("parallel", 2, 9, 1600),
    ("ft_toomcook", 2, 9, 1600),
    ("replication", 2, 9, 1600),
    ("parallel", 3, 5, 2430),
    ("ft_toomcook", 3, 5, 2430),
    ("replication", 3, 5, 2430),
)

#: F and L depend only on the geometry, not on the operand values (BW
#: does, through the word size of evaluated blocks), so every op is held
#: to these.  Cells are (F, BW, L) with BW unused.
_FL_K2 = {
    "critical": (8162, 0, 16),
    "init": (0, 0, 0),
    "evaluation": (240, 0, 8),
    "multiplication": (7532, 0, 0),
    "interpolation": (390, 0, 8),
}
_FL_K3 = {
    "critical": (29477, 0, 16),
    "init": (0, 0, 0),
    "evaluation": (484, 0, 8),
    "multiplication": (28113, 0, 0),
    "interpolation": (880, 0, 8),
}
TABLE1_FL = {
    ("parallel", 2, 9, 1600): _FL_K2,
    ("ft_toomcook", 2, 9, 1600): {
        "critical": (8330, 0, 23),
        "code-creation": (48, 0, 6),
        "init": (0, 0, 0),
        "evaluation": (360, 0, 9),
        "multiplication": (7532, 0, 0),
        "interpolation": (390, 0, 8),
    },
    ("replication", 2, 9, 1600): _FL_K2,
    ("parallel", 3, 5, 2430): _FL_K3,
    ("ft_toomcook", 3, 5, 2430): {
        "critical": (29741, 0, 21),
        "code-creation": (132, 0, 4),
        "init": (0, 0, 0),
        "evaluation": (616, 0, 9),
        "multiplication": (28113, 0, 0),
        "interpolation": (880, 0, 8),
    },
    ("replication", 3, 5, 2430): _FL_K3,
}

#: The Table 1 rows themselves: the operands of
#: benchmarks/bench_table1_unlimited.py (``random.Random(100*P + k)``,
#: 1600 and 1592 bits), every cell exact.
_ROW_K2 = {
    "critical": (8162, 528, 16),
    "init": (0, 0, 0),
    "evaluation": (240, 177, 8),
    "multiplication": (7532, 0, 0),
    "interpolation": (390, 351, 8),
}
_ROW_K3 = {
    "critical": (28981, 502, 16),
    "init": (0, 0, 0),
    "evaluation": (308, 178, 8),
    "multiplication": (28113, 0, 0),
    "interpolation": (560, 323, 8),
}
TABLE1_FIXTURE = {
    ("parallel", 2, 9): _ROW_K2,
    ("ft_toomcook", 2, 9): {
        "critical": (8330, 588, 23),
        "code-creation": (48, 48, 6),
        "init": (0, 0, 0),
        "evaluation": (360, 189, 9),
        "multiplication": (7532, 0, 0),
        "interpolation": (390, 351, 8),
    },
    ("replication", 2, 9): _ROW_K2,
    ("parallel", 3, 5): _ROW_K3,
    ("ft_toomcook", 3, 5): {
        "critical": (29149, 609, 21),
        "code-creation": (84, 84, 4),
        "init": (0, 0, 0),
        "evaluation": (392, 202, 9),
        "multiplication": (28113, 0, 0),
        "interpolation": (560, 323, 8),
    },
    ("replication", 3, 5): _ROW_K3,
}


class Table1Multiply:
    """Fault-free multiplies through ``repro.core.api`` at both Table 1
    geometries, word_bits=16."""

    name = "table1_multiply"
    cycle = len(TABLE1_CASES)

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def inputs(self, i: int) -> tuple[tuple[str, int, int, int], int, int]:
        case = TABLE1_CASES[i % self.cycle]
        rng = _rng(self.seed, i)
        return case, _operand(rng, case[3]), _operand(rng, case[3])

    def run(self, inp: Any) -> Any:
        (algo, k, p, _bits), a, b = inp
        return TABLE1_API[algo](a, b, p=p, k=k, word_bits=WORD_BITS)

    def check(self, inp: Any, out: Any) -> list[str]:
        case, a, b = inp
        problems = [] if out.product == a * b else [f"{case}: wrong product"]
        return problems + _cell_problems(str(case), run_cells(out.run), TABLE1_FL[case], (0, 2))

    def signature(self, out: Any) -> Any:
        return out.product, run_cells(out.run)

    def counts(self, out: Any) -> dict[str, int]:
        return {}

    def fixture(self) -> list[str]:
        problems = []
        for (algo, k, p, _bits) in TABLE1_CASES:
            rng = random.Random(100 * p + k)
            a, b = rng.getrandbits(1600), rng.getrandbits(1592)
            out = TABLE1_API[algo](a, b, p=p, k=k, word_bits=WORD_BITS)
            label = f"fixture {algo} k={k} P={p}"
            if out.product != a * b:
                problems.append(f"{label}: wrong product")
            want = TABLE1_FIXTURE[(algo, k, p)]
            problems += _cell_problems(label, run_cells(out.run), want, (0, 1, 2))
        return problems

    def operand_pairs(self) -> list[tuple[int, int, int]]:
        """``(a, b, k)`` of one cycle, for the single-threaded baselines."""
        return [(a, b, case[1]) for case, a, b in map(self.inputs, range(self.cycle))]


# -- protocol_grid -----------------------------------------------------------

GRID_COLUMNS, GRID_WIDTH, GRID_F = 256, 3, 1
GRID_SIZE = GRID_COLUMNS * (GRID_WIDTH + GRID_F)
GRID_LIMBS = 3

#: Every cell of every grid op: payloads are single 16-bit limbs (code
#: words carry no more words than the states), so BW does not depend on
#: the values either.
GRID_CELLS = {
    "critical": (19, 3, 3),
    "init": (0, 0, 0),
    "code-creation": (3, 3, 3),
    "work": (16, 0, 0),
}


class ColumnGridProgram:
    """Section 4.1 column protocol on an interleaved grid: column ``c``
    owns ranks ``[c*(w+f), (c+1)*(w+f))``, ``w`` standard ranks then ``f``
    code ranks.  Each rank encodes, runs a work window and passes its
    column's boundary gate.  Standard ranks return their state, code
    ranks the code word they store."""

    def __init__(self, columns: int, width: int, f: int) -> None:
        self.stride = width + f
        self.codes = [
            ColumnCode(
                column=[c * self.stride + i for i in range(width)],
                code_ranks=[c * self.stride + width + j for j in range(f)],
            )
            for c in range(columns)
        ]

    def __call__(self, comm: Any, limbs: tuple[int, ...] | None) -> tuple[int, ...]:
        col = comm.rank // self.stride
        code = self.codes[col]
        state = LimbVector(list(limbs), WORD_BITS) if limbs is not None else None
        with comm.phase("code-creation"):
            word = code.encode(comm, state, epoch=0)
        with comm.phase("work"):
            for _ in range(4):
                comm.charge_flops(4)
        comm.gate(("boundary", col, 0), code.column + code.code_ranks)
        return tuple(state.limbs) if state is not None else tuple(word.limbs)


class ProtocolGrid:
    """``Machine.run`` of the column protocol on a P=1024 grid (256
    columns of 3 standard ranks plus 1 code rank)."""

    name = "protocol_grid"
    cycle = 1

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.program = ColumnGridProgram(GRID_COLUMNS, GRID_WIDTH, GRID_F)

    def inputs(self, i: int) -> list[tuple[Any]]:
        rng = _rng(self.seed, i)
        stride = GRID_WIDTH + GRID_F
        return [
            (tuple(rng.getrandbits(WORD_BITS) for _ in range(GRID_LIMBS)),)
            if rank % stride < GRID_WIDTH
            else (None,)
            for rank in range(GRID_SIZE)
        ]

    def run(self, inp: Any) -> Any:
        machine = Machine(GRID_SIZE, word_bits=WORD_BITS, timeout=60.0)
        return machine.run(self.program, rank_args=inp)

    def expected(self, inp: Any) -> list[tuple[int, ...]]:
        out = [limbs for (limbs,) in inp]
        for code in self.program.codes:
            for j, rank in enumerate(code.code_ranks):
                weights = [int(w) for w in code.code.E[j]]
                out[rank] = tuple(
                    sum(w * inp[r][0][t] for w, r in zip(weights, code.column))
                    for t in range(GRID_LIMBS)
                )
        return out

    def check(self, inp: Any, out: Any) -> list[str]:
        problems = []
        if out.results != self.expected(inp):
            problems.append("grid: a rank's state or code word is wrong")
        if out.fault_log.entries:
            problems.append("grid: a fault fired in a fault-free run")
        return problems + _cell_problems("grid", run_cells(out), GRID_CELLS, (0, 1, 2))

    def signature(self, out: Any) -> Any:
        return out.results, run_cells(out)

    def counts(self, out: Any) -> dict[str, int]:
        return {}

    def fixture(self) -> list[str]:
        inp = ProtocolGrid(0).inputs(0)
        return ["fixture " + p for p in self.check(inp, self.run(inp))]

    def operand_pairs(self) -> list[tuple[int, int, int]]:
        return []


# -- fault_campaign ----------------------------------------------------------

#: The CI smoke campaign's seed; ``run_campaign(seed=1, trials=1)`` must
#: reproduce, per variant, its measured fault-point cell count, phases,
#: and the first trial's shape, events and verdict.
CAMPAIGN_FIXTURE_SEED = 1
CAMPAIGN_FIXTURE = {
    "parallel": (
        27, ("evaluation", "interpolation", "multiplication"), "single-delay", "exact",
        ((1, "interpolation", 4, 0, "delay", 8.0),),
    ),
    "ft_linear": (
        8, ("code-creation", "work"), "hard-plus-delay", "exact",
        ((2, "code-creation", 0, 0, "delay", 8.0), (2, "work", 3, 0, "hard", 8.0)),
    ),
    "ft_polynomial": (
        36, ("evaluation", "interpolation", "multiplication"), "single-tolerated", "exact",
        ((6, "multiplication", 0, 0, "hard", 8.0),),
    ),
    "ft_toomcook": (
        48, ("code-creation", "evaluation", "interpolation", "multiplication"),
        "two-rank-pair", "exact-beyond-budget",
        ((14, "evaluation", 2, 0, "hard", 8.0), (3, "evaluation", 3, 0, "hard", 8.0)),
    ),
    "soft_faults": (
        60, ("evaluation", "interpolation", "multiplication"), "single-untolerated",
        "exact-beyond-budget",
        ((6, "evaluation", 4, 0, "hard", 8.0),),
    ),
    "checkpoint": (
        36, ("checkpoint", "evaluation", "interpolation", "multiplication"),
        "single-tolerated", "exact",
        ((4, "multiplication", 0, 0, "hard", 8.0),),
    ),
    "replication": (
        54, ("evaluation", "interpolation", "multiplication"), "beyond-budget-burst",
        "loud-beyond-budget",
        ((8, "evaluation", 1, 0, "hard", 8.0), (11, "evaluation", 0, 0, "hard", 8.0)),
    ),
    "multistep": (
        30, ("evaluation", "interpolation", "multiplication"), "hard-plus-delay", "exact",
        ((6, "evaluation", 11, 0, "delay", 8.0), (6, "multiplication", 0, 0, "hard", 8.0)),
    ),
}


def _event_key(ev: Any) -> tuple:
    return (ev.rank, ev.phase, ev.op_index, ev.incarnation, ev.kind, ev.factor)


class FaultCampaign:
    """Trials of the default campaign (600 bits, P=9, k=2, f=1) over all
    registered variants, one op per trial, variants in round-robin.  The
    per-variant workload, probe and schedule draws are exactly those of
    ``run_campaign(CampaignConfig(seed=seed), jobs=1)``."""

    name = "fault_campaign"

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.cfg = CampaignConfig(seed=seed)
        self.specs = registered_variants()
        self.cycle = len(self.specs)
        self.workloads = []
        self.samplers = []
        self.draws: list[list[tuple[str, list]]] = []
        self.probe_s = 0.0
        #: Context around the oracle call; the traced run makes it a span.
        self.oracle_span = contextlib.nullcontext
        for spec in self.specs:
            workload = spec.make_workload(_workload_rng(seed, spec.name), self.cfg)
            start = time.perf_counter()
            opspace, _ = probe_variant(spec, workload, self.cfg)
            self.probe_s += time.perf_counter() - start
            self.workloads.append(workload)
            self.samplers.append(
                ScheduleSampler(_sampler_rng(seed, spec.name), spec, opspace, self.cfg)
            )
            self.draws.append([])

    def inputs(self, i: int) -> tuple[int, int, str, list]:
        """Variant ``i % cycle``, its trial ``i // cycle``."""
        v, trial = i % self.cycle, i // self.cycle
        draws = self.draws[v]
        while len(draws) <= trial:
            draws.append(self.samplers[v].draw())
        shape, events = draws[trial]
        return v, trial, shape, events

    def run(self, inp: Any) -> tuple[str, Any]:
        v, _trial, _shape, events = inp
        spec = self.specs[v]
        execution = spec.execute(self.workloads[v], FaultSchedule(list(events)), self.cfg)
        with self.oracle_span():
            return classify(execution, spec.budget(events, self.cfg)), execution

    def check(self, inp: Any, out: Any) -> list[str]:
        verdict = out[0]
        if verdict in DEFECT_VERDICTS:
            return [f"campaign {self.specs[inp[0]].name} trial {inp[1]}: {verdict}"]
        return []

    def signature(self, out: Any) -> Any:
        verdict, execution = out
        return verdict, [_event_key(ev) for ev in execution.fired]

    def counts(self, out: Any) -> dict[str, int]:
        return {"campaign.trial.calls": 1, "campaign.verdict." + out[0]: 1}

    def fixture(self) -> list[str]:
        result = run_campaign(CampaignConfig(seed=CAMPAIGN_FIXTURE_SEED, trials=1), jobs=1)
        got = {
            v.name: (
                v.cells,
                v.phases,
                v.trials[0].shape,
                v.trials[0].verdict,
                tuple(_event_key(ev) for ev in v.trials[0].events),
            )
            for v in result.variants
        }
        problems = [f"fixture campaign: {result.defects} defect(s)"] if not result.ok else []
        for name in sorted(set(got) | set(CAMPAIGN_FIXTURE)):
            if got.get(name) != CAMPAIGN_FIXTURE.get(name):
                problems.append(
                    f"fixture campaign {name}: {got.get(name)} != pinned {CAMPAIGN_FIXTURE.get(name)}"
                )
        return problems

    def operand_pairs(self) -> list[tuple[int, int, int]]:
        return [
            (w[0], w[1], self.cfg.k)
            for w in self.workloads
            if len(w) == 2 and all(isinstance(x, int) for x in w)
        ]


WORKLOADS = {w.name: w for w in (Table1Multiply, ProtocolGrid, FaultCampaign)}
