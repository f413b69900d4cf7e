#!/usr/bin/env python3
"""The repository's benchmark: one command, three seeded workloads.

    python3 perfbench/run.py --workload table1_multiply --seed 1 --seconds 30 --trace 0

Runs one workload (see ``workloads.py``) as a closed loop from a single
client: each op starts after the previous one returned.  The loop runs
for ``--seconds`` and stops at the next cycle boundary, checks every
output exactly, then checks the workload's pinned fixture.

``--trace 0`` prints the end-to-end metrics.  ``setup_s`` is the median,
over several fresh processes, of the wall time from process spawn to the
point where the first op would start.  Op times are reported in units of
a fixed reference pass (``reference_pass``) timed after every op: the
shared host's speed drifts by a quarter over minutes, the ratio cancels
that drift, and any change to the program still moves it.  The raw
seconds are printed beside them.

``--trace 1`` prints the per-layer metrics instead: one untraced cycle
(for ``trace.overhead_frac`` and the traced-vs-untraced output check),
then the traced loop (see ``layertrace.py``), then single-threaded
baselines.  Spans are written to ``.perfbench/`` when the run ends.

The last stdout line is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.
The exit code is 0 only when every op and fixture check passed; it is 2
when the environment selects a non-default engine, backend, sanitizer,
job count or timeout scale, or when the sources are missing.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPAN_DIR = ROOT / ".perfbench"

#: Fresh processes timed for ``setup_s``.
SETUP_REPS = 3
#: ``op_ref.tail`` is the mean of this share of the ops, the slowest.
TAIL_SHARE = 0.1
#: Allowed gap between an op's wall time and the sum of its attributed times.
SUM_TOLERANCE = 0.01
#: An op's reference time is the median of the reference passes of the ops
#: at most this many places before or after it.
REF_WINDOW = 2

#: ``ref`` is the time of one ``reference_pass`` measured next to the op.
END_TO_END = {
    "setup_s": "s",
    "op_ref.p50": "ref",
    "op_ref.tail": "ref",
    "ops_per_ref": "1/ref",
    "cpu_ref_per_op": "ref",
    "peak_rss_mb": "MB",
}

PHASES = (
    "evaluation", "multiplication", "interpolation", "code-creation",
    "recovery", "checkpoint", "work",
)
VERDICTS = (
    "exact", "exact-beyond-budget", "loud-beyond-budget",
    "wrong-product", "loud-within-budget", "hang", "crash",
)

PER_LAYER = {
    "bigint.leaf.calls": "count/op",
    "bigint.leaf.self_s": "s/op",
    "bigint.leaf.limbs": "count/op",
    "bigint.leaf.flops": "count/op",
    "bigint.blockops.calls": "count/op",
    "bigint.blockops.self_s": "s/op",
    "bigint.limbs.constructed": "count/op",
    "bigint.limbs.words_calls": "count/op",
    "bigint.operators.calls": "count/op",
    "bigint.operators.self_s": "s/op",
    **{f"core.phase.{p}.self_s": "s/op" for p in PHASES},
    "machine.run.calls": "count/op",
    "machine.run.ranks": "count/op",
    "machine.engine.spawn_s": "s/op",
    "machine.engine.teardown_s": "s/op",
    "machine.engine.handoff_s": "s/op",
    "machine.comm.send.calls": "count/op",
    "machine.comm.send.self_s": "s/op",
    "machine.comm.recv.calls": "count/op",
    "machine.comm.recv.self_s": "s/op",
    "machine.comm.recv.wait_s": "s/op",
    "machine.comm.gate.calls": "count/op",
    "machine.comm.gate.self_s": "s/op",
    "machine.comm.gate.wait_s": "s/op",
    "machine.collectives.calls": "count/op",
    "machine.collectives.self_s": "s/op",
    "machine.collectives.wait_s": "s/op",
    "machine.comm.words_sent": "count/op",
    "machine.fault.fired": "count/op",
    "machine.fault.replacements": "count/op",
    "machine.deadlock.detected": "count/op",
    "coding.encode.calls": "count/op",
    "coding.encode.self_s": "s/op",
    "coding.recover.calls": "count/op",
    "coding.recover.self_s": "s/op",
    "campaign.probe_s": "s",
    "campaign.trial.calls": "count/op",
    "campaign.oracle.self_s": "s/op",
    **{f"campaign.verdict.{v}": "count/op" for v in VERDICTS},
    "trace.overhead_frac": "frac",
    "trace.unattributed_frac": "frac",
    "ref.native_mul_s": "s/op",
    "ref.sequential_s": "s/op",
}

#: Environment switches that must keep their defaults, and the defaults.
PINNED_ENV = (
    ("REPRO_ENGINE", "engine", "event"),
    ("REPRO_BACKEND", "backend", "sim"),
    ("REPRO_RACECHECK", "racecheck_enabled", False),
    ("REPRO_JOBS", "default_jobs", 1),
    ("REPRO_TIMEOUT_SCALE", "timeout_scale", 1.0),
)


@dataclass
class Op:
    index: int
    wall: float
    cpu: float
    problems: list[str]
    signature: Any
    ref_wall: float = 0.0
    ref_cpu: float = 0.0


def reference_pass() -> int:
    """A fixed workload that no program change can touch, shaped like an
    event-engine op in miniature: 64 threads pass a baton round a ring 4
    times, each doing a small schoolbook limb product per turn (about
    15 ms on a 2-vCPU Xeon).  Timed after each op, it measures
    how fast the host runs thread start-up, handoffs and interpreter work
    at that moment."""
    rng = random.Random(7)
    a = [rng.getrandbits(16) for _ in range(12)]
    b = [rng.getrandbits(16) for _ in range(12)]
    threads, laps = 64, 4
    batons = [threading.Event() for _ in range(threads)]
    sums = [0] * threads

    def turn(rank: int) -> None:
        for _ in range(laps):
            batons[rank].wait()
            batons[rank].clear()
            out = [0] * 24
            for i, x in enumerate(a):
                for j, y in enumerate(b):
                    out[i + j] += x * y
            sums[rank] += out[11]
            batons[(rank + 1) % threads].set()

    workers = [threading.Thread(target=turn, args=(r,)) for r in range(threads)]
    for w in workers:
        w.start()
    batons[0].set()
    for w in workers:
        w.join()
    return sum(sums)


def environment_problems() -> list[str]:
    from repro.util import env

    problems = []
    for var, reader, default in PINNED_ENV:
        try:
            value = getattr(env, reader)()
        except ValueError as exc:
            problems.append(str(exc))
            continue
        if value != default:
            problems.append(f"{var}={os.environ[var]!r} is not the default ({default!r})")
    return problems


def pin_to_one_cpu() -> None:
    """Keep this process and its threads on the first CPU it may use.

    The event engine runs one rank at a time and hands the baton between
    threads thousands of times per op.  On a shared 2-vCPU virtual
    machine a wake-up sent to the other vCPU waits until the host
    schedules that vCPU: unpinned P=1024 grid ops there took 0.6-2.3 s
    while pinned ones, run alternately with them, took 0.39-0.64 s.
    Child processes inherit the mask."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def environment_record() -> dict[str, Any]:
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = ""
    return {
        "nproc": os.cpu_count(),
        "pinned_cpus": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "git_sha": sha or "unknown",
        "repro_env": {k: v for k, v in sorted(os.environ.items()) if k.startswith("REPRO_")},
    }


def closed_loop(wl: Any, seconds: float, tracer: Any = None, cycles: int | None = None,
                reference: bool = False) -> tuple[list[Op], float]:
    """Run ops 0, 1, ... until ``seconds`` have passed (or ``cycles``
    cycles ran), stopping only at a cycle boundary.  With ``reference``,
    time one ``reference_pass`` after each op's check."""
    from layertrace import OP_SPAN

    ops: list[Op] = []
    start = time.perf_counter()
    i = 0
    while True:
        inp = wl.inputs(i)
        cpu0 = time.process_time()
        t0 = time.perf_counter()
        if tracer is not None:
            tracer.op, tracer.active = i, True
            sid = tracer.open(OP_SPAN)
        try:
            out = wl.run(inp)
        except Exception as exc:  # noqa: BLE001 - an op that raises is a failed op
            out, problems = None, [f"op {i}: {type(exc).__name__}: {exc}"]
        finally:
            if tracer is not None:
                tracer.close(sid)
                tracer.active = False
        wall = time.perf_counter() - t0
        cpu = time.process_time() - cpu0
        if out is not None:
            problems = wl.check(inp, out)
            if tracer is not None:
                tracer.counts.update(wl.counts(out))
        signature = wl.signature(out) if out is not None and i < wl.cycle else None
        op = Op(i, wall, cpu, problems, signature)
        if reference:
            cpu0 = time.process_time()
            t0 = time.perf_counter()
            reference_pass()
            op.ref_wall = time.perf_counter() - t0
            op.ref_cpu = time.process_time() - cpu0
        ops.append(op)
        i += 1
        if i % wl.cycle == 0:
            if cycles is not None and i >= cycles * wl.cycle:
                break
            if cycles is None and time.perf_counter() - start >= seconds:
                break
    return ops, time.perf_counter() - start


def tail(samples: list[float]) -> tuple[float, int]:
    """(mean, count) of the slowest ``TAIL_SHARE`` of the samples, at
    least one.  A mean over the slowest ops rather than a percentile: the
    workloads mix cases of very different cost, and a percentile that
    lands on the border between two cases jumps from one to the other."""
    k = max(1, math.ceil(TAIL_SHARE * len(samples)))
    return statistics.fmean(sorted(samples)[-k:]), k


def setup_samples(workload: str, seed: int) -> list[float]:
    """Seconds from spawning a fresh process to its first op, per process."""
    samples = []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--setup-only"]
    for _ in range(SETUP_REPS):
        start = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdin=subprocess.DEVNULL,
                              stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.stdout.read()
            code = proc.wait(timeout=120)
        if line.strip() != "READY" or code != 0:
            raise RuntimeError(f"setup process exited with {code} before its first op")
        samples.append(elapsed)
    return samples


def metric(value: float, unit: str) -> dict[str, Any]:
    return {"value": value, "unit": unit}


def local_reference(values: list[float]) -> list[float]:
    """Per op, the median of the reference times within ``REF_WINDOW`` ops."""
    return [
        statistics.median(values[max(0, i - REF_WINDOW): i + REF_WINDOW + 1])
        for i in range(len(values))
    ]


def end_to_end(ops: list[Op], cycle: int, loop_wall: float, setups: list[float]) -> dict[str, Any]:
    """``op_ref.p50`` is the median over cycles of a cycle's mean op time:
    a cycle mixes cases of very different cost (k=2 and k=3 multiplies,
    campaign variants), and the plain median of such a mix falls in the
    gap between them.  The tail and the means are taken over ops."""
    n = len(ops)
    walls = [op.wall for op in ops]
    rel = [op.wall / ref for op, ref in zip(ops, local_reference([op.ref_wall for op in ops]))]
    cpu_rel = [op.cpu / ref for op, ref in zip(ops, local_reference([op.ref_cpu for op in ops]))]
    cycle_rel = [statistics.fmean(rel[j: j + cycle]) for j in range(0, n, cycle)]
    cycle_s = [statistics.fmean(walls[j: j + cycle]) for j in range(0, n, cycle)]
    tail_s, k = tail(walls)
    tail_ref, _ = tail(rel)
    refs = [op.ref_wall * 1e3 for op in ops]
    print(f"reference     {statistics.median(refs):.3f} ms per pass "
          f"(median of {n}; min {min(refs):.3f}, max {max(refs):.3f})")
    print(f"op_s.p50      {statistics.median(cycle_s):.4f} s     op_ref.p50  "
          f"{statistics.median(cycle_rel):.3f} ref  ({len(cycle_rel)} cycles of {cycle} ops)")
    print(f"op_s.tail     {tail_s:.4f} s     op_ref.tail {tail_ref:.3f} ref  "
          f"(mean of the slowest {k} of {n} ops)")
    print(f"ops_per_s     {n / loop_wall:.4f} /s    ops_per_ref {n / sum(rel):.5f} /ref  "
          f"(loop wall {loop_wall:.2f} s, reference passes included)")
    print(f"cpu_s_per_op  {sum(op.cpu for op in ops) / n:.4f} s     cpu_ref_per_op {sum(cpu_rel) / n:.3f} ref")
    print(f"setup_s       {statistics.median(setups):.4f} s     (median of {len(setups)} processes: "
          + ", ".join(f"{s:.3f}" for s in setups) + ")")
    values = {
        "setup_s": statistics.median(setups),
        "op_ref.p50": statistics.median(cycle_rel),
        "op_ref.tail": tail_ref,
        "ops_per_ref": n / sum(rel),
        "cpu_ref_per_op": sum(cpu_rel) / n,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return {name: metric(values[name], unit) for name, unit in END_TO_END.items()}


def native_and_sequential(pairs: list[tuple[int, int, int]]) -> tuple[float, float, list[str]]:
    """Mean per-op seconds of Python ``a*b`` and of the sequential lazy
    Toom-Cook on the same operands."""
    from repro.core.api import multiply

    from workloads import WORD_BITS

    if not pairs:
        return 0.0, 0.0, []
    native, sequential, problems = [], [], []
    for a, b, k in pairs:
        batches = []
        for _ in range(5):
            t0 = time.perf_counter()
            for _ in range(1000):
                a * b
            batches.append((time.perf_counter() - t0) / 1000)
        native.append(statistics.median(batches))
        t0 = time.perf_counter()
        product = multiply(a, b, k=k, lazy=True, word_bits=WORD_BITS)
        sequential.append(time.perf_counter() - t0)
        if product != a * b:
            problems.append(f"sequential reference k={k}: wrong product")
    return statistics.fmean(native), statistics.fmean(sequential), problems


def per_layer(wl: Any, args: argparse.Namespace) -> tuple[dict[str, Any], list[Op], list[str]]:
    from layertrace import LayerTracer, attribute

    base, _ = closed_loop(wl, 0.0, cycles=1)
    tracer = LayerTracer()
    wl.oracle_span = lambda: tracer.span("campaign.oracle")
    tracer.install()
    try:
        ops, _ = closed_loop(wl, args.seconds, tracer=tracer)
    finally:
        tracer.uninstall()
        wl.oracle_span = contextlib.nullcontext
    problems = [p for op in base for p in op.problems]
    for before, after in zip(base, ops):
        if before.signature != after.signature:
            problems.append(f"op {before.index}: traced output differs from untraced output")
    native_s, sequential_s, ref_problems = native_and_sequential(wl.operand_pairs())
    problems += ref_problems

    by_op = attribute(tracer.spans)
    n = len(ops)
    totals: Counter[str] = Counter()
    for op in ops:
        acc = by_op.get(op.index, Counter())
        if abs(acc["sum_s"] - acc["wall_s"]) > SUM_TOLERANCE * acc["wall_s"]:
            problems.append(f"op {op.index}: attributed {acc['sum_s']:.6f} s of {acc['wall_s']:.6f} s")
        totals.update(acc)
    wall = totals.pop("wall_s")
    totals.pop("sum_s")
    unattributed = totals.pop("unattributed_s", 0.0)
    undeclared = sorted(set(totals) - set(PER_LAYER))
    if undeclared:
        problems.append(f"undeclared layer metrics: {undeclared}")
    counts = tracer.counts
    values = {name: (totals[name] + counts[name]) / n for name in PER_LAYER}
    values["campaign.probe_s"] = getattr(wl, "probe_s", 0.0)
    values["trace.overhead_frac"] = (
        sum(op.wall for op in ops[: len(base)]) / sum(op.wall for op in base) - 1.0
    )
    values["trace.unattributed_frac"] = unattributed / wall
    values["ref.native_mul_s"] = native_s
    values["ref.sequential_s"] = sequential_s

    print_layer_table(values, unattributed / n, wall / n)
    SPAN_DIR.mkdir(exist_ok=True)
    path = SPAN_DIR / f"spans-{wl.name}-seed{args.seed}.jsonl.gz"
    tracer.dump(path)
    print(f"spans: {len(tracer.spans)} written to {path.relative_to(ROOT)}")
    metrics = {name: metric(values[name], unit) for name, unit in PER_LAYER.items()}
    return metrics, ops, problems


def print_layer_table(values: dict[str, float], unattributed: float, wall: float) -> None:
    """Self time per op by layer, largest first, with its share of the
    op's wall time; calls and waits beside it."""
    rows = []
    for name, value in values.items():
        if name.endswith(".self_s") or name.startswith("machine.engine."):
            layer = name.rsplit(".", 1)[0] if name.endswith(".self_s") else name
            rows.append((value, layer))
    rows.append((unattributed, "unattributed"))
    print(f"{'layer':34} {'self s/op':>10} {'share':>7} {'calls/op':>10} {'wait s/op':>10}")
    for value, layer in sorted(rows, reverse=True):
        calls = values.get(layer + ".calls")
        wait = values.get(layer + ".wait_s")
        print(f"{layer:34} {value:10.5f} {value / wall:7.1%} "
              f"{'' if calls is None else f'{calls:10.1f}':>10} "
              f"{'' if wait is None else f'{wait:10.5f}':>10}")
    print(f"{'op wall':34} {wall:10.5f}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    pin_to_one_cpu()
    if not (SRC / "repro").is_dir():
        print(f"perfbench: no repro sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    problems = environment_problems()
    if problems:
        print("perfbench: refusing to run: " + "; ".join(problems), file=sys.stderr)
        return 2

    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r} "
              f"(known: {', '.join(WORKLOADS)})", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload](args.seed)
    if args.setup_only:
        wl.inputs(0)
        print("READY", flush=True)
        return 0

    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("env: " + json.dumps(environment_record(), sort_keys=True))
    if args.trace:
        metrics, ops, problems = per_layer(wl, args)
    else:
        setups = setup_samples(args.workload, args.seed)
        ops, loop_wall = closed_loop(wl, args.seconds, reference=True)
        metrics = end_to_end(ops, wl.cycle, loop_wall, setups)
    fixture_problems = wl.fixture()
    failed = sum(1 for op in ops if op.problems) + (1 if fixture_problems else 0)
    attempted = len(ops) + 1
    for problem in [p for op in ops for p in op.problems] + fixture_problems + problems:
        print(f"FAIL: {problem}")
    print(f"failed_frac   {failed / attempted:.4f}  ({failed}/{attempted}, fixture included)")
    correct = failed == 0 and not problems
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
