"""Host-time layer tracer for the traced benchmark run (``--trace 1``).

The tracer wraps the public entry points of each ``repro`` layer from
outside the package (nothing under ``src/`` changes) and records one span
per call: ``[name, start, end, parent, op, thread]``.  Spans stay in
memory; :meth:`LayerTracer.dump` writes them out when the run ends.

Attribution relies on the event engine running exactly one rank at a
time.  Every rank program runs on its own carrier thread; the engine's
``block_recv``/``block_gate``/``yield_turn`` calls are recorded as
``machine.park`` spans, the intervals in which that rank's thread is off
the CPU while another rank (or the scheduler) runs.  Hence:

- a span's self time is its duration minus its children on the same
  thread (park spans included), so it is time the rank really ran;
- ``Machine.run``'s self time is its duration minus the time its ranks
  ran; it splits into ``spawn`` (before the first rank starts),
  ``teardown`` (after the last rank ends) and ``handoff`` (the rest:
  scheduler turns and thread switches);
- a park inside ``recv``/``gate``/a collective counts as that layer's
  ``wait_s`` for the part of it in which other ranks ran.

Summed over an op, the self times of every non-park span equal the op's
wall time, which :func:`attribute` reports as ``sum_s`` next to
``wall_s`` so the identity can be checked.
"""

from __future__ import annotations

import bisect
import functools
import gzip
import json
import sys
import threading
import time
from collections import Counter
from contextlib import contextmanager
from typing import Any, Callable, Iterator

NAME, START, END, PARENT, OP, THREAD = range(6)

OP_SPAN = "op"
RANK_SPAN = "machine.rank"
RUN_SPAN = "machine.run"
PARK_SPAN = "machine.park"

#: Layers whose parks count as their ``wait_s``.
WAIT_LAYERS = ("machine.comm.recv", "machine.comm.gate", "machine.collectives")

#: Spans whose self time no layer claims (harness and rank-program glue).
UNATTRIBUTED = (OP_SPAN, RANK_SPAN)

COLLECTIVES = (
    "broadcast", "reduce", "allreduce", "gather", "allgather",
    "scatter", "alltoall", "barrier", "t_reduce", "t_broadcast",
)


class _ThreadState(threading.local):
    def __init__(self) -> None:
        self.stack: list[int] = []
        self.depth: Counter[str] = Counter()
        self.name = threading.current_thread().name


class LayerTracer:
    """Span recorder plus the wrappers that feed it.

    ``op`` is the id of the op in flight; the harness sets it on the main
    thread and rank threads read it, which is safe because only one op
    (and, under the event engine, one thread) runs at a time.
    """

    def __init__(self) -> None:
        self.spans: list[tuple[Any, ...]] = []
        self.counts: Counter[str] = Counter()
        self.op: int = -1
        self.active = False
        self._local = _ThreadState()
        self._patches: list[tuple[Any, str, Any]] = []

    # -- spans ---------------------------------------------------------------

    def open(self, name: str, parent: int | None = None) -> int:
        st = self._local
        if parent is None:
            parent = st.stack[-1] if st.stack else -1
        sid = len(self.spans)
        self.spans.append((name, time.perf_counter(), 0.0, parent, self.op, st.name))
        st.stack.append(sid)
        st.depth[name] += 1
        return sid

    def close(self, sid: int) -> None:
        # Spans are tuples of atoms, which the cyclic GC stops tracking;
        # a list per span would make every collection walk all of them.
        span = self.spans[sid]
        self.spans[sid] = span[:END] + (time.perf_counter(),) + span[END + 1:]
        st = self._local
        if st.stack and st.stack[-1] == sid:
            st.stack.pop()
        else:
            st.stack.remove(sid)
        st.depth[span[NAME]] -= 1

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        sid = self.open(name)
        try:
            yield
        finally:
            self.close(sid)

    def inside(self, name: str) -> bool:
        return self._local.depth[name] > 0

    # -- installation ----------------------------------------------------------

    def install(self) -> None:
        """Wrap every layer boundary; :meth:`uninstall` restores them."""
        from repro.bigint import blockops, matrices
        from repro.bigint.lazy import LazyToomCook
        from repro.bigint.limbs import LimbVector
        from repro.coding import erasure
        from repro.coding.linear import SystematicCode
        from repro.core.ft_linear import ColumnCode
        from repro.machine import collectives
        from repro.machine.comm import Communicator
        from repro.machine.engine import Machine
        from repro.machine.engines.event import EventEngine
        from repro.machine.fault import FaultLog

        self._method(LazyToomCook, "multiply_blocks", self._leaf)
        # The leaf's own matrix applications are part of the leaf.
        self._function(
            blockops,
            "apply_matrix_to_blocks",
            self._spanned("bigint.blockops", skip_inside=("bigint.leaf", "bigint.blockops")),
        )
        self._function(matrices, "toom_operators", self._outermost("bigint.operators"))
        self._method(LimbVector, "__init__", self._counter("bigint.limbs.constructed"))
        self._method(LimbVector, "words", self._counter("bigint.limbs.words_calls"))
        self._method(Communicator, "phase", self._phase)
        self._method(Machine, "run", self._machine_run)
        self._method(Communicator, "send", self._spanned("machine.comm.send"))
        self._method(Communicator, "recv", self._spanned("machine.comm.recv"))
        self._method(Communicator, "recv_raw", self._spanned("machine.comm.recv"))
        self._method(Communicator, "gate", self._spanned("machine.comm.gate"))
        for name in COLLECTIVES:
            self._function(collectives, name, self._outermost("machine.collectives"))
        self._method(EventEngine, "block_recv", self._park)
        self._method(EventEngine, "block_gate", self._park)
        self._method(EventEngine, "yield_turn", self._park)
        self._method(FaultLog, "record", self._counter("machine.fault.fired"))
        self._method(
            Communicator, "begin_replacement", self._counter("machine.fault.replacements")
        )
        self._method(ColumnCode, "encode", self._outermost("coding.encode"))
        self._method(SystematicCode, "encode", self._outermost("coding.encode"))
        self._method(ColumnCode, "recover", self._outermost("coding.recover"))
        self._function(erasure, "reconstruct_erasures", self._outermost("coding.recover"))
        self.active = True

    def uninstall(self) -> None:
        self.active = False
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _method(self, cls: type, attr: str, make: Callable[[Any], Any]) -> None:
        original = cls.__dict__[attr]
        setattr(cls, attr, make(original))
        self._patches.append((cls, attr, original))

    def _function(self, module: Any, attr: str, make: Callable[[Any], Any]) -> None:
        """Replace ``module.attr`` and every ``from module import attr``
        binding in the loaded ``repro`` modules."""
        original = getattr(module, attr)
        wrapped = make(original)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not mod_name.startswith("repro"):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)
                    self._patches.append((mod, key, original))

    # -- wrapper factories -------------------------------------------------------

    def _spanned(self, name: str, skip_inside: tuple[str, ...] = ()) -> Callable[[Any], Any]:
        """Span each call as ``name``, except calls made inside an open
        span of one of ``skip_inside`` on the same thread."""

        def make(fn: Any) -> Any:
            @functools.wraps(fn)
            def wrapper(*args: Any, **kwargs: Any) -> Any:
                if not self.active or any(self.inside(n) for n in skip_inside):
                    return fn(*args, **kwargs)
                self.counts[name + ".calls"] += 1
                sid = self.open(name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    self.close(sid)

            return wrapper

        return make

    def _outermost(self, name: str) -> Callable[[Any], Any]:
        return self._spanned(name, skip_inside=(name,))

    def _counter(self, name: str) -> Callable[[Any], Any]:
        def make(fn: Any) -> Any:
            @functools.wraps(fn)
            def wrapper(*args: Any, **kwargs: Any) -> Any:
                if self.active:
                    self.counts[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        return make

    def _leaf(self, fn: Any) -> Any:
        @functools.wraps(fn)
        def multiply_blocks(algo: Any, va: Any, vb: Any, depth: int) -> Any:
            if not self.active or self.inside("bigint.leaf"):
                return fn(algo, va, vb, depth)
            self.counts["bigint.leaf.calls"] += 1
            self.counts["bigint.leaf.limbs"] += len(va) + len(vb)
            sid = self.open("bigint.leaf")
            try:
                out = fn(algo, va, vb, depth)
            finally:
                self.close(sid)
            self.counts["bigint.leaf.flops"] += out[1]
            return out

        return multiply_blocks

    def _phase(self, fn: Any) -> Any:
        @contextmanager
        def phase(comm: Any, name: str) -> Iterator[None]:
            if not self.active:
                with fn(comm, name):
                    yield
                return
            sid = self.open("core.phase." + name)
            try:
                with fn(comm, name):
                    yield
            finally:
                self.close(sid)

        return phase

    def _park(self, fn: Any) -> Any:
        @functools.wraps(fn)
        def park(*args: Any, **kwargs: Any) -> Any:
            if not self.active:
                return fn(*args, **kwargs)
            sid = self.open(PARK_SPAN)
            try:
                verdict = fn(*args, **kwargs)
            finally:
                self.close(sid)
            if verdict is False:  # quiescence picked this rank as victim
                self.counts["machine.deadlock.detected"] += 1
            return verdict

        return park

    def _machine_run(self, fn: Any) -> Any:
        tracer = self

        @functools.wraps(fn)
        def run(machine: Any, program: Any, *args: Any, **kwargs: Any) -> Any:
            if not tracer.active:
                return fn(machine, program, *args, **kwargs)
            tracer.counts["machine.run.calls"] += 1
            tracer.counts["machine.run.ranks"] += machine.size
            run_sid = tracer.open(RUN_SPAN)

            def rank_program(comm: Any, *rank_args: Any) -> Any:
                sid = tracer.open(RANK_SPAN, parent=run_sid)
                try:
                    return program(comm, *rank_args)
                finally:
                    tracer.close(sid)

            try:
                result = fn(machine, rank_program, *args, **kwargs)
            finally:
                tracer.close(run_sid)
            tracer.counts["machine.comm.words_sent"] += sum(c.bw for c in result.per_rank)
            return result

        return run

    # -- output ------------------------------------------------------------------

    def dump(self, path: Any) -> None:
        """Write every span as one JSON array per line (gzip)."""
        with gzip.open(path, "wt", encoding="ascii") as out:
            out.write(json.dumps(["name", "start", "end", "parent", "op", "thread"]) + "\n")
            for span in self.spans:
                out.write(json.dumps(span) + "\n")


def attribute(spans: list[tuple[Any, ...]]) -> dict[int, Counter[str]]:
    """Per-op layer times from a span list.

    Returns ``{op: Counter}`` with ``<layer>.self_s`` for every spanned
    layer, ``machine.engine.{spawn,teardown,handoff}_s``,
    ``<layer>.wait_s`` for :data:`WAIT_LAYERS`, ``unattributed_s``,
    ``wall_s`` (the op span's duration) and ``sum_s`` (the sum of every
    self time, which equals ``wall_s`` when the spans nest correctly).
    Raises ``ValueError`` on a span that never closed.
    """
    children: list[list[int]] = [[] for _ in spans]
    for sid, span in enumerate(spans):
        if span[END] < span[START]:
            raise ValueError(f"span {sid} ({span[NAME]}) never closed")
        if span[PARENT] >= 0:
            children[span[PARENT]].append(sid)
    # Park time inside each span's same-thread subtree; children are
    # always created after their parent, so one reverse pass suffices.
    parked = [0.0] * len(spans)
    for sid in range(len(spans) - 1, -1, -1):
        span = spans[sid]
        if span[NAME] == PARK_SPAN:
            parked[sid] = span[END] - span[START]
        elif span[NAME] != RUN_SPAN:
            parked[sid] = sum(parked[c] for c in children[sid])

    out: dict[int, Counter[str]] = {}
    for sid, span in enumerate(spans):
        name, op = span[NAME], span[OP]
        acc = out.setdefault(op, Counter())
        dur = span[END] - span[START]
        if name == PARK_SPAN:
            continue
        if name == RUN_SPAN:
            _attribute_run(spans, children, parked, sid, acc)
            continue
        self_s = dur - sum(spans[c][END] - spans[c][START] for c in children[sid])
        acc["sum_s"] += self_s
        if name in UNATTRIBUTED:
            acc["unattributed_s"] += self_s
        else:
            acc[name + ".self_s"] += self_s
        if name == OP_SPAN:
            acc["wall_s"] += dur
    return out


def _attribute_run(
    spans: list[tuple[Any, ...]],
    children: list[list[int]],
    parked: list[float],
    sid: int,
    acc: Counter[str],
) -> None:
    run = spans[sid]
    ranks = [c for c in children[sid] if spans[c][NAME] == RANK_SPAN]
    same_thread = [c for c in children[sid] if spans[c][NAME] != RANK_SPAN]
    ran = sum(spans[r][END] - spans[r][START] - parked[r] for r in ranks)
    self_s = run[END] - run[START] - ran
    self_s -= sum(spans[c][END] - spans[c][START] for c in same_thread)
    acc["sum_s"] += self_s
    if not ranks:
        acc["machine.engine.spawn_s"] += self_s
        return
    first = min(spans[r][START] for r in ranks)
    last = max(spans[r][END] for r in ranks)
    spawn, teardown = first - run[START], run[END] - last
    acc["machine.engine.spawn_s"] += spawn
    acc["machine.engine.teardown_s"] += teardown
    acc["machine.engine.handoff_s"] += self_s - spawn - teardown

    # Running intervals of every rank; their complement inside
    # [first, last] is scheduler time, which a park does not wait on.
    parks: list[int] = []
    running: list[tuple[float, float]] = []
    for r in ranks:
        own = sorted(_parks_under(spans, children, r), key=lambda p: spans[p][START])
        parks.extend(own)
        cursor = spans[r][START]
        for p in own:
            running.append((cursor, spans[p][START]))
            cursor = spans[p][END]
        running.append((cursor, spans[r][END]))
    running.sort()
    gap_starts: list[float] = []
    gap_ends: list[float] = []
    cursor = first
    for start, end in running:
        if start > cursor:
            gap_starts.append(cursor)
            gap_ends.append(start)
        cursor = max(cursor, end)
    for p in parks:
        layer = spans[spans[p][PARENT]][NAME]
        if layer not in WAIT_LAYERS:
            continue
        start, end = spans[p][START], spans[p][END]
        idle = 0.0
        i = bisect.bisect_right(gap_ends, start)
        while i < len(gap_starts) and gap_starts[i] < end:
            idle += min(end, gap_ends[i]) - max(start, gap_starts[i])
            i += 1
        acc[layer + ".wait_s"] += end - start - idle


def _parks_under(spans: list[tuple[Any, ...]], children: list[list[int]], sid: int) -> Iterator[int]:
    for c in children[sid]:
        if spans[c][NAME] == PARK_SPAN:
            yield c
        else:
            yield from _parks_under(spans, children, c)
