"""Communication-schedule recording (the ``commcheck`` extraction layer).

A :class:`ScheduleRecorder` is a :class:`~repro.obs.tracer.Tracer`: when
one is installed with ``Machine(trace=ScheduleRecorder())``, every
communication operation — point-to-point sends/receives, Lemma 2.5
collective transport and charges, ``gate`` / ``agree_dead`` / ``vote``
synchronization, sub-communicator creation, aborts and replacements — is
appended to a per-rank operation list in **program order**.

Program order per rank is deterministic for a fault-free run (the
algorithms draw no entropy, and neither the engine's scheduling of ranks
nor a rank process's message arrival order reorders a single rank's own
calls), so the recorded schedule for a given ``(P, k, f)`` is
byte-for-byte reproducible.  No global interleaving order and no
virtual-clock values are recorded — only the structure the communication
checker needs.

The recorder observes; it never alters costs, matching, or control flow.
"""

from __future__ import annotations

import threading
from typing import Any, Hashable, Iterable, Sequence

from repro.machine.costs import Counts
from repro.obs.tracer import Tracer

__all__ = ["ScheduleRecorder"]


def _key_repr(key: Hashable) -> str:
    """Canonical string form for gate/vote keys (tuples of str/int)."""
    return repr(key)


class ScheduleRecorder(Tracer):
    """The schedule consumer of the :class:`~repro.obs.tracer.Tracer` hooks.

    Install it with ``Machine(trace=ScheduleRecorder())`` (or ``trace=``
    on any algorithm entry point).  Each operation is a plain dict
    (JSON-ready) with at least ``op``, ``phase`` and ``inc`` (the acting
    rank's incarnation number); the remaining keys depend on the
    operation kind:

    ``send`` / ``recv``
        ``peer``, ``tag``, ``words``, ``hops``; transport legs of modeled
        collectives carry ``modeled: True`` (their words are charged via a
        ``collective`` op instead), raw physical deliveries that are
        absorbed later carry ``raw: True``.  Receives are recorded at
        match time (:meth:`on_match`).
    ``collective``
        ``name``, ``group``, ``bw``, ``l`` — a Lemma 2.5 cost charge
        shared by every member of ``group`` (counted collectives are
        plain sends and receives and are not recorded as such).
    ``gate`` / ``agree_dead`` / ``vote``
        ``key`` plus ``participants`` / ``candidates`` + ``dead`` /
        ``value`` respectively.
    ``sub``
        ``ranks`` — global ranks of a created sub-communicator.
    ``abort`` / ``replacement``
        fault-path markers (``task`` / ``purge``).

    Clock snapshots are ignored: the schedule is structure only.  It is
    the one tracer the process backend supports — each rank process
    records its own ops and ships them home in its census
    (:meth:`absorb`).
    """

    enabled = True

    def __init__(self) -> None:
        self._lock = threading.Lock()
        #: rank -> ops in that rank's program order.
        # guarded-by: _lock
        self._ops: dict[int, list[dict[str, Any]]] = {}

    def _append(
        self, rank: int, kind: str, phase: str, incarnation: int, **fields: Any
    ) -> None:
        op = {"op": kind, "phase": phase, **fields, "inc": incarnation}
        with self._lock:
            self._ops.setdefault(rank, []).append(op)

    # -- point-to-point -----------------------------------------------------
    def on_send(
        self, rank: int, phase: str, clock: Counts, incarnation: int,
        dest: int, tag: int, words: int, hops: int, modeled: bool = False,
    ) -> None:
        flags = {"modeled": True} if modeled else {}
        self._append(
            rank, "send", phase, incarnation,
            peer=dest, tag=tag, words=words, hops=hops, **flags,
        )

    def on_match(
        self, rank: int, phase: str, clock: Counts, incarnation: int,
        source: int, tag: int, words: int, hops: int,
        modeled: bool = False, raw: bool = False,
    ) -> None:
        flags: dict[str, bool] = {"modeled": True} if modeled else {}
        if raw:
            flags["raw"] = True
        self._append(
            rank, "recv", phase, incarnation,
            peer=source, tag=tag, words=words, hops=hops, **flags,
        )

    # -- collectives --------------------------------------------------------
    def on_collective(
        self, rank: int, phase: str, clock: Counts, incarnation: int,
        op: str, group: Sequence[int], fan_in: int, words: int,
        l: int = 0, modeled: bool = False,
    ) -> None:
        if modeled:
            self._append(
                rank, "collective", phase, incarnation,
                name=op, group=sorted(group), bw=words, l=l,
            )

    # -- synchronization ----------------------------------------------------
    def on_gate(
        self, rank: int, phase: str, clock: Counts, incarnation: int,
        key: Hashable, participants: Iterable[int],
    ) -> None:
        self._append(
            rank, "gate", phase, incarnation,
            key=_key_repr(key), participants=sorted(participants),
        )

    def on_agree_dead(
        self, rank: int, phase: str, clock: Counts, incarnation: int,
        key: Hashable, candidates: Iterable[int], dead: Iterable[int],
    ) -> None:
        self._append(
            rank, "agree_dead", phase, incarnation,
            key=_key_repr(key), candidates=sorted(candidates), dead=sorted(dead),
        )

    def on_vote(
        self, rank: int, phase: str, clock: Counts, incarnation: int,
        key: Hashable, value: Any,
    ) -> None:
        self._append(
            rank, "vote", phase, incarnation, key=_key_repr(key), value=repr(value)
        )

    # -- topology / fault path ---------------------------------------------
    def on_sub(
        self, rank: int, phase: str, clock: Counts, incarnation: int,
        ranks: Iterable[int],
    ) -> None:
        self._append(rank, "sub", phase, incarnation, ranks=list(ranks))

    def on_abort(
        self, rank: int, phase: str, clock: Counts, incarnation: int, task: int
    ) -> None:
        self._append(rank, "abort", phase, incarnation, task=task)

    def on_replacement(
        self, rank: int, phase: str, clock: Counts, incarnation: int,
        purge: bool = True,
    ) -> None:
        self._append(rank, "replacement", phase, incarnation, purge=purge)

    # -- extraction ---------------------------------------------------------
    def ops(self) -> dict[int, list[dict[str, Any]]]:
        """Snapshot of all recorded operations, rank -> program order."""
        with self._lock:
            return {rank: [dict(op) for op in ops] for rank, ops in self._ops.items()}

    # -- process-backend transport ------------------------------------------
    def absorb(self, rank_ops: dict[int, list[dict[str, Any]]]) -> None:
        """Merge per-rank op lists recorded in another process.

        Each rank executes in exactly one process, so the merge is an
        append per rank: remote program order is preserved and never
        interleaves with ops this recorder saw for other ranks.
        """
        with self._lock:
            for rank, ops in rank_ops.items():
                self._ops.setdefault(rank, []).extend(dict(op) for op in ops)

    def __getstate__(self) -> dict[str, Any]:
        return {"ops": self.ops()}

    def __setstate__(self, state: dict[str, Any]) -> None:
        self._lock = threading.Lock()
        self._ops = {  # guarded-by: _lock
            rank: [dict(op) for op in ops] for rank, ops in state["ops"].items()
        }
