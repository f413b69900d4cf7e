"""The last-message / death-notice race on the wall-clock receive path.

A process-backend rank process has no scheduler: it polls its mailbox
while a receiver thread posts forwarded messages and applies liveness
events.  Between a timed-out poll and the liveness check, that thread
can post the source's final message and then mark the source dead.  A
receive must still return that message instead of failing over to
``PeerDead`` — otherwise a modeled ``t_reduce`` root would silently drop
a contribution the simulator keeps.  Both wall-clock receive paths are
driven through this exact interleaving deterministically.
"""

from __future__ import annotations

import math

import pytest

from repro.machine.collectives import _uncharged_recv
from repro.machine.comm import Communicator, _SharedState
from repro.machine.costs import Counts
from repro.machine.errors import DeadlockError
from repro.machine.fault import FaultLog, FaultSchedule
from repro.machine.memory import LocalMemory
from repro.machine.network import Message, Router


def _racing_rank0() -> Communicator:
    """Rank 0 of a scheduler-less two-rank machine whose first mailbox
    poll times out just as rank 1's last message and death land."""
    router = Router(2, default_timeout=5.0)
    state = _SharedState(
        size=2,
        router=router,
        word_bits=64,
        memories=[LocalMemory(math.inf, rank=r) for r in range(2)],
        fault_schedule=FaultSchedule(),
        fault_log=FaultLog(),
        timeout=5.0,
    )
    real_collect = router.collect
    calls = 0

    def collect(dest, source, tag, timeout=None):
        nonlocal calls
        calls += 1
        if calls == 1:
            router.post(
                Message(
                    source=1, dest=0, tag=7, payload=42, words=1,
                    clock=Counts(), incarnation=0,
                )
            )
            with state.lock:
                state.alive[1] = False
            raise DeadlockError("poll timed out")
        return real_collect(dest, source, tag, timeout=timeout)

    router.collect = collect
    return Communicator(state, 0)


@pytest.mark.parametrize(
    "receive",
    [
        lambda comm: comm.recv(1, tag=7),
        lambda comm: _uncharged_recv(comm, 1, 7),
    ],
    ids=["recv", "uncharged_recv"],
)
def test_last_message_wins_over_death_notice(receive):
    assert receive(_racing_rank0()) == 42
