"""Environment knobs (``repro.util.env``) and their consumers.

The regression that matters: ``REPRO_TIMEOUT_SCALE`` must reach the
machine's per-receive deadlock watchdog through ``scaled_timeout`` —
never through a bare wall-clock read or an ad-hoc ``os.environ`` lookup
at receive time.
"""

from __future__ import annotations

import pytest

from repro.machine.engine import Machine
from repro.util.env import (
    backend,
    backend_scope,
    default_jobs,
    engine,
    heartbeat_interval,
    join_grace,
    perf_baseline,
    perf_dir,
    poll_interval,
    port_range,
    proc_fault_mode,
    racecheck_enabled,
    scaled_timeout,
    start_method,
    timeout_scale,
)


class TestTimeoutScale:
    def test_default_is_one(self, monkeypatch):
        monkeypatch.delenv("REPRO_TIMEOUT_SCALE", raising=False)
        assert timeout_scale() == 1.0
        assert scaled_timeout(7.5) == 7.5

    def test_scale_applied(self, monkeypatch):
        monkeypatch.setenv("REPRO_TIMEOUT_SCALE", "2.5")
        assert timeout_scale() == 2.5
        assert scaled_timeout(4.0) == 10.0

    @pytest.mark.parametrize("bad", ["0", "-1", "inf", "nan", "lots"])
    def test_invalid_values_rejected(self, monkeypatch, bad):
        monkeypatch.setenv("REPRO_TIMEOUT_SCALE", bad)
        with pytest.raises(ValueError, match="REPRO_TIMEOUT_SCALE"):
            timeout_scale()


class TestMachineTimeoutScale:
    def test_machine_timeout_scaled(self, monkeypatch):
        monkeypatch.setenv("REPRO_TIMEOUT_SCALE", "3")
        assert Machine(2, timeout=5.0).timeout == 15.0

    def test_machine_timeout_unscaled_by_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_TIMEOUT_SCALE", raising=False)
        assert Machine(2, timeout=5.0).timeout == 5.0

    def test_nonpositive_timeout_rejected(self):
        with pytest.raises(ValueError, match="timeout"):
            Machine(2, timeout=0.0)

    def test_scaled_timeout_governs_deadlock_detection(self, monkeypatch):
        # A rank that receives from a never-sending peer must still trip
        # the watchdog when the base timeout is tiny and the scale
        # stretches it to a (still tiny) wall-clock bound.
        monkeypatch.setenv("REPRO_TIMEOUT_SCALE", "2")
        machine = Machine(2, timeout=0.1)
        assert machine.timeout == pytest.approx(0.2)

        def program(comm):
            if comm.rank == 0:
                return comm.recv(1)  # rank 1 never sends
            return None

        with pytest.raises(Exception):
            machine.run(program)


class TestJobsKnob:
    def test_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert default_jobs() == 1

    def test_env_value(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "4")
        assert default_jobs() == 4

    @pytest.mark.parametrize("bad", ["0", "-2", "two"])
    def test_invalid_rejected(self, monkeypatch, bad):
        monkeypatch.setenv("REPRO_JOBS", bad)
        with pytest.raises(ValueError, match="REPRO_JOBS"):
            default_jobs()


class TestStartMethodKnob:
    def test_default_spawn(self, monkeypatch):
        monkeypatch.delenv("REPRO_MP_START_METHOD", raising=False)
        assert start_method() == "spawn"

    def test_fork_allowed(self, monkeypatch):
        monkeypatch.setenv("REPRO_MP_START_METHOD", "fork")
        assert start_method() == "fork"

    def test_unknown_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_MP_START_METHOD", "threads")
        with pytest.raises(ValueError, match="REPRO_MP_START_METHOD"):
            start_method()


class TestPerfKnobs:
    def test_unset_means_none(self, monkeypatch):
        monkeypatch.delenv("REPRO_PERF_DIR", raising=False)
        monkeypatch.delenv("REPRO_PERF_BASELINE", raising=False)
        assert perf_dir() is None
        assert perf_baseline() is None

    def test_blank_means_none(self, monkeypatch):
        monkeypatch.setenv("REPRO_PERF_DIR", "  ")
        assert perf_dir() is None

    def test_values_stripped(self, monkeypatch):
        monkeypatch.setenv("REPRO_PERF_DIR", " /tmp/perf ")
        monkeypatch.setenv("REPRO_PERF_BASELINE", "benchmarks/baselines")
        assert perf_dir() == "/tmp/perf"
        assert perf_baseline() == "benchmarks/baselines"


class TestBackendKnob:
    def test_default_sim(self, monkeypatch):
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        assert backend() == "sim"

    def test_proc_allowed(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "proc")
        assert backend() == "proc"

    def test_unknown_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "mpi")
        with pytest.raises(ValueError, match="REPRO_BACKEND"):
            backend()

    def test_scope_sets_and_restores(self, monkeypatch):
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        with backend_scope("proc"):
            assert backend() == "proc"
            with backend_scope("sim"):
                assert backend() == "sim"
            assert backend() == "proc"
        assert backend() == "sim"

    def test_scope_restores_on_error(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "sim")
        with pytest.raises(RuntimeError):
            with backend_scope("proc"):
                raise RuntimeError("boom")
        assert backend() == "sim"

    def test_scope_rejects_unknown(self):
        with pytest.raises(ValueError, match="backend"):
            with backend_scope("mpi"):
                pass


class TestRetiredSwitches:
    """``REPRO_ENGINE`` and ``REPRO_RACECHECK`` name removed features:
    their defaults still read fine, anything else fails loudly."""

    @pytest.mark.parametrize("raw", [None, "", "event", " event "])
    def test_engine_default_or_event(self, monkeypatch, raw):
        if raw is None:
            monkeypatch.delenv("REPRO_ENGINE", raising=False)
        else:
            monkeypatch.setenv("REPRO_ENGINE", raw)
        assert engine() == "event"

    @pytest.mark.parametrize("raw", ["thread", "fiber", "1"])
    def test_engine_other_value_rejected(self, monkeypatch, raw):
        monkeypatch.setenv("REPRO_ENGINE", raw)
        with pytest.raises(ValueError, match="REPRO_ENGINE.*thread engine was removed"):
            engine()

    @pytest.mark.parametrize("raw", [None, "", "0", "false", "No", "off"])
    def test_racecheck_unset_or_falsy(self, monkeypatch, raw):
        if raw is None:
            monkeypatch.delenv("REPRO_RACECHECK", raising=False)
        else:
            monkeypatch.setenv("REPRO_RACECHECK", raw)
        assert racecheck_enabled() is False

    @pytest.mark.parametrize("raw", ["1", "true", "on", "maybe"])
    def test_racecheck_other_value_rejected(self, monkeypatch, raw):
        monkeypatch.setenv("REPRO_RACECHECK", raw)
        with pytest.raises(
            ValueError, match="REPRO_RACECHECK.*race sanitizer was removed"
        ):
            racecheck_enabled()

    @pytest.mark.parametrize(
        "var,raw", [("REPRO_ENGINE", "thread"), ("REPRO_RACECHECK", "1")]
    )
    def test_machine_run_refuses_stale_setting(self, monkeypatch, var, raw):
        monkeypatch.setenv(var, raw)
        with pytest.raises(ValueError, match=var):
            Machine(2, timeout=5.0).run(lambda comm: comm.rank)


class TestProcFaultModeKnob:
    def test_default_sim(self, monkeypatch):
        monkeypatch.delenv("REPRO_PROC_FAULTS", raising=False)
        assert proc_fault_mode() == "sim"

    @pytest.mark.parametrize("mode", ["sim", "kill", "respawn"])
    def test_modes_allowed(self, monkeypatch, mode):
        monkeypatch.setenv("REPRO_PROC_FAULTS", mode)
        assert proc_fault_mode() == mode

    def test_unknown_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_PROC_FAULTS", "maim")
        with pytest.raises(ValueError, match="REPRO_PROC_FAULTS"):
            proc_fault_mode()


class TestHeartbeatKnob:
    def test_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_HEARTBEAT", raising=False)
        assert heartbeat_interval() == 0.5

    def test_env_value(self, monkeypatch):
        monkeypatch.setenv("REPRO_HEARTBEAT", "0.05")
        assert heartbeat_interval() == 0.05

    @pytest.mark.parametrize("bad", ["0", "-1", "inf", "nan", "soon"])
    def test_invalid_rejected(self, monkeypatch, bad):
        monkeypatch.setenv("REPRO_HEARTBEAT", bad)
        with pytest.raises(ValueError, match="REPRO_HEARTBEAT"):
            heartbeat_interval()


class TestPortRangeKnob:
    def test_unset_means_ephemeral(self, monkeypatch):
        monkeypatch.delenv("REPRO_PORT_RANGE", raising=False)
        assert port_range() is None

    def test_window_parsed(self, monkeypatch):
        monkeypatch.setenv("REPRO_PORT_RANGE", "49152-49200")
        assert port_range() == (49152, 49200)

    def test_single_port_window(self, monkeypatch):
        monkeypatch.setenv("REPRO_PORT_RANGE", "50000-50000")
        assert port_range() == (50000, 50000)

    @pytest.mark.parametrize(
        "bad", ["49200-49152", "0-100", "1-70000", "49152", "lo-hi"]
    )
    def test_invalid_rejected(self, monkeypatch, bad):
        monkeypatch.setenv("REPRO_PORT_RANGE", bad)
        with pytest.raises(ValueError, match="REPRO_PORT_RANGE"):
            port_range()


class TestTimingHelpers:
    def test_poll_interval_fixed_and_unscaled(self, monkeypatch):
        monkeypatch.setenv("REPRO_TIMEOUT_SCALE", "10")
        assert poll_interval() == 0.02

    def test_join_grace_multiplies_the_scaled_timeout(self):
        # join_grace takes the *already scaled* machine timeout; it must
        # not re-read the scale itself.
        assert join_grace(5.0) == 20.0
