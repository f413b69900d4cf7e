"""The scheduling engine for the in-process (``sim``) backend.

:mod:`repro.machine.engines.event` is a deterministic cooperative
scheduler: exactly one rank runs at any instant, ranks hand control back
at every blocking Communicator call, and hangs are detected by
virtual-time quiescence instead of wall-clock timeouts.  It scales to
thousands of ranks (docs/MACHINE.md "Engines").
"""
