"""Discrete-event simulation kernel.

Everything in the Dolos reproduction is timed by this small engine: a
cycle-stamped event queue drained by one loop
(:class:`~repro.engine.kernel.Simulator`), the :class:`Signal`
completion handle, and shared resources
(:mod:`repro.engine.resources`).  Simulated work is written as chains
of callback stages scheduled on the kernel.

The engine measures time in **core clock cycles** (the paper's 4 GHz
core clock); nanosecond device parameters are converted to cycles in
:mod:`repro.config`.
"""

from repro.engine.events import Event, EventQueue
from repro.engine.kernel import Signal, SimulationError, Simulator
from repro.engine.resources import Resource

__all__ = [
    "Event",
    "EventQueue",
    "Resource",
    "Signal",
    "SimulationError",
    "Simulator",
]
