"""Simulation kernel: the SystemC stand-in underlying the whole flow.

Public API::

    from repro.kernel import Simulator, Signal, BitSignal, BusSignal

    sim = Simulator()
    clk = sim.add_clock("clk", period=1000)   # 1 GHz at 1 tick = 1 ps

    def producer():
        for i in range(10):
            data.write(i)
            yield            # wait one posedge

    data = Signal(sim, name="data")
    sim.add_thread(producer(), clk, name="producer")
    sim.run(until=100_000)
"""

from .backend import BACKENDS, default_backend, last_run, use_backend
from .clock import Clock
from .signal import BitSignal, BusSignal, Signal
from .simulator import (
    DeltaOverflow,
    Event,
    Gate,
    Method,
    SimulationError,
    Simulator,
    Thread,
    TimeBudgetExceeded,
    time_budget,
)
from .tracing import Trace, WallClock, write_vcd

__all__ = [
    "Simulator",
    "Signal",
    "BitSignal",
    "BusSignal",
    "Clock",
    "Event",
    "Gate",
    "Thread",
    "Method",
    "Trace",
    "WallClock",
    "write_vcd",
    "SimulationError",
    "DeltaOverflow",
    "TimeBudgetExceeded",
    "time_budget",
    "BACKENDS",
    "use_backend",
    "default_backend",
    "last_run",
]
