"""Exception types for the discrete-event simulation kernel."""

from __future__ import annotations


class SimulationError(Exception):
    """Base class for errors raised by the DES kernel itself."""


class StopSimulation(Exception):
    """Internal control-flow exception that ends :meth:`Environment.run`.

    Carries the value of the event that caused the stop.
    """

    def __init__(self, value: object) -> None:
        super().__init__(value)
        self.value = value


class Interrupt(Exception):
    """Thrown into a process when :meth:`Process.interrupt` is called.

    The interrupted process may catch this and continue; ``cause`` carries
    the value passed to ``interrupt()``.
    """

    @property
    def cause(self) -> object:
        return self.args[0]
