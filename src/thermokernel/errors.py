"""Exception hierarchy for the thermokernel engine."""


class ThermoError(Exception):
    """Base class for all engine errors."""


class DomainError(ThermoError):
    """A state value fell outside its open domain (e.g. non-positive p or V)."""


class StateMismatch(ThermoError):
    """Endpoint states of two processes disagree on a shared atom."""

    def __init__(self, atom, left=None, right=None):
        self.atom = atom
        self.left = left
        self.right = right
        super().__init__(f"state mismatch on {atom}: {left!r} != {right!r}")


class Overlap(ThermoError):
    """Joint construction attempted on processes with shared atoms."""


class NoReverseWitness(ThermoError):
    """Reverse requested for a process that is not marked reversible."""


class NotWorkProcess(ThermoError):
    """The process does not involve exactly the atoms of the stated system."""


class NotCatalytic(ThermoError):
    """Catalyst elimination requires the process to be catalytic on the part."""


class Unreachable(ThermoError):
    """A ledger has no reference for the atom: no gas or reservoir model is bound to it."""


class PreconditionNotMet(ThermoError):
    """A checker was invoked on a process outside its stated setting."""


class SameReservoir(ThermoError):
    """A two-reservoir construction was given the same reservoir twice."""


class PressureDecrease(ThermoError):
    """Friction segments can only raise the pressure at fixed volume."""


class OffIsotherm(ThermoError):
    """Isothermal contact requires the gas to sit on the reservoir's isotherm."""


class ZeroHeat(ThermoError):
    """Temperature assignment requires a non-zero heat flow."""


class NoTemperature(ThermoError):
    """No reservoir division exists for this heat flow in the model."""


class NotCyclic(ThermoError):
    """The record sequence does not close into a cycle on the probe system."""


class UnassignedTemperature(ThermoError):
    """A record with non-zero heat carries no temperature."""


class OutOfDomain(ThermoError):
    """A family parameter outside [0, 1] or out of slice order."""


class ToleranceNotMet(ThermoError):
    """Adaptive quadrature hit maximum refinement depth before converging."""


class NonPositiveScale(ThermoError):
    """Scaling factors must be positive."""


class IncompatibleBases(ThermoError):
    """Constraint removal needs two scalings of one common base model."""


class OptimizerFailed(ThermoError):
    """The constrained entropy maximization did not converge."""


class ParseError(ThermoError):
    """Scenario file could not be parsed."""


class ArtifactWriteError(ThermoError):
    """A scenario artifact could not be written."""


class ValidationError(ThermoError):
    """Scenario file parsed but violates the schema or references unknown atoms."""


class ScenarioAssertionFailed(ThermoError):
    """An assertion embedded in a scenario script failed."""
