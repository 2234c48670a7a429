"""Exception hierarchy for the MP5 reproduction library.

Every error raised by this package derives from :class:`ReproError`, so
callers can catch a single base class at API boundaries while still being
able to distinguish compiler-side failures (program rejected) from
runtime/simulation failures (bad configuration, impossible schedule).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the ``repro`` package."""


class DominoError(ReproError):
    """Base class for errors in the Domino language frontend."""

    def __init__(self, message: str, line: int = 0, column: int = 0):
        self.line = line
        self.column = column
        if line:
            message = f"line {line}:{column}: {message}"
        super().__init__(message)


class DominoSyntaxError(DominoError):
    """The program text does not conform to the Domino grammar."""


class DominoSemanticError(DominoError):
    """The program parsed but violates a semantic rule.

    Examples: use of an undeclared register, assignment to an undeclared
    packet field, or a register indexed with a non-integer expression.
    """


class CompilerError(ReproError):
    """Base class for errors in the Domino-to-pipeline compiler."""


class ResourceError(CompilerError):
    """The program does not fit the target machine's resource limits.

    Raised by code generation when the scheduled PVSM needs more pipeline
    stages, atoms per stage, or register arrays per stage than the target
    provides.
    """


class TransformError(CompilerError):
    """The PVSM-to-PVSM transformer could not restructure the program."""


class SimulationError(ReproError):
    """Base class for errors raised by the switch simulators."""


class ConfigError(SimulationError):
    """A simulator or experiment was constructed with invalid parameters."""


class EquivalenceError(ReproError):
    """A functional-equivalence check failed.

    Carries the structured mismatch report so tests can introspect what
    diverged (register state vs. packet state).
    """

    def __init__(self, message: str, report=None):
        super().__init__(message)
        self.report = report


class ServiceError(ReproError):
    """A control-plane request the service rejects; carries the HTTP
    status the control plane should answer with."""

    def __init__(self, message: str, status: int = 400):
        super().__init__(message)
        self.status = status
