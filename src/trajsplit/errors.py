"""Exception types shared across the package."""

from __future__ import annotations


class TrajsplitError(Exception):
    """Base class for all package errors."""


class ScenarioError(TrajsplitError, ValueError):
    """Invalid scenario data (bad dimensions, unknown fields, bad values).

    ``location`` carries a "file:line:col" style hint when the scenario came
    from a file, so CLI error messages can point at the offending node.
    """

    def __init__(self, message: str, location: str | None = None) -> None:
        self.location = location
        if location:
            message = f"{location}: {message}"
        super().__init__(message)


class ShapeError(TrajsplitError, ValueError):
    """Degenerate or invalid geometric shape."""


class ConfigError(TrajsplitError, ValueError):
    """Invalid solver or split configuration."""


class EvaluatorError(TrajsplitError, RuntimeError):
    """An objective or constraint evaluator produced a non-finite value."""


class WorkerError(TrajsplitError, RuntimeError):
    """The segment worker process died during a run."""
