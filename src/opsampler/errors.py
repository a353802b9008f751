"""Exception types shared across the package."""

from __future__ import annotations

__all__ = ["SingularTransfer", "ConfigError"]


class SingularTransfer(RuntimeError):
    """A sampling system whose transfer spectrum touches zero.

    Raised whenever a pipeline is asked to invert (or pseudo-invert) a
    convolution system that is not bounded below.  Carries the offending
    dual-grid index and its (x, omega) representative so callers can
    report where the spectrum degenerates.
    """

    def __init__(self, message: str, witness_xi: int | None = None,
                 witness_point: tuple[int, int] | None = None):
        super().__init__(message)
        self.witness_xi = witness_xi
        self.witness_point = witness_point


class ConfigError(ValueError):
    """Invalid experiment configuration (bad field, bad value, bad file)."""

    def __init__(self, message: str, field: str | None = None):
        if field is not None:
            message = f"config field '{field}': {message}"
        super().__init__(message)
        self.field = field
