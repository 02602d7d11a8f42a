"""Exception types shared across the package."""

from __future__ import annotations


class JudgevalError(Exception):
    """Base class for all judgeval failures."""


class ParseError(JudgevalError):
    """A file could not be parsed; carries the offending location."""

    def __init__(self, message: str, *, path: str | None = None, line: int | None = None):
        location = ""
        if path is not None:
            location = f"{path}: " if line is None else f"{path}:{line}: "
        super().__init__(f"{location}{message}")
        self.path = path
        self.line = line


class ConflictError(ParseError):
    """Duplicate key within a parsed file (qrels pair, run doc, corpus docid)."""


class GatewayError(JudgevalError):
    """Backend unreachable after the configured number of attempts."""


class ProtocolError(GatewayError):
    """Backend answered, but the payload did not follow the expected protocol."""


class PricingError(JudgevalError):
    """A model has no entry in the active price table."""


class ConfigError(JudgevalError):
    """Experiment configuration is missing, malformed, or inconsistent."""
