"""Exception types shared across the package."""


class InvalidInputError(ValueError):
    """Malformed numerical input (non-finite entries, negative budgets, ...);
    `keys` names the config keys the failed check read, the one to blame first."""

    def __init__(self, message, keys=()):
        super().__init__(message)
        self.keys = keys


class UnsupportedConfigError(ValueError):
    """Configuration outside the regime the closed-form machinery covers."""


class NumericalError(RuntimeError):
    """A linear-algebra step failed unexpectedly (singular system, ...)."""


class ConvergenceError(RuntimeError):
    """An iterative solver exhausted its iteration budget.

    Carries the last iterate so callers can inspect how close it got.
    """

    def __init__(self, message, p=None, p_bs=None, rate=None, iterations=None):
        super().__init__(message)
        self.p = p
        self.p_bs = p_bs
        self.rate = rate
        self.iterations = iterations


class ConfigError(ValueError):
    """Config-file parse or validation failure, with field/line context."""

    def __init__(self, message, field=None, line=None):
        parts = []
        if field is not None:
            parts.append(f"field '{field}'")
        if line is not None:
            parts.append(f"line {line}")
        suffix = f" ({', '.join(parts)})" if parts else ""
        super().__init__(message + suffix)
        self.field = field
        self.line = line
