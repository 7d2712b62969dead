"""Exception types shared across the library."""


class ParameterError(ValueError):
    """An argument violates a documented precondition: it sits on a kernel's
    singular point (e.g. K = 0) or breaks a structural contract (e.g. a non-closed path)."""


class SolverError(RuntimeError):
    """A linear solve failed; the message names the failing step."""


class ConfigError(ValueError):
    """Run configuration failed schema validation."""
