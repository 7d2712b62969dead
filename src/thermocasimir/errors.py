"""Exception types shared across the library."""


class ParameterError(ValueError):
    """An argument violates a documented precondition."""


class SingularArgumentError(ValueError):
    """An argument sits exactly on a singular point of a kernel (e.g. K = 0)."""


class ContractViolationError(ValueError):
    """Input data breaks a structural contract (e.g. a non-closed path)."""


class DependencyError(RuntimeError):
    """A required upstream table or solve is missing."""


class SolverError(RuntimeError):
    """Dense linear solve failed; carries a condition-number report."""

    def __init__(self, message, condition_number=None):
        super().__init__(message)
        self.condition_number = condition_number


class ConfigError(ValueError):
    """Run configuration failed schema validation."""
