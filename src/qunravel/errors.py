"""Exception types shared across the package.

Every error that callers are expected to branch on gets its own class here,
so that the CLI can map exception families onto exit codes without string
matching.
"""


class QunravelError(Exception):
    """Base class for all package-specific errors."""


class ValidationError(QunravelError):
    """An input failed a structural or numerical validation bound."""


class NotHermitian(ValidationError):
    """Matrix deviates from its conjugate transpose beyond tolerance."""


class NotTraceOne(ValidationError):
    """Density matrix trace is not 1 within tolerance."""


class NotPSD(ValidationError):
    """Density matrix has an eigenvalue below the negativity floor."""


class NotFaithful(ValidationError):
    """State is rank-deficient: smallest eigenvalue at or below the floor."""


class DimMismatch(ValidationError):
    """Operands have incompatible dimensions."""


class DomainViolation(ValidationError):
    """A spectral function was applied to an eigenvalue outside its domain."""


class EmptyEnsemble(ValidationError):
    """An ensemble with no atoms was used where atoms are required."""


class AmbiguousMatch(QunravelError):
    """Atom matching found more than one candidate within the tolerance."""


class InvalidCoupling(ValidationError):
    """A coupling's marginals do not reproduce the given ensembles."""


class NotOperatorConvex(ValidationError):
    """Divergence generator is not flagged operator convex."""


class NotTracePreserving(ValidationError):
    """Kraus operators do not sum to the identity channel."""


class ValidationFailure(QunravelError):
    """An evolved state failed density-matrix validation beyond tolerance."""


class ContractionViolation(QunravelError):
    """A divergence rose along a flow beyond the allowed slack."""


class StepExplosion(QunravelError):
    """A stochastic integration step left the trusted norm window."""


class BudgetExceeded(QunravelError):
    """A requested computation exceeds the supported enumeration budget."""


class BackendFailure(QunravelError):
    """The linear-algebra backend failed or returned inconsistent output."""
