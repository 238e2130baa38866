"""Exception hierarchy shared across the package."""


class GupBellError(Exception):
    """Base class for all domain errors raised by this package."""


class DimensionError(GupBellError):
    """Operands have incompatible or non-square shapes."""


class HermiticityError(GupBellError):
    """A matrix expected to be Hermitian is not, within tolerance."""


class NumericError(GupBellError):
    """An underlying numerical routine failed to converge."""


class DegeneracyError(GupBellError):
    """Perturbation theory was requested on a (near-)degenerate level."""


class AmbiguousBranchError(GupBellError):
    """The two eigenvalue branches of a corrected observable have
    different magnitudes, so a single normalization is undefined."""


class NotDichotomicError(GupBellError):
    """An observable does not have two distinct eigenvalues."""


class OutOfRangeError(GupBellError, ValueError):
    """An input lies outside the domain the first-order treatment covers:
    a model whose reach beta * |a| (beta for self-cubic) is 1 or more, a
    corrected operator J + beta*J_p that is zero, a perturbed state whose
    squared norm overflows, or a scenario whose effective operator is not
    a state asked for shots."""


class ValidationError(GupBellError):
    """A run configuration violates the schema."""
