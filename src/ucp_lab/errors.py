"""Exception types shared across the package."""


class UcpLabError(Exception):
    """Base class for all package errors."""


class DomainMismatchError(UcpLabError):
    """A field does not live on the grid an operation expects."""


class SupportConditionError(UcpLabError):
    """A field violates the support condition required near the outer slice."""


class NonAdmissibleError(UcpLabError):
    """A perturbation failed the pointwise admissibility bound.

    Carries the failed-bound description in args[0].
    """


class NormalizationError(UcpLabError):
    """A constructed solution misses a required normalization (pairing or residual)."""


class PreconditionError(UcpLabError):
    """A numerical precondition (residual / vanishing data) is not met."""


class FlowInstabilityError(UcpLabError):
    """A flow cannot continue: an explicit step increased the functional beyond
    tolerance, a semi-implicit step size is resonant, or the flow diverged."""


class CheckpointError(UcpLabError, ValueError):
    """A file is not a checkpoint, or its header and payload disagree."""
