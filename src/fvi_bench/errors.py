"""Exception types shared across the package, and the check on integer counts."""

import numbers


class FviBenchError(Exception):
    """Base class for all package-specific errors.

    An error raised inside a training run carries the partial ``TrainTrace``
    as ``trace``; it is ``None`` elsewhere.
    """

    trace = None


class DimensionMismatchError(FviBenchError):
    """Operands have incompatible shapes."""


class SingularReferenceError(FviBenchError):
    """A covariance that must be positive definite failed its Cholesky
    factorization: a degenerate (rank-deficient) Gaussian where a full-rank
    one is required, e.g. the reference distribution of a KL divergence.
    """


class DegenerateMarginalError(FviBenchError):
    """The variational marginal is rank-deficient on the retained rows."""


class DegenerateKernelError(FviBenchError):
    """All pairwise sample distances are zero; kernel bandwidth undefined."""


class NonFiniteGradientError(FviBenchError):
    """Optimization aborted on a NaN/Inf gradient."""


class NonFiniteValueError(FviBenchError):
    """An input or computed array contains NaN or Inf, or a positive
    quantity computed as exp of a parameter underflowed to 0."""


class InvalidBoxError(FviBenchError):
    """A sampling box whose width hi - lo is not finite and positive in some
    dimension: lo >= hi, a NaN or infinite bound, or a width that overflows."""


class NonStandardPriorError(FviBenchError):
    """A variational objective got a model whose prior is not N(0, I);
    ``blr.whiten`` rewrites such a model under the standard prior."""


def require_count(name: str, value, minimum: int):
    """Raise ValueError unless ``value`` is an int or numpy integer, not a
    bool, and at least ``minimum``.  A float count would construct and then
    fail with a bare TypeError at its first use; ``True`` would mean 1."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}")
