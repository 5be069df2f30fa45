"""Exception types shared across the package, and two shared argument checks.

A training run that diverges raises `NonFiniteValueError`, whatever diverged."""

import numbers


class FviBenchError(Exception):
    """Base class for all package-specific errors.

    An error raised inside a training run carries the partial ``TrainTrace``
    as ``trace``; it is ``None`` elsewhere.
    """

    trace = None


class DimensionMismatchError(FviBenchError):
    """Operands have incompatible shapes, or an input has a shape no operand
    may have: a Gaussian of dimension 0, a minibatch that is not a 1-D
    array of row indices."""


class SingularReferenceError(FviBenchError):
    """A matrix that must be positive definite failed its Cholesky
    factorization: a degenerate (rank-deficient) Gaussian where a full-rank
    one is required, e.g. the reference of a KL divergence, or a pair's
    sigma^2 I + Phi^T Phi."""


class DegenerateMarginalError(FviBenchError):
    """The variational marginal is rank-deficient on the retained rows."""


class DegenerateKernelError(FviBenchError):
    """The samples' median distance is within the roundoff of their squared
    distances, as when all or most are equal; kernel bandwidth undefined."""


class NonFiniteValueError(FviBenchError):
    """An input or computed array contains NaN or Inf, or a positive
    quantity computed as exp of a parameter underflowed to 0."""


class InvalidBoxError(FviBenchError):
    """A sampling box whose width hi - lo is not finite and positive in some
    dimension: lo >= hi, a NaN or infinite bound, or a width that overflows."""


def require_count(name: str, value, minimum: int):
    """Raise ValueError unless ``value`` is an int or numpy integer, not a
    bool, and at least ``minimum``.  A float count would construct and then
    fail with a bare TypeError at its first use; ``True`` would mean 1."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}")


def require_weights(state_dim: int, num_features: int):
    """Raise DimensionMismatchError unless a state has one weight per feature."""
    if state_dim != num_features:
        raise DimensionMismatchError(f"state has {state_dim} weights, model has {num_features}")
