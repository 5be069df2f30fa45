"""Exception types shared across the package."""


class FviBenchError(Exception):
    """Base class for all package-specific errors.

    An error raised inside a training run carries the partial ``TrainTrace``
    as ``trace``; it is ``None`` elsewhere.
    """

    trace = None


class DimensionMismatchError(FviBenchError):
    """Operands have incompatible shapes."""


class SingularReferenceError(FviBenchError):
    """A covariance could not be factorized within the jitter budget.

    Signals a degenerate (rank-deficient) Gaussian where a full-rank one is
    required, e.g. the reference distribution of a KL divergence.
    """

    def __init__(self, message: str, jitter_tried: float = 0.0):
        super().__init__(message)
        self.jitter_tried = jitter_tried


class DegenerateMarginalError(FviBenchError):
    """The variational marginal is rank-deficient on the retained rows."""


class DegenerateKernelError(FviBenchError):
    """All pairwise sample distances are zero; kernel bandwidth undefined."""


class NonFiniteGradientError(FviBenchError):
    """Optimization aborted on a NaN/Inf gradient."""


class NonFiniteValueError(FviBenchError):
    """A loaded or computed array contains NaN or Inf, or a positive
    quantity computed as exp of a parameter underflowed to 0."""


class ParseError(FviBenchError):
    """A file does not conform to the expected CSV schema."""

    def __init__(self, message: str, row: int | None = None, column: int | None = None):
        loc = ""
        if row is not None:
            loc = f" (row {row}" + (f", column {column})" if column is not None else ")")
        super().__init__(message + loc)
        self.row = row
        self.column = column


class InvalidBoxError(FviBenchError):
    """A sampling box has lo >= hi in some dimension."""


class NonStandardPriorError(FviBenchError):
    """A variational objective got a model whose prior is not N(0, I);
    ``blr.whiten`` rewrites such a model under the standard prior."""


class UnknownInputError(FviBenchError):
    """A precomputed feature map was asked to evaluate an unseen input row."""
