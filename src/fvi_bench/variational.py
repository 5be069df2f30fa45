"""Variational families, training objectives, and their analytic oracles.

Families are Gaussians over the regression weights: full covariance
(lower-triangular factor) or fully factorized (positive scales).  During
optimization both live in an unconstrained parameter vector where scale
magnitudes are log-transformed:

    full: [mean (k) | log diag of L (k) | strict lower triangle of L]
    ffg:  [mean (k) | log scales (k)]

The strict lower triangle is packed row by row, L[1,0], L[2,0], L[2,1], ...,
the order of ``np.tril_indices(k, -1)``.  One cached boolean mask,
`features._strict_lower`, fixes that order for every gather and scatter.

Objectives maximize the evidence lower bound with one of four KL terms, each
computed by its objective kind: the exact weight-space KL, the marginal KL at
a fixed measurement set, the marginal KL at a set sampled afresh each step,
or the same with the spectral score estimator supplying the KL gradient.

Every KL here is taken against the model's prior N(0, I), the one prior of
the package (`blr` says how to rewrite a problem under another Gaussian
prior).

The marginal KL between pushforwards at measurement rows B is evaluated by
rotating onto an orthonormal basis of the row space of B, R^{-T} B for the
triangular factor R of a QR factorization of B^T: the divergence reduces to
a weight-space Gaussian KL in the projected coordinates, which is
algebraically identical to the textbook trace/log-det expression built from
(B B^T)^{-1} but, like the QR itself, avoids squaring the condition number
of B.

A full-batch training step costs O(k^3) whatever the number of data points
n: the expected log-likelihood is read off the likelihood statistics that
`blr` forms once per (model, dataset) pair for its closed forms too.  A
minibatch step reads its rows from the pair's one read-only feature matrix
and forms only what its family's ELL needs: the residual, Phi_b^T r, and
Phi_b^T Phi_b for the full family or the column sums of squares for ffg.
The step path does its linear algebra in numpy only, so it runs on numpy's
BLAS and never alternates with the separate BLAS that scipy bundles; scipy's
pivoted QR runs only for a measurement set whose rows fail the rank
certificate of `MarginalKl`.

Three sums of products feed objective values only, never a gradient: the
full-family ELL trace tr(L^T Phi^T Phi L), the squared Frobenius norm of
the scale in `exact_kl`, and that of the rotated scale in the marginal KL.
Each is one `np.vdot` of the two factors, with no k x k temporary.  It may
differ from an elementwise sum in the last bits, and no parameter moves.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .blr import BlrModel, Dataset
from .blr import _feature_matrix, _full_batch_stats, _per_pair
from .errors import (
    DegenerateMarginalError,
    DimensionMismatchError,
    InvalidBoxError,
    NonFiniteValueError,
    require_count,
    require_weights,
)
from .features import RANK_RTOL, _owned_rows, _strict_lower, independent_rows
from .gaussian import GaussianDist
from .gaussian import cholesky_psd  # noqa: F401  (unused; perfbench/tracing.py wraps it here)
from .ssge import SsgeConfig, kl_gradient_estimate


class Family(enum.Enum):
    FULL = "full"
    FFG = "ffg"


@dataclass(frozen=True, eq=False)
class VariationalState:
    """Parameters of the Gaussian approximate posterior over weights."""

    family: Family
    mean: np.ndarray
    scale: np.ndarray  # full: (k, k) lower-triangular factor; ffg: (k,) scales

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=float).reshape(-1)
        scale = np.asarray(self.scale, dtype=float)
        k = mean.shape[0]
        if self.family is Family.FULL:
            if scale.shape != (k, k):
                raise DimensionMismatchError(f"scale must be ({k}, {k}), got {scale.shape}")
            if scale.T[_strict_lower(k)].any():  # NaN and inf are nonzero too
                raise ValueError("full-family scale must be lower triangular")
            magnitudes = np.diag(scale)
        else:
            if scale.shape != (k,):
                raise DimensionMismatchError(f"scale must be ({k},), got {scale.shape}")
            magnitudes = scale
        if not np.all((0.0 < magnitudes) & (magnitudes < np.inf)):  # NaN fails too
            raise ValueError("the full diagonal and the ffg scales must be finite and positive")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "scale", scale)

    @property
    def dim(self) -> int:
        return self.mean.shape[0]

    @property
    def is_full(self) -> bool:
        return self.family is Family.FULL

    def cov_matrix(self) -> np.ndarray:
        if self.is_full:
            return self.scale @ self.scale.T
        return np.diag(self.scale**2)

    def to_gaussian(self) -> GaussianDist:
        return GaussianDist(self.mean, self.cov_matrix())

    def apply_scale(self, eps: np.ndarray) -> np.ndarray:
        """Map standard-normal rows through the scale factor (reparameterization)."""
        if self.is_full:
            return eps @ self.scale.T
        return eps * self.scale

    # --- unconstrained parameter vector -------------------------------------

    @staticmethod
    def num_params(family: Family, k: int) -> int:
        return 2 * k + (k * (k - 1)) // 2 if family is Family.FULL else 2 * k

    def params(self) -> np.ndarray:
        k = self.dim
        if self.is_full:
            lower = self.scale[_strict_lower(k)]
            return np.concatenate([self.mean, np.log(np.diag(self.scale)), lower])
        return np.concatenate([self.mean, np.log(self.scale)])

    @classmethod
    def _trusted(cls, family: Family, mean: np.ndarray, scale: np.ndarray) -> "VariationalState":
        """A state from arrays that already pass every check of
        ``__post_init__``, which it skips."""
        state = object.__new__(cls)
        state.__dict__.update(family=family, mean=mean, scale=scale)
        return state

    def with_params(self, vec: np.ndarray) -> "VariationalState":
        """The state whose parameters are ``vec``; its mean is a view of it.

        It trusts its own construction and skips the constructor's checks:
        the length check below is the only shape check, the scales are
        checked finite and positive, and the full factor starts from zeros.
        """
        k = self.dim
        vec = np.asarray(vec, dtype=float)
        if vec.shape != (self.num_params(self.family, k),):
            raise DimensionMismatchError(
                f"expected {self.num_params(self.family, k)} parameters, got {vec.shape}"
            )
        mean = vec[:k]
        with np.errstate(over="ignore"):
            scales = np.exp(vec[k : 2 * k])
        if not 0.0 < scales.min() <= scales.max() < np.inf:  # NaN fails too
            raise NonFiniteValueError(
                "log-scale parameters left the range of exp: a scale is 0, inf or NaN"
            )
        if self.is_full:
            lower = np.zeros((k, k))
            lower[np.diag_indices(k)] = scales
            lower[_strict_lower(k)] = vec[2 * k :]
            return VariationalState._trusted(Family.FULL, mean, lower)
        return VariationalState._trusted(Family.FFG, mean, scales)

    def pack_grad(self, grad_mean: np.ndarray, grad_scale: np.ndarray) -> np.ndarray:
        """Chain a gradient w.r.t. (mean, natural scale) into parameter space.

        A full-family ``grad_scale`` is read only on its diagonal and strict
        lower triangle, so callers pass it unmasked."""
        k = self.dim
        if self.is_full:
            diag = np.diag(grad_scale) * np.diag(self.scale)
            return np.concatenate([grad_mean, diag, grad_scale[_strict_lower(k)]])
        return np.concatenate([grad_mean, grad_scale * self.scale])

    @staticmethod
    def prior_state(family: Family, k: int) -> "VariationalState":
        scale = np.eye(k) if family is Family.FULL else np.ones(k)
        return VariationalState(family, np.zeros(k), scale)


# --- measurement sets --------------------------------------------------------


@dataclass(frozen=True, eq=False)
class MeasurementSet:
    """Finite index set at which marginals are compared.  It owns a
    read-only copy of its points, so a marginal prepared at the set stays
    valid; 1-D points are one column."""

    points: np.ndarray  # (m, d)

    def __post_init__(self):
        object.__setattr__(self, "points", _owned_rows(self.points, "measurement points"))

    @property
    def size(self) -> int:
        return self.points.shape[0]


def measurement_set_from_points(points: np.ndarray) -> MeasurementSet:
    return MeasurementSet(points)


@dataclass(frozen=True, eq=False)
class MeasurementPolicy:
    """How measurement sets are drawn: part from the data, part from a box.
    `RandA` and `Ssge` draw a fresh set at every step."""

    total_size: int
    data_fraction: float
    box: np.ndarray  # (d, 2) rows of (lo, hi)

    def __post_init__(self):
        require_count("total_size", self.total_size, 1)
        if isinstance(self.data_fraction, bool) or not 0.0 <= self.data_fraction <= 1.0:
            raise ValueError("data_fraction must be in [0, 1]")
        box = np.atleast_2d(np.array(self.box, dtype=float))
        if box.ndim != 2 or box.shape[1] != 2:
            raise InvalidBoxError(f"box must be (d, 2), got {box.shape}")
        with np.errstate(over="ignore", invalid="ignore"):
            width = box[:, 1] - box[:, 0]
        if not np.all(np.isfinite(width) & (width > 0.0)):  # NaN fails too
            raise InvalidBoxError("box width hi - lo must be finite and positive in each dimension")
        box.flags.writeable = False
        object.__setattr__(self, "box", box)


def sample_measurement_set(
    policy: MeasurementPolicy, data: Dataset, rng: np.random.Generator
) -> MeasurementSet:
    """floor(m * data_fraction) training inputs, then uniform box points.
    A box whose dimension is not the data's raises `DimensionMismatchError`
    before any draw."""
    _require_box_dim(policy, data)
    num_data = math.floor(policy.total_size * policy.data_fraction)
    num_box = policy.total_size - num_data
    pieces = []
    if num_data > 0:
        replace = num_data > data.size
        idx = rng.choice(data.size, size=num_data, replace=replace)
        pieces.append(data.inputs[idx])
    if num_box > 0:
        lo, hi = policy.box[:, 0], policy.box[:, 1]
        pieces.append(rng.uniform(lo, hi, size=(num_box, policy.box.shape[0])))
    return MeasurementSet(np.vstack(pieces))


def _require_box_dim(policy: MeasurementPolicy, data: Dataset) -> None:
    if policy.box.shape[0] != data.inputs.shape[1]:
        raise DimensionMismatchError(
            f"measurement box has dimension {policy.box.shape[0]}, "
            f"data has {data.inputs.shape[1]}"
        )


# --- closed-form objective terms ---------------------------------------------


def expected_log_likelihood(
    state: VariationalState,
    model: BlrModel,
    data: Dataset,
    minibatch: np.ndarray | None = None,
) -> tuple[float, np.ndarray]:
    """Closed-form E_q[log likelihood] and its gradient, from the pair's
    statistics, or from the rows of its feature matrix that a minibatch of
    integer indices names, rescaled by n/|batch| to stay unbiased.  A
    minibatch's residual is taken at the state's mean, and of Phi_b^T Phi_b
    it forms only what the family's trace term reads: all of it for the full
    family, its diagonal for ffg.  Every objective takes its ELL from here."""
    require_weights(state.dim, model.num_features)
    if minibatch is None:
        stats, scale_factor = _per_pair(_full_batch_stats, model, data), 1.0
        offset = state.mean - stats.anchor
        gram_offset = stats.gram @ offset
        residual_sq = (
            stats.residual_sq - 2.0 * float(offset @ stats.cross) + float(offset @ gram_offset)
        )
        cross, size = stats.cross - gram_offset, stats.size
        gram = stats.gram if state.is_full else np.einsum("ii->i", stats.gram)
    else:
        minibatch = np.asarray(minibatch)
        if minibatch.ndim != 1:
            raise DimensionMismatchError(
                f"minibatch must be a 1-D array of row indices, got shape {minibatch.shape}"
            )
        if minibatch.size and minibatch.dtype.kind not in "iu":  # a mask or floats cast silently
            raise ValueError(f"minibatch must hold integer row indices, got {minibatch.dtype}")
        if minibatch.size == 0 or minibatch.min() < 0 or minibatch.max() >= data.size:
            raise DimensionMismatchError("minibatch indices out of range")
        phi = _per_pair(_feature_matrix, model, data)[minibatch]
        residual = data.targets[minibatch] - phi @ state.mean
        residual_sq, cross = float(residual @ residual), phi.T @ residual
        size, scale_factor = minibatch.size, data.size / minibatch.size
        gram = phi.T @ phi if state.is_full else np.einsum("ij,ij->j", phi, phi)
    # gram is Phi^T Phi for the full family and only its diagonal for ffg.
    noise_variance = model.noise_variance
    if state.is_full:
        half = gram @ state.scale
        trace = float(np.vdot(state.scale, half))
        grad_scale = -scale_factor / noise_variance * half
    else:
        trace = float(np.sum(gram * state.scale**2))
        grad_scale = -scale_factor / noise_variance * gram * state.scale
    value = scale_factor * (
        -0.5 * size * math.log(2.0 * math.pi * noise_variance)
        - 0.5 / noise_variance * (residual_sq + trace)
    )
    return value, state.pack_grad(scale_factor / noise_variance * cross, grad_scale)


def exact_kl(state: VariationalState, model: BlrModel) -> tuple[float, np.ndarray]:
    """Weight-space KL(q, N(0, I)) and its gradient."""
    k = state.dim
    require_weights(k, model.num_features)
    magnitudes = np.diag(state.scale) if state.is_full else state.scale
    log_det = 2.0 * float(np.sum(np.log(magnitudes)))
    trace = float(np.vdot(state.scale, state.scale))
    value = 0.5 * (float(state.mean @ state.mean) + trace - k - log_det)
    # scale - diag(1 / magnitudes), packed directly: its strict lower triangle is the scale's.
    packed = [state.mean, (magnitudes - 1.0 / magnitudes) * magnitudes]
    if state.is_full:
        packed.append(state.scale[_strict_lower(k)])
    return value, np.concatenate(packed)


def _certified_inverse_r(rows: np.ndarray) -> np.ndarray | None:
    """R^{-1} for the triangle R of a QR factorization of rows^T, or None
    when R fails the rank certificate of `MarginalKl`."""
    r = np.linalg.qr(rows.T, mode="r")
    try:
        inverse = np.linalg.inv(r)
    except np.linalg.LinAlgError:
        return None
    bound = float(np.linalg.norm(r)) * float(np.linalg.norm(inverse))
    return inverse if bound < 1.0 / RANK_RTOL else None


class MarginalKl:
    """KL between variational and prior pushforwards at a measurement set.

    Dependent feature rows are dropped up front, matching the assumption
    that the retained rows B are linearly independent; the count is exposed
    as ``rows_dropped``.  One QR factorization B^T = Q R, of which only the
    (m, m) triangle R is formed, serves both the KL (through the orthonormal
    rows R^{-T} B = Q^T) and the prior marginal N(0, B B^T = R^T R).

    The QR of all m rows comes first.  Only when m > k or R fails the
    certificate 1 / (||R^{-1}||_F ||R||_F) > ``RANK_RTOL`` does the pivoted
    QR of `independent_rows` pick the rows to keep, followed by a second QR.
    This keeps the same rows as running the pivoted QR every time.  Since
    sigma_min >= 1 / ||R^{-1}||_F and sigma_max <= ||R||_F, a certified R
    has sigma_min / sigma_max > ``RANK_RTOL``; for the R of any QR,
    sigma_min <= min |R_ii|, and pivoting makes |R_00| <= sigma_max, so the
    pivoted QR would keep every row too.
    """

    def __init__(self, model: BlrModel, measurement_set: MeasurementSet):
        rows = model.features(measurement_set.points)
        num_rows, k = rows.shape
        inverse = _certified_inverse_r(rows) if num_rows <= k else None
        if inverse is None:
            kept = independent_rows(rows)
            if kept.size == 0:
                raise DegenerateMarginalError("no linearly independent measurement rows")
            rows = rows[kept]
            inverse = np.linalg.inv(np.linalg.qr(rows.T, mode="r"))
        self.rows_dropped = num_rows - rows.shape[0]
        self.size = rows.shape[0]
        self.rows = rows  # (m, k), the retained rows B
        self._inverse_r = inverse  # (m, m), R^{-1} with B B^T = R^T R
        self._transform = inverse.T @ rows  # (m, k), orthonormal rows

    def prior_score(self, values: np.ndarray) -> np.ndarray:
        """Score of the prior marginal N(0, B B^T) at rows of function values,
        -(B B^T)^{-1} f = -R^{-1} R^{-T} f for each row f."""
        return -(values @ self._inverse_r) @ self._inverse_r.T

    @property
    def projection(self) -> np.ndarray:
        """Projection onto the span of the retained feature rows (weight space)."""
        return self._transform.T @ self._transform

    def _value_terms(
        self, state: VariationalState
    ) -> tuple[float, np.ndarray, np.ndarray, np.ndarray]:
        """The KL with the rotated mean T mu, the rotated scale T S and the
        marginal covariance H = (T S)(T S)^T it is built from."""
        transform = self._transform
        require_weights(state.dim, transform.shape[1])
        shifted = transform @ state.mean
        if state.is_full:
            rotated_scale = transform @ state.scale  # (m, k)
        else:
            rotated_scale = transform * state.scale
        marginal_cov = rotated_scale @ rotated_scale.T
        try:
            lower = np.linalg.cholesky(marginal_cov)
        except np.linalg.LinAlgError:
            raise DegenerateMarginalError(
                "variational marginal is rank-deficient on the retained rows"
            ) from None
        trace = float(np.vdot(rotated_scale, rotated_scale))
        log_det = 2.0 * float(np.sum(np.log(np.diag(lower))))
        value = 0.5 * (float(shifted @ shifted) + trace - self.size - log_det)
        return value, shifted, rotated_scale, marginal_cov

    def value(self, state: VariationalState) -> float:
        """The KL alone, as `value_and_grad` computes it, without the solve
        its gradient needs."""
        return self._value_terms(state)[0]

    def value_and_grad(self, state: VariationalState) -> tuple[float, np.ndarray]:
        value, shifted, rotated_scale, marginal_cov = self._value_terms(state)
        transform = self._transform
        grad_mean = transform.T @ shifted
        # The Cholesky factor of the value is the positive-definiteness test;
        # the solve stays in numpy so the step never crosses into scipy's BLAS.
        solved = np.linalg.solve(marginal_cov, rotated_scale)  # (m, k) = H^{-1} (T scale)
        if state.is_full:
            grad_scale = transform.T @ (rotated_scale - solved)
        else:
            grad_scale = np.einsum("ai,ai->i", transform, rotated_scale - solved)
        return value, state.pack_grad(grad_mean, grad_scale)


def marginal_kl(
    state: VariationalState, model: BlrModel, measurement_set: MeasurementSet
) -> tuple[float, np.ndarray]:
    """KL(Q_A, P_A) between pushforward marginals, with gradient."""
    return MarginalKl(model, measurement_set).value_and_grad(state)


def fixed_a_optimal_mean(
    model: BlrModel, data: Dataset, measurement_set: MeasurementSet
) -> np.ndarray:
    """Stationary mean of the fixed-measurement-set objective, in closed form
    (the projection of a square full-rank feature matrix recovers MAP
    inference)."""
    stats = _per_pair(_full_batch_stats, model, data)
    projection = _per_pair(MarginalKl, model, measurement_set).projection
    # rcond is the package-wide numerical-rank tolerance: directions the
    # data cannot identify are resolved to the minimum-norm solution rather
    # than amplified by roundoff-scale eigenvalues.  The right side is Phi^T y,
    # not an offset from the anchor, which would move that solution.
    return np.linalg.pinv(stats.gram + model.noise_variance * projection, rcond=RANK_RTOL) @ (
        stats.cross + stats.gram @ stats.anchor
    )


# --- objective kinds and the per-step engine ----------------------------------


@dataclass(frozen=True)
class Exact:
    """Maximize the ELBO with the exact weight-space KL."""

    def _kl_term(self, state, model, data, rng) -> tuple[float, np.ndarray, int]:
        return (*exact_kl(state, model), 0)


@dataclass(frozen=True, eq=False)
class FixedA:
    """Marginal KL at a measurement set fixed for the whole run.  Every
    FixedA kind on one set, and `fixed_a_optimal_mean` at that set, reads the
    one `MarginalKl` that `_per_pair` keeps per (model, measurement set)
    pair, whatever the dataset."""

    measurement_set: MeasurementSet

    def __post_init__(self):
        if not isinstance(self.measurement_set, MeasurementSet):
            raise TypeError(f"FixedA takes a MeasurementSet, got {type(self.measurement_set)}")

    def _kl_term(self, state, model, data, rng) -> tuple[float, np.ndarray, int]:
        marginal = _per_pair(MarginalKl, model, self.measurement_set)
        return (*marginal.value_and_grad(state), marginal.rows_dropped)


@dataclass(frozen=True, eq=False)
class RandA:
    """Marginal KL at a measurement set resampled from the policy each step
    (a one-sample Monte Carlo estimate of the expected marginal KL)."""

    policy: MeasurementPolicy

    def _kl_term(self, state, model, data, rng) -> tuple[float, np.ndarray, int]:
        marginal = MarginalKl(model, sample_measurement_set(self.policy, data, rng))
        return (*marginal.value_and_grad(state), marginal.rows_dropped)


@dataclass(frozen=True, eq=False)
class Ssge:
    """Like RandA, but the KL gradient comes from the spectral score
    estimator.  The step takes only the closed-form KL value, for the ELBO
    and the log; the closed-form gradient is never formed."""

    policy: MeasurementPolicy
    config: SsgeConfig = field(default_factory=SsgeConfig)

    def _kl_term(self, state, model, data, rng) -> tuple[float, np.ndarray, int]:
        marginal = MarginalKl(model, sample_measurement_set(self.policy, data, rng))
        kl = marginal.value(state)
        return kl, kl_gradient_estimate(state, marginal, self.config, rng), marginal.rows_dropped


ObjectiveKind = Exact | FixedA | RandA | Ssge


@dataclass(frozen=True, eq=False)
class ObjectiveEval:
    """One objective evaluation: the ELBO estimate, its two terms, and the
    gradient in unconstrained parameter space."""

    elbo_estimate: float
    expected_ll: float
    kl_term: float
    grad: np.ndarray
    rows_dropped: int = 0


class MinibatchSchedule:
    """Without-replacement batches, reshuffled at every epoch boundary and
    whenever the caller asks for a new epoch."""

    def __init__(self, data_size: int, batch_size: int):
        require_count("batch size", batch_size, 1)
        if batch_size > data_size:
            raise ValueError("batch size must be in [1, data size]")
        self.data_size = data_size
        self.batch_size = batch_size
        self._order: np.ndarray | None = None
        self._cursor = 0

    def next_batch(self, rng: np.random.Generator, new_epoch: bool = False) -> np.ndarray:
        if new_epoch or self._order is None or self._cursor >= self.data_size:
            self._order = rng.permutation(self.data_size)
            self._cursor = 0
        batch = self._order[self._cursor : self._cursor + self.batch_size]
        self._cursor += self.batch_size
        return batch


class Objective:
    """Bundles an objective kind with a model and dataset for a training run.

    A step takes its ELL from `expected_log_likelihood`, full batch or on
    the next minibatch; a minibatch objective starts a new epoch at a run's
    first step (``step == 1``), so a run depends only on its rng.  Its KL
    term comes from one call to the kind's own ``_kl_term``, which returns
    the KL, its gradient and the measurement rows dropped.  The constructor
    forms what the steps read, once per pair in `blr`: the likelihood
    statistics of (model, data), or for minibatches their feature matrix,
    and for `FixedA` the `MarginalKl` of (model, measurement set).  It
    rejects a kind that is not an `ObjectiveKind` with `TypeError`, and a
    `RandA` or `Ssge` box whose dimension is not the data's; a full-batch
    pair whose sigma^2 I + Phi^T Phi is singular raises `SingularReferenceError`.
    """

    def __init__(
        self,
        kind: ObjectiveKind,
        model: BlrModel,
        data: Dataset,
        minibatch_size: int | None = None,
    ):
        if not isinstance(kind, ObjectiveKind):
            raise TypeError(f"kind must be an Exact, FixedA, RandA or Ssge, got {kind!r}")
        if isinstance(kind, (RandA, Ssge)):
            _require_box_dim(kind.policy, data)
        self.kind = kind
        self.model = model
        self.data = data
        self._schedule = None
        if minibatch_size is not None:
            self._schedule = MinibatchSchedule(data.size, minibatch_size)
        _per_pair(_full_batch_stats if self._schedule is None else _feature_matrix, model, data)
        if isinstance(kind, FixedA):
            _per_pair(MarginalKl, model, kind.measurement_set)

    def value_and_grad(
        self, state: VariationalState, rng: np.random.Generator, step: int = 0
    ) -> ObjectiveEval:
        batch = None if self._schedule is None else self._schedule.next_batch(rng, step == 1)
        ell, ell_grad = expected_log_likelihood(state, self.model, self.data, batch)
        kl, kl_grad, rows_dropped = self.kind._kl_term(state, self.model, self.data, rng)
        ell_grad -= kl_grad  # ell_grad is freshly packed, so the step owns it
        return ObjectiveEval(ell - kl, ell, kl, ell_grad, rows_dropped)
