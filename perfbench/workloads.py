"""Seeded workload generators and the set-up that turns them into training runs.

A generator draws every array a workload needs from its seed alone, without
calling the library: the library receives only the generated arrays.  The
set-up step (`build`) is the part a user pays before training: featurizer,
model and one `Objective` per training run.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from fvi_bench import features
from fvi_bench.blr import BlrModel, Dataset
from fvi_bench.features import RbfFeatureMap
from fvi_bench.optimize import AdamConfig
from fvi_bench.ssge import SsgeConfig
from fvi_bench.variational import (
    Exact,
    Family,
    FixedA,
    MeasurementPolicy,
    Objective,
    ObjectiveKind,
    RandA,
    Ssge,
    measurement_set_from_points,
)

# Every objective kind is timed as one end-to-end metric; a kind may have
# several runs per family (toy1d has two FixedA measurement sets).
KIND_LABELS = ("exact", "fixed_a", "rand_a", "ssge")
FAMILIES = (Family.FULL, Family.FFG)


@dataclass(frozen=True)
class Spec:
    """Sizes and training budget of one workload."""

    name: str
    n: int  # training points
    n_test: int  # held-out points for NLPD
    d: int  # input dimension
    k: int  # RBF features
    m: int  # measurement-set size of RandA and Ssge
    noise_variance: float
    minibatch_size: int | None
    adam: AdamConfig
    converges: bool  # the step budget reaches the closed-form optima (oracle check d)
    # Oracle check (g) accepts a final KL(q || posterior) up to this share of
    # the prior's even where the reference run gets closer: on toy1d the
    # function-space kinds need not approach the weight-space posterior as
    # Exact does (FixedA at m < k leaves directions free).
    kl_ratio_floor: float


SPECS = {
    spec.name: spec
    for spec in (
        # The paper's 1-D problem.  Every matrix is tiny, so a step is per-call
        # overhead plus the SSGE fit: the control for Gram caching and BLAS
        # threading, and the one budget that reaches the closed-form optima.
        Spec(
            name="toy1d",
            n=40,
            n_test=200,
            d=1,
            k=20,
            m=10,
            noise_variance=0.01,
            minibatch_size=None,
            # Reaches KL(q || posterior) < 1e-6 on every seed tried (0-39).
            adam=AdamConfig(learning_rate=0.1, max_steps=1500, decay_tail_fraction=0.3),
            converges=True,
            kl_ratio_floor=0.25,  # largest seen on seeds 0-2: 0.12, FixedA at m=10
        ),
        # Phi^T Phi dominates an Exact step, numpy's and scipy's OpenBLAS pools
        # contend in every marginal-KL step, and k-means dominates set-up.
        # The tabular budgets use a constant rate: with so few steps a decay
        # tail would leave the last ones nearly still.
        Spec(
            name="tabular-full",
            n=20_000,
            n_test=1_000,
            d=8,
            k=200,
            m=100,
            noise_variance=0.01,
            minibatch_size=None,
            adam=AdamConfig(learning_rate=0.03, max_steps=10, decay_tail_fraction=0.0),
            converges=False,
            kl_ratio_floor=0.0,
        ),
        # The per-batch ELL bypasses any full-batch Gram cache; measurement-set
        # preparation and the Adam update are visible shares of a step.
        Spec(
            name="tabular-minibatch",
            n=2_000,
            n_test=500,
            d=4,
            k=100,
            m=50,
            noise_variance=0.01,
            minibatch_size=200,
            adam=AdamConfig(learning_rate=0.03, max_steps=40, decay_tail_fraction=0.0),
            converges=False,
            kl_ratio_floor=0.0,
        ),
    )
}

TOY_CENTERS = np.linspace(-2.0, 2.0, 20).reshape(-1, 1)
TOY_LENGTHSCALE = 0.2
TOY_BOX = np.array([[-2.0, 2.0]])
# Lengthscale of the generating RBF function of the tabular workloads.
TABULAR_GENERATOR_LENGTHSCALE = 0.5


@dataclass(frozen=True)
class Generated:
    """Everything a workload draws from its seed."""

    spec: Spec
    seed: int
    train: Dataset
    test: Dataset
    box: np.ndarray  # (d, 2)
    fixed_sets: dict[str, np.ndarray]  # FixedA label -> measurement points


def _rbf(inputs: np.ndarray, centers: np.ndarray, lengthscale: float) -> np.ndarray:
    x, c = inputs / lengthscale, centers / lengthscale
    sq = np.sum(x**2, axis=1)[:, None] - 2.0 * x @ c.T + np.sum(c**2, axis=1)[None, :]
    return np.exp(-0.5 * np.maximum(sq, 0.0))


def _toy_inputs(rng: np.random.Generator, per_cluster: int) -> np.ndarray:
    return np.concatenate(
        [rng.normal(-1.2, 0.3, per_cluster), rng.normal(1.2, 0.3, per_cluster)]
    ).reshape(-1, 1)


def generate(name: str, seed: int) -> Generated:
    """Draw a workload's data, held-out split and measurement points from the seed."""
    spec = SPECS[name]
    rng = np.random.default_rng(seed)
    noise_sd = np.sqrt(spec.noise_variance)
    if name == "toy1d":
        # The paper's toy problem: two input clusters at +-1.2 and a function
        # drawn from the model's own prior on 20 RBF features.
        inputs = _toy_inputs(rng, spec.n // 2)
        test_inputs = _toy_inputs(rng, spec.n_test // 2)
        centers, lengthscale = TOY_CENTERS, TOY_LENGTHSCALE
        box = TOY_BOX
        fixed_sets = {
            "centres": TOY_CENTERS.copy(),
            "m10": np.linspace(-2.0, 2.0, 10).reshape(-1, 1),
        }
    else:
        inputs = rng.uniform(size=(spec.n, spec.d))
        test_inputs = rng.uniform(size=(spec.n_test, spec.d))
        centers = rng.uniform(size=(spec.k, spec.d))
        lengthscale = TABULAR_GENERATOR_LENGTHSCALE
        box = np.column_stack([np.zeros(spec.d), np.ones(spec.d)])
        fixed_sets = {"box": rng.uniform(size=(spec.m, spec.d))}
    weights = rng.standard_normal(centers.shape[0])  # a draw from the N(0, I) prior
    train_targets = _rbf(inputs, centers, lengthscale) @ weights
    test_targets = _rbf(test_inputs, centers, lengthscale) @ weights
    train_targets = train_targets + noise_sd * rng.standard_normal(spec.n)
    test_targets = test_targets + noise_sd * rng.standard_normal(spec.n_test)
    return Generated(
        spec,
        seed,
        Dataset(inputs, train_targets),
        Dataset(test_inputs, test_targets),
        box,
        fixed_sets,
    )


@dataclass(frozen=True)
class TrainingRun:
    """One training run: an objective kind on one family."""

    label: str  # one of KIND_LABELS
    name: str  # unique within the workload, e.g. "fixed_a.centres/full"
    kind: ObjectiveKind
    family: Family
    objective: Objective


@dataclass(frozen=True)
class Setup:
    model: BlrModel
    runs: tuple[TrainingRun, ...]


def objective_kinds(generated: Generated) -> list[tuple[str, str, ObjectiveKind]]:
    """(label, name, kind) for every objective the workload trains."""
    spec = generated.spec
    policy = MeasurementPolicy(spec.m, 0.5, generated.box)
    kinds: list[tuple[str, str, ObjectiveKind]] = [("exact", "exact", Exact())]
    for set_name, points in generated.fixed_sets.items():
        kinds.append(
            ("fixed_a", f"fixed_a.{set_name}", FixedA(measurement_set_from_points(points)))
        )
    kinds.append(("rand_a", "rand_a", RandA(policy)))
    kinds.append(("ssge", "ssge", Ssge(policy, SsgeConfig(num_samples=100))))
    return kinds


def build(generated: Generated) -> Setup:
    """Featurizer, model and one Objective per training run (the timed set-up)."""
    spec = generated.spec
    if spec.name == "toy1d":
        feature_map = RbfFeatureMap(TOY_CENTERS, np.array([TOY_LENGTHSCALE]))
    else:
        # Looked up on the module so that a traced run can wrap it.
        feature_map = features.fit_rbf_featurizer(
            generated.train.inputs, spec.k, rng=np.random.default_rng([generated.seed, 1])
        )
    model = BlrModel(feature_map, spec.noise_variance)
    runs = tuple(
        TrainingRun(
            label,
            f"{name}/{family.value}",
            kind,
            family,
            Objective(kind, model, generated.train, spec.minibatch_size),
        )
        for label, name, kind in objective_kinds(generated)
        for family in FAMILIES
    )
    return Setup(model, runs)
