"""Span tracing of the library's public callables, wrapped from outside.

Each wrapper replaces a name where its caller looks it up (a module global or
a class attribute), records a span around the call, and restores the
original on exit.  Spans are kept in memory and turned into per-layer
metrics at the end: median time per call, call counts, self time (a span
minus the child spans it covers) and counters read off the results.  The
wrappers never touch arguments, results or random state, so a traced run
ends with the same parameters as an untraced one.
"""

from __future__ import annotations

import functools
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable

from fvi_bench import blr, features, gaussian, optimize, ssge, variational

# Span name -> the (owner, attribute) pairs to wrap.  A callable imported by
# name into several modules is wrapped in each of them.
WRAPPED: dict[str, tuple[tuple[Any, str], ...]] = {
    "variational.step": ((variational.Objective, "value_and_grad"),),
    "variational.exact_kl": ((variational, "exact_kl"),),
    "variational.marginal_init": ((variational.MarginalKl, "__init__"),),
    "variational.marginal_kl": ((variational.MarginalKl, "value_and_grad"),),
    "variational.sample_measurement_set": ((variational, "sample_measurement_set"),),
    "variational.with_params": ((variational.VariationalState, "with_params"),),
    "features.evaluate": ((features, "evaluate"),),
    "features.independent_rows": ((variational, "independent_rows"), (ssge, "independent_rows")),
    "features.fit_rbf_featurizer": ((features, "fit_rbf_featurizer"),),
    "ssge.kl_gradient": ((variational, "kl_gradient_estimate"),),
    "ssge.fit_score": ((ssge, "fit_score"),),
    "ssge.score_eval": ((ssge.ScoreEstimate, "__call__"),),
    "gaussian.cholesky_psd": (
        (gaussian, "cholesky_psd"),
        (blr, "cholesky_psd"),
        (variational, "cholesky_psd"),
        (ssge, "cholesky_psd"),
    ),
    "optimize.run": ((optimize, "run"),),
    "blr.exact_posterior": ((blr, "exact_posterior"),),
    "blr.log_marginal_likelihood": ((blr, "log_marginal_likelihood"),),
    "gaussian.kl_divergence": ((gaussian, "kl_divergence"),),
}


@dataclass(slots=True)
class Span:
    name: str
    phase: str  # "setup", "train" or "oracle"
    start: float
    end: float = 0.0
    children: list["Span"] = field(default_factory=list)
    note: Any = None  # a value read off the call, e.g. the SSGE eigen count

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - sum(child.duration for child in self.children)


def _note(name: str, args: tuple, result: Any) -> Any:
    """The counter a span carries, read off the wrapped call."""
    if name == "variational.marginal_init":
        marginal, measurement_set = args[0], args[2]
        return (marginal.size, measurement_set.size, marginal.rows_dropped)
    if name == "ssge.fit_score":
        return (result.eigenvalues.size, result.bandwidth_used)
    if name == "gaussian.cholesky_psd":
        return result.jitter_used > 0.0
    return None


class Tracer:
    """Records spans while installed; `phase` tags the spans opened under it."""

    def __init__(self):
        self.roots: list[Span] = []
        self.phase = "setup"
        self._stack: list[Span] = []

    def wrap(self, name: str, func: Callable) -> Callable:
        @functools.wraps(func)
        def traced(*args, **kwargs):
            span = Span(name, self.phase, time.perf_counter())
            (self._stack[-1].children if self._stack else self.roots).append(span)
            self._stack.append(span)
            try:
                result = func(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            span.note = _note(name, args, result)
            return result

        return traced

    @contextmanager
    def installed(self):
        originals = [
            (owner, attr, getattr(owner, attr))
            for targets in WRAPPED.values()
            for owner, attr in targets
        ]
        try:
            for name, targets in WRAPPED.items():
                for owner, attr in targets:
                    setattr(owner, attr, self.wrap(name, getattr(owner, attr)))
            yield self
        finally:
            for owner, attr, original in reversed(originals):
                setattr(owner, attr, original)

    def spans(self):
        pending = list(self.roots)
        while pending:
            span = pending.pop()
            yield span
            pending.extend(span.children)

    def to_records(self) -> list[dict]:
        """Flat span records (parent by index) for writing out."""
        records: list[dict] = []

        def visit(span: Span, parent: int | None):
            index = len(records)
            records.append(
                {
                    "id": index,
                    "parent": parent,
                    "name": span.name,
                    "phase": span.phase,
                    "start": span.start,
                    "end": span.end,
                }
            )
            for child in span.children:
                visit(child, index)

        for root in self.roots:
            visit(root, None)
        return records


# Spans of the oracle layers count only in the oracle phase; every other
# layer counts only while setting up and training, so the oracle's own
# re-evaluations of the objective do not mix into the training layers.
ORACLE_SPANS = ("blr.exact_posterior", "blr.log_marginal_likelihood", "gaussian.kl_divergence")


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def per_layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer metrics by name, as (value, unit).

    A layer the workload never calls reports 0 calls and 0 time.
    """
    by_name: dict[str, list[Span]] = {name: [] for name in WRAPPED}
    for span in tracer.spans():
        counted = (
            span.phase == "oracle" if span.name in ORACLE_SPANS else span.phase != "oracle"
        )
        if counted or span.name == "gaussian.cholesky_psd":
            by_name[span.name].append(span)

    metrics: dict[str, tuple[float, str]] = {}
    for name, spans in by_name.items():
        if name == "optimize.run":
            continue
        durations = [span.duration for span in spans]
        if name == "features.fit_rbf_featurizer":
            metrics[f"{name}_s"] = (_median(durations), "s")
        else:
            metrics[f"{name}_ms"] = (1e3 * _median(durations), "ms")
        metrics[f"{name}_calls"] = (len(spans), "count")

    for name in ("variational.step", "ssge.kl_gradient"):
        metrics[f"{name}_self_ms"] = (
            1e3 * _median([span.self_time for span in by_name[name]]),
            "ms",
        )

    adam_self = []
    for run in by_name["optimize.run"]:
        steps = [child for child in run.children if child.name == "variational.step"]
        if steps:
            adam_self.append((run.duration - sum(s.duration for s in steps)) / len(steps))
    metrics["optimize.adam_self_ms"] = (1e3 * _median(adam_self), "ms")
    metrics["optimize.run_calls"] = (len(by_name["optimize.run"]), "count")

    marginals = [span.note for span in by_name["variational.marginal_init"]]
    kept = sum(note[0] for note in marginals)
    drawn = sum(note[1] for note in marginals)
    metrics["variational.rows_kept_ratio"] = (kept / drawn if drawn else 0.0, "ratio")
    metrics["variational.rows_dropped"] = (sum(note[2] for note in marginals), "count")

    fits = [span.note for span in by_name["ssge.fit_score"]]
    metrics["ssge.eigen_count"] = (_median([note[0] for note in fits]), "count")
    metrics["ssge.bandwidth"] = (_median([note[1] for note in fits]), "1")
    metrics["gaussian.jitter_retries"] = (
        sum(bool(span.note) for span in by_name["gaussian.cholesky_psd"]),
        "count",
    )
    return metrics
