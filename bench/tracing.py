"""Spans around calls into the package, recorded from outside it.

The package's modules bind their collaborators by name (``from .mlp import
forward``), so replacing ``eps_softmax.experiment.forward`` with a timed
wrapper times every call the training loop makes, without touching the
package source. A Tracer keeps its spans in memory until the run ends.
"""

from __future__ import annotations

import time
from collections import defaultdict
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    op: int  # operation the span belongs to; spans of one operation share it
    parent: int  # index of the enclosing span, -1 at the top level


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.clip_scales: list[tuple[int, float]] = []  # (operation, returned scale)
        self.op = -1
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def install(self, module, attr: str, span_name: str) -> None:
        """Replace ``module.attr`` with a wrapper that records a span per call."""
        original = getattr(module, attr)
        spans, stack, perf = self.spans, self._stack, time.perf_counter

        def timed(*args, **kwargs):
            index = len(spans)
            span = Span(span_name, perf(), 0.0, self.op, stack[-1] if stack else -1)
            spans.append(span)
            stack.append(index)
            try:
                result = original(*args, **kwargs)
            finally:
                span.end = perf()
                stack.pop()
            if span_name == "mlp.clip_grad_norm":
                self.clip_scales.append((span.op, result[1]))
            return result

        self._saved.append((module, attr, original))
        setattr(module, attr, timed)

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def durations(self, ops: set[int]) -> dict[str, list[float]]:
        """Span durations in seconds by name, for spans of the given operations."""
        out: dict[str, list[float]] = defaultdict(list)
        for span in self.spans:
            if span.op in ops:
                out[span.name].append(span.end - span.start)
        return out

    def self_share(self, name: str, ops: set[int]) -> float:
        """Share of the named spans' time not covered by their direct children."""
        total = 0.0
        children = 0.0
        for span in self.spans:
            if span.op not in ops:
                continue
            if span.name == name:
                total += span.end - span.start
            elif span.parent >= 0 and self.spans[span.parent].name == name:
                children += span.end - span.start
        return (total - children) / total if total else 0.0


def install_package_wrappers(tracer: Tracer) -> None:
    """Wrap the names the experiment, theory and cli modules look up at call time.

    Only the training loop's call sites of the mlp and losses functions are
    wrapped, so per-step figures are not mixed with the theory layer's own
    small trainings. ``experiment.run_experiment`` and ``experiment.emit_results``
    are wrapped where the benchmark itself calls them.
    """
    from eps_softmax import cli, experiment, theory

    for attr, layer in (
        ("build_dataset", "data"),
        ("corrupt_labels", "noise"),
        ("init_params", "mlp"),
        ("forward", "mlp"),
        ("batch_loss", "losses"),
        ("backward", "mlp"),
        ("clip_grad_norm", "mlp"),
        ("sgd_step", "mlp"),
        ("evaluate", "mlp"),
        ("run_experiment", "experiment"),
        ("emit_results", "experiment"),
    ):
        tracer.install(experiment, attr, f"{layer}.{attr}")
    for attr in ("run_experiment", "emit_results"):
        tracer.install(cli, attr, f"experiment.{attr}")
    for attr in ("run_verification_suite", "gradcheck_losses", "gradcheck_mlp"):
        tracer.install(cli, attr, f"theory.{attr}")
    tracer.install(theory, "evaluate_loss", "losses.evaluate_loss")
    for attr in (
        "one_hot_bound_grid",
        "verify_calibration",
        "verify_symmetric_term_cancellation",
        "delta_sweep",
        "verify_excess_risk",
    ):
        tracer.install(theory, attr, f"theory.{attr}")
