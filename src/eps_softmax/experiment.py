"""Experiment harness: config plumbing, the training loop, and result files.

Results are line-delimited JSON: one object per epoch record followed by a
single summary object tagged "summary": true. Only deterministic fields are
written, so rerunning the same config produces byte-identical files; wall
times are measured and kept on the in-memory records (and surfaced through
the progress callback) but never serialized.
"""

from __future__ import annotations

import json
import math
import sys
import time
from dataclasses import asdict, dataclass, fields
from typing import Callable

import numpy as np

from .core import make_rng
from .data import Dataset, DatasetSpec, build_dataset
from .errors import ConfigError, DataError, TrainingDiverged
from .losses import LossSpec, batch_loss
from .mlp import (
    MlpSpec,
    OptimSpec,
    ParamSet,
    Workspace,
    backward,
    blas_threads_for,
    clip_grad_norm,
    cosine_lr,
    evaluate,
    forward,
    init_params,
    sgd_step,
    zeros_like_params,
)
from .noise import NoiseSpec, corrupt_labels

#: Stream index for batch shuffling, distinct from dataset generation's 0.
_SHUFFLE_STREAM = 1


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment; where its results are written is not part of it.

    Construction checks the sections agree on the class count and, for the
    generated sources, the input width; a mismatch raises ConfigError."""

    dataset: DatasetSpec
    mlp: MlpSpec
    loss: LossSpec
    noise: NoiseSpec
    optim: OptimSpec
    seed: int = 0

    def __post_init__(self):
        k = self.dataset.n_classes
        if self.mlp.n_classes != k:
            raise ConfigError(
                f"mlp output size {self.mlp.n_classes} does not match n_classes {k}"
            )
        if self.noise.n_classes != k:
            raise ConfigError(
                f"noise n_classes {self.noise.n_classes} does not match n_classes {k}"
            )
        if self.dataset.source in ("blobs", "spirals"):
            if self.mlp.layer_sizes[0] != self.dataset.dim:
                raise ConfigError(
                    f"mlp input size {self.mlp.layer_sizes[0]} does not match "
                    f"dataset dim {self.dataset.dim}"
                )


@dataclass
class EpochRecord:
    epoch: int
    lr: float
    train_loss: float
    test_top1: float
    test_topk_errors: list[float]
    wall_time_ms: float = 0.0


_SECTIONS = (
    ("dataset", DatasetSpec),
    ("mlp", MlpSpec),
    ("loss", LossSpec),
    ("noise", NoiseSpec),
    ("optim", OptimSpec),
)


def is_int64(value) -> bool:
    """The rule for every integer field and flag: an int, not a bool, in int64's range."""
    return type(value) is int and -(2**63) <= value < 2**63


#: field annotation -> (test of a JSON value, what the test accepts). An integer
#: is a valid float, but NaN and the infinities that Python's json reads are
#: not; true and false are valid only as booleans.
_JSON_FIELD_TYPES = {
    "int": (is_int64, "an integer in [-2**63, 2**63)"),
    "float": (
        # abs() <= max is False for NaN, the infinities and integers too large for a double
        lambda v: type(v) in (int, float) and abs(v) <= sys.float_info.max,
        "a finite number",
    ),
    "bool": (lambda v: isinstance(v, bool), "true or false"),
    "str": (lambda v: isinstance(v, str), "a string"),
    "str | None": (lambda v: v is None or isinstance(v, str), "a string or null"),
    "tuple[int, ...]": (
        lambda v: isinstance(v, list) and all(map(is_int64, v)),
        "a list of integers in [-2**63, 2**63)",
    ),
}


def _check_field_types(prefix: str, cls, values: dict) -> None:
    """Raise ConfigError naming the first value whose JSON type does not fit
    the annotation of its field in ``cls``; keys that are not fields pass."""
    for f in fields(cls):
        if f.name in values:
            fits, expected = _JSON_FIELD_TYPES[f.type]
            if not fits(values[f.name]):
                raise ConfigError(
                    f"config field {prefix + f.name!r} must be {expected}, "
                    f"got {values[f.name]!r}"
                )


def config_from_dict(raw: dict) -> ExperimentConfig:
    """Build a config from nested dicts whose keys mirror the dataclass fields.

    Every value must have the JSON type of its field, so a fractional count or
    a quoted number is a ConfigError rather than silently cast.
    """
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    if "seed" in raw:
        _check_field_types("", ExperimentConfig, {"seed": raw["seed"]})
    parts = {}
    for name, cls in _SECTIONS:
        section = raw.get(name)
        if section is None:
            raise ConfigError(f"config is missing the {name!r} section")
        if not isinstance(section, dict):
            raise ConfigError(f"config section {name!r} must be an object")
        _check_field_types(f"{name}.", cls, section)
        try:
            parts[name] = cls(**section)
        except TypeError as exc:
            raise ConfigError(f"config section {name!r}: {exc}") from None
    extras = set(raw) - {name for name, _ in _SECTIONS} - {"seed"}
    if extras:
        raise ConfigError(f"unknown config keys: {sorted(extras)}")
    return ExperimentConfig(seed=raw.get("seed", 0), **parts)


def config_to_dict(config: ExperimentConfig) -> dict:
    """The config as nested dicts, as config files hold it and results embed it."""
    out = {name: asdict(getattr(config, name)) for name, _ in _SECTIONS}
    out["dataset"] = {k: v for k, v in out["dataset"].items() if v is not None}
    out["mlp"]["layer_sizes"] = list(config.mlp.layer_sizes)
    out["seed"] = config.seed
    return out


def load_config_file(path: str) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text: {exc}") from None
    return config_from_dict(raw)


def train_step(
    params: ParamSet,
    velocity: ParamSet,
    ws: Workspace,
    x: np.ndarray,
    y: np.ndarray,
    spec: LossSpec,
    lr: float,
    optim: OptimSpec,
) -> float:
    """One in-place momentum-SGD update on the batch-mean loss of (x, y), its
    gradients clipped to ``optim.clip_norm``; returns the batch's loss sum.
    The callees are looked up in this module at call time, so a wrapper
    installed on it sees every step."""
    logits, cache = forward(params, x, ws)
    values, grad_logits = batch_loss(logits, y, spec)
    loss_sum = float(values.sum())
    grad_logits /= y.size
    grads = backward(cache, grad_logits)
    clip_grad_norm(grads, optim.clip_norm)
    sgd_step(params, grads, velocity, lr, optim.momentum, optim.weight_decay)
    return loss_sum


def run_experiment(
    config: ExperimentConfig,
    on_epoch: Callable[[EpochRecord], None] | None = None,
) -> tuple[list[EpochRecord], dict]:
    """Train per config and return (epoch records, summary).

    Only training labels are corrupted; the test split stays clean. The batch
    order is reshuffled every epoch from the run seed, so identical configs
    give bitwise identical trajectories. Raises TrainingDiverged, naming the
    epoch and step, when a batch's loss sum or the test logits stop being
    finite; a non-finite loss sum is caught after its step's update.

    Training and evaluation run under ``blas_threads_for``, so a small net
    trains at one BLAS thread; the results are the same bytes at any count.
    """
    train, test = build_dataset(config.dataset, config.seed)
    if config.mlp.layer_sizes[0] != train.features.shape[1]:
        raise ConfigError(
            f"mlp input size {config.mlp.layer_sizes[0]} does not match "
            f"loaded feature dim {train.features.shape[1]}"
        )
    corruption = corrupt_labels(train.labels, config.noise)
    noisy = Dataset(train.features, corruption.noisy_labels)

    params = init_params(config.mlp)
    velocity = zeros_like_params(params)
    ws = Workspace(config.mlp.layer_sizes)
    shuffle_rng = make_rng(config.seed, stream=_SHUFFLE_STREAM)
    opt = config.optim
    n_train = len(noisy)
    # each batch is gathered into these; the last partial batch uses leading rows
    rows = min(opt.batch_size, n_train)
    x_batch = np.empty((rows, noisy.features.shape[1]), dtype=noisy.features.dtype)
    y_batch = np.empty(rows, dtype=noisy.labels.dtype)
    records: list[EpochRecord] = []
    step = 0
    with (
        blas_threads_for(config.mlp.layer_sizes, rows),
        # a diverging run overflows before the finite checks below catch it;
        # the typed error, not numpy's warnings, reports it
        np.errstate(over="ignore", invalid="ignore"),
    ):
        for epoch in range(opt.epochs):
            started = time.perf_counter()
            lr = cosine_lr(epoch, opt.epochs, opt.lr0)
            order = shuffle_rng.permutation(n_train)
            loss_total = 0.0
            for start in range(0, n_train, opt.batch_size):
                idx = order[start : start + opt.batch_size]
                # a permutation's indices are in range, and any mode but the
                # default "raise" lets np.take write straight into out
                x = np.take(noisy.features, idx, axis=0, out=x_batch[: idx.size], mode="clip")
                y = np.take(noisy.labels, idx, out=y_batch[: idx.size], mode="clip")
                batch_sum = train_step(params, velocity, ws, x, y, config.loss, lr, opt)
                if not math.isfinite(batch_sum):
                    raise TrainingDiverged(
                        f"training diverged at epoch {epoch}, step {step}: "
                        f"batch loss sum is {batch_sum}"
                    )
                loss_total += batch_sum
                step += 1
            try:
                metrics = evaluate(params, test.features, test.labels, ws=ws)
            except FloatingPointError as exc:
                raise TrainingDiverged(
                    f"training diverged at epoch {epoch}, after step {step - 1}: {exc}"
                ) from None
            record = EpochRecord(
                epoch=epoch,
                lr=lr,
                train_loss=loss_total / n_train,
                test_top1=metrics["top1_accuracy"],
                test_topk_errors=metrics["topk_errors"],
                wall_time_ms=(time.perf_counter() - started) * 1000.0,
            )
            records.append(record)
            if on_epoch is not None:
                on_epoch(record)

    best = max(records, key=lambda r: r.test_top1)
    summary = {
        "summary": True,
        "config": config_to_dict(config),
        "n_train": n_train,
        "n_test": len(test),
        "realized_noise_rate": corruption.realized_rate,
        "n_flipped": int(corruption.flip_mask.sum()),
        "flipped_indices": [int(i) for i in np.flatnonzero(corruption.flip_mask)],
        "last_test_top1": records[-1].test_top1,
        "best_test_top1": best.test_top1,
        "best_epoch": best.epoch,
        "final_train_loss": records[-1].train_loss,
    }
    return records, summary


def emit_results(records: list[EpochRecord], summary: dict, path: str) -> None:
    """Write line-delimited JSON at full float precision; never overwrites.

    Values that strict JSON cannot hold (NaN, infinities) raise DataError
    before the file is created.
    """
    try:
        lines = []
        for record in records:
            row = asdict(record)
            # the one nondeterministic field would break byte-identical reruns
            del row["wall_time_ms"]
            lines.append(json.dumps(row, allow_nan=False))
        lines.append(json.dumps(summary, allow_nan=False))
    except ValueError as exc:
        raise DataError(f"refusing to write {path}: {exc}") from None
    try:
        fh = open(path, "x", encoding="utf-8")
    except FileExistsError:
        raise DataError(f"refusing to overwrite existing results file: {path}") from None
    except OSError as exc:
        raise DataError(f"cannot write results to {path}: {exc}") from None
    with fh:
        for line in lines:
            fh.write(line + "\n")


def read_results(path: str) -> tuple[list[EpochRecord], dict]:
    """Parse a results file back into records and the summary object."""
    records: list[EpochRecord] = []
    summary = None
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text: {exc}") from None
    for lineno, line in enumerate(lines, 1):
        if not line.strip():
            raise DataError(f"{path}: line {lineno}: blank line in results file")
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise DataError(f"{path}: line {lineno}: invalid JSON: {exc}") from None
        if not isinstance(obj, dict):
            raise DataError(f"{path}: line {lineno}: not a JSON object")
        if obj.get("summary"):
            summary = obj
        else:
            try:
                records.append(EpochRecord(**obj))
            except TypeError:
                raise DataError(
                    f"{path}: line {lineno}: not a valid epoch record"
                ) from None
    if summary is None:
        raise DataError(f"{path}: missing summary line")
    return records, summary
