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
import time
from dataclasses import asdict, dataclass, field
from typing import Callable

import numpy as np

from .core import make_rng
from .data import Dataset, DatasetSpec, build_dataset
from .errors import ConfigError, DataError, TrainingDiverged
from .losses import LossSpec, batch_loss
from .mlp import (
    MlpSpec,
    OptimSpec,
    Workspace,
    backward,
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
    dataset: DatasetSpec
    mlp: MlpSpec
    loss: LossSpec
    noise: NoiseSpec
    optim: OptimSpec
    seed: int = 0
    output_path: str | None = None

    def validate(self) -> None:
        """Cross-field consistency; raises ConfigError before any work is done."""
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


def config_from_dict(raw: dict) -> ExperimentConfig:
    """Build a config from nested dicts whose keys mirror the dataclass fields."""
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    parts = {}
    for name, cls in _SECTIONS:
        section = raw.get(name)
        if section is None:
            raise ConfigError(f"config is missing the {name!r} section")
        if not isinstance(section, dict):
            raise ConfigError(f"config section {name!r} must be an object")
        try:
            parts[name] = cls(**section)
        except TypeError as exc:
            raise ConfigError(f"config section {name!r}: {exc}") from None
    extras = set(raw) - {name for name, _ in _SECTIONS} - {"seed", "output_path"}
    if extras:
        raise ConfigError(f"unknown config keys: {sorted(extras)}")
    return ExperimentConfig(
        seed=int(raw.get("seed", 0)),
        output_path=raw.get("output_path"),
        **parts,
    )


def config_to_dict(config: ExperimentConfig) -> dict:
    out = {name: asdict(getattr(config, name)) for name, _ in _SECTIONS}
    out["dataset"] = {k: v for k, v in out["dataset"].items() if v is not None}
    out["mlp"]["layer_sizes"] = list(config.mlp.layer_sizes)
    out["seed"] = config.seed
    out["output_path"] = config.output_path
    return out


def load_config_file(path: str) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}") from None
    return config_from_dict(raw)


def run_experiment(
    config: ExperimentConfig,
    on_epoch: Callable[[EpochRecord], None] | None = None,
) -> tuple[list[EpochRecord], dict]:
    """Train per config and return (epoch records, summary).

    Only training labels are corrupted; the test split stays clean. The batch
    order is reshuffled every epoch from the run seed, so identical configs
    give bitwise identical trajectories. Raises TrainingDiverged, naming the
    epoch and step, when a batch's loss sum or the test logits stop being
    finite.
    """
    config.validate()
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
    records: list[EpochRecord] = []
    step = 0
    for epoch in range(opt.epochs):
        started = time.perf_counter()
        lr = cosine_lr(epoch, opt.epochs, opt.lr0)
        order = shuffle_rng.permutation(n_train)
        loss_total = 0.0
        for start in range(0, n_train, opt.batch_size):
            idx = order[start : start + opt.batch_size]
            logits, cache = forward(params, noisy.features[idx], ws)
            values, grad_logits = batch_loss(logits, noisy.labels[idx], config.loss)
            batch_sum = float(values.sum())
            if not math.isfinite(batch_sum):
                raise TrainingDiverged(
                    f"training diverged at epoch {epoch}, step {step}: "
                    f"batch loss sum is {batch_sum}"
                )
            loss_total += batch_sum
            grad_logits /= idx.size
            grads = backward(cache, grad_logits)
            clip_grad_norm(grads, opt.clip_norm)
            sgd_step(params, grads, velocity, lr, opt.momentum, opt.weight_decay)
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
    # the embedded config describes the experiment, not its storage location:
    # dropping output_path keeps equal runs byte-identical wherever they land
    embedded = config_to_dict(config)
    embedded.pop("output_path")
    summary = {
        "summary": True,
        "config": embedded,
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


def _record_to_dict(record: EpochRecord) -> dict:
    # wall_time_ms is deliberately left out: it is the one nondeterministic
    # field and would break byte-identical reruns
    return {
        "epoch": record.epoch,
        "lr": record.lr,
        "train_loss": record.train_loss,
        "test_top1": record.test_top1,
        "test_topk_errors": list(record.test_topk_errors),
    }


def emit_results(records: list[EpochRecord], summary: dict, path: str) -> None:
    """Write line-delimited JSON at full float precision; never overwrites.

    Values that strict JSON cannot hold (NaN, infinities) raise DataError
    before the file is created.
    """
    try:
        lines = [json.dumps(_record_to_dict(r), allow_nan=False) for r in records]
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
