"""Experiment harness: config plumbing, the training loop, and result files.

Results are line-delimited JSON: an ``EpochRecord`` per epoch, then one
``RunSummary`` tagged "summary": true; ``read_results`` checks every member.
Only deterministic fields are written, so rerunning the same config produces
byte-identical files; wall times are measured and kept on the in-memory
records (and surfaced through the progress callback) but never serialized.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import MISSING, asdict, dataclass, fields
from typing import Callable

import numpy as np

from .core import make_rng
from .data import Dataset, DatasetSpec, build_dataset
from .errors import ConfigError, DataError, TrainingDiverged, check_fields
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
    eval_rows,
    evaluate,
    forward,
    init_params,
    n_params,
    sgd_step,
)
from .noise import NoiseSpec, corrupt_labels

#: Stream index for batch shuffling, distinct from dataset generation's 0.
_SHUFFLE_STREAM = 1


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment; where its results are written is not part of it.

    Construction checks the sections agree on the class count and, for the
    blobs source, the input width; a mismatch raises ConfigError. So does an
    array the run would size past numpy's limit of np.intp's largest value in
    bytes: the features of either split, the parameters, or the workspace."""

    dataset: DatasetSpec
    mlp: MlpSpec
    loss: LossSpec
    noise: NoiseSpec
    optim: OptimSpec
    seed: int = 0

    def __post_init__(self):
        check_fields(self, names=("seed",))  # each section checked its own
        k = self.dataset.n_classes
        if self.mlp.n_classes != k:
            raise ConfigError(
                f"mlp output size {self.mlp.n_classes} does not match n_classes {k}"
            )
        if self.noise.n_classes != k:
            raise ConfigError(
                f"noise n_classes {self.noise.n_classes} does not match n_classes {k}"
            )
        if self.dataset.source == "blobs":
            if self.mlp.layer_sizes[0] != self.dataset.dim:
                raise ConfigError(
                    f"mlp input size {self.mlp.layer_sizes[0]} does not match "
                    f"dataset dim {self.dataset.dim}"
                )
        # numpy refuses such an array with a ValueError, which cli.main does not catch
        limit = np.iinfo(np.intp).max
        d, sizes = self.dataset, self.mlp.layer_sizes
        for field, floats in (
            (f"dataset n_train {d.n_train}", d.n_train * max(d.dim, 1)),
            (f"dataset n_test {d.n_test}", d.n_test * max(d.dim, 1)),
            (f"mlp layer_sizes {list(sizes)}", n_params(sizes)),
            (f"optim batch_size {self.optim.batch_size}", self.workspace_rows() * sum(sizes[1:])),
        ):
            if 8 * floats > limit:
                raise ConfigError(
                    f"{field} sizes an array of {8 * floats} bytes, past numpy's limit of {limit}"
                )

    def workspace_rows(self) -> int:
        """Rows of the run's one Workspace: a training batch or an evaluate chunk, the larger."""
        d = self.dataset
        return max(min(self.optim.batch_size, d.n_train), eval_rows(self.mlp.layer_sizes, d.n_test))


@dataclass
class EpochRecord:
    epoch: int
    lr: float
    train_loss: float
    test_top1: float
    wall_time_ms: float = 0.0


@dataclass
class RunSummary:
    """A run's last results line; flipped_indices are where noise changed a training label."""

    config: dict
    n_train: int
    n_test: int
    realized_noise_rate: float
    n_flipped: int
    flipped_indices: tuple[int, ...]
    last_test_top1: float
    best_test_top1: float
    best_epoch: int
    final_train_loss: float


_SECTIONS = (
    ("dataset", DatasetSpec),
    ("mlp", MlpSpec),
    ("loss", LossSpec),
    ("noise", NoiseSpec),
    ("optim", OptimSpec),
)


def config_from_dict(raw: dict) -> ExperimentConfig:
    """Build a config from nested dicts whose keys mirror the dataclass fields.
    A section's keys must be its spec's fields, the required ones included,
    and the top-level ``seed`` is required too; each spec checks its own
    values, and a ConfigError from a section names it."""
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    parts = {}
    for name, cls in _SECTIONS:
        section = raw.get(name)
        if section is None:
            raise ConfigError(f"config is missing the {name!r} section")
        if not isinstance(section, dict):
            raise ConfigError(f"config section {name!r} must be an object")
        unknown = sorted(set(section) - {f.name for f in fields(cls)}, key=str)
        if unknown:
            raise ConfigError(f"unknown config keys in section {name!r}: {unknown}")
        missing = [f.name for f in fields(cls) if f.default is MISSING and f.name not in section]
        if missing:
            raise ConfigError(f"missing config keys in section {name!r}: {missing}")
        try:
            parts[name] = cls(**section)
        except ConfigError as exc:
            raise ConfigError(f"config section {name!r}: {exc}") from None
    extras = set(raw) - {name for name, _ in _SECTIONS} - {"seed"}
    if extras:
        raise ConfigError(f"unknown config keys: {sorted(extras, key=str)}")
    if "seed" not in raw:
        raise ConfigError("missing config keys: ['seed']")
    return ExperimentConfig(seed=raw["seed"], **parts)


def config_to_dict(config: ExperimentConfig) -> dict:
    """The config as nested dicts, as config files hold it and results embed it."""
    out = {name: asdict(getattr(config, name)) for name, _ in _SECTIONS}
    out["dataset"] = {k: v for k, v in out["dataset"].items() if v is not None}
    out["mlp"]["layer_sizes"] = list(config.mlp.layer_sizes)
    out["seed"] = config.seed
    return out


def load_config_file(path: str) -> dict:
    """The file's nested dicts, checked by ``config_from_dict``; they keep the
    fields that the file's kinds do not read, for the kinds a flag selects."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text: {exc}") from None
    config_from_dict(raw)
    return raw


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
    logits = forward(params, x, ws)
    values, grad_logits = batch_loss(logits, y, spec)
    loss_sum = float(values.sum())
    grad_logits /= y.size
    backward(ws, grad_logits)
    clip_grad_norm(ws, optim.clip_norm)
    sgd_step(params, ws, velocity, lr, optim.momentum, optim.weight_decay)
    return loss_sum


def run_experiment(
    config: ExperimentConfig,
    on_epoch: Callable[[EpochRecord], None] | None = None,
) -> tuple[list[EpochRecord], RunSummary]:
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
    noisy = Dataset(train.features, corrupt_labels(train.labels, config.noise))

    params = init_params(config.mlp)
    velocity = ParamSet.zeros(config.mlp.layer_sizes)
    shuffle_rng = make_rng(config.seed, stream=_SHUFFLE_STREAM)
    opt = config.optim
    n_train = len(noisy)
    # each batch is gathered into these; the last partial batch uses leading rows
    rows = min(opt.batch_size, n_train)
    ws = Workspace(config.mlp.layer_sizes, config.workspace_rows())
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
                test_top1 = evaluate(params, test.features, test.labels, ws)
            except FloatingPointError as exc:
                raise TrainingDiverged(
                    f"training diverged at epoch {epoch}, after step {step - 1}: {exc}"
                ) from None
            record = EpochRecord(
                epoch=epoch,
                lr=lr,
                train_loss=loss_total / n_train,
                test_top1=test_top1,
                wall_time_ms=(time.perf_counter() - started) * 1000.0,
            )
            records.append(record)
            if on_epoch is not None:
                on_epoch(record)

    best = max(records, key=lambda r: r.test_top1)
    flipped = np.flatnonzero(noisy.labels != train.labels).tolist()
    return records, RunSummary(
        config=config_to_dict(config), n_train=n_train, n_test=len(test),
        realized_noise_rate=len(flipped) / n_train, n_flipped=len(flipped),
        flipped_indices=flipped, last_test_top1=records[-1].test_top1,
        best_test_top1=best.test_top1, best_epoch=best.epoch,
        final_train_loss=records[-1].train_loss,
    )


def emit_results(records: list[EpochRecord], summary: RunSummary, path: str) -> None:
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
        lines.append(json.dumps({"summary": True, **vars(summary)}, allow_nan=False))
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


def read_results(path: str) -> tuple[list[EpochRecord], RunSummary]:
    """Parse a results file back into records and the summary, which must be
    its last line and the one line whose "summary" is true. Each line must hold
    exactly its dataclass's written members, each fitting its annotation; the
    top-k errors that older files hold in each record are dropped."""
    items: list = []  # the records, then the summary
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text: {exc}") from None
    for lineno, line in enumerate(lines, 1):
        if not line.strip():
            raise DataError(f"{path}: line {lineno}: blank line in results file")
        if items and isinstance(items[-1], RunSummary):
            raise DataError(f"{path}: line {lineno}: a line after the summary line")
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise DataError(f"{path}: line {lineno}: invalid JSON: {exc}") from None
        if not isinstance(obj, dict):
            raise DataError(f"{path}: line {lineno}: not a JSON object")
        if obj.get("summary") is True:
            cls, what = RunSummary, "summary"
            del obj["summary"]
        else:
            cls, what = EpochRecord, "epoch record"
            obj.pop("test_topk_errors", None)
        members = {f.name for f in fields(cls)} - {"wall_time_ms"}
        if set(obj) != members:
            raise DataError(
                f"{path}: line {lineno}: not a valid {what}: its members are "
                f"{sorted(obj)}, not {sorted(members)}"
            )
        item = cls(**obj)
        try:
            check_fields(item)
        except ConfigError as exc:
            raise DataError(f"{path}: line {lineno}: {exc}") from None
        items.append(item)
    if not items or not isinstance(items[-1], RunSummary):
        raise DataError(f"{path}: missing summary line")
    return items[:-1], items[-1]
