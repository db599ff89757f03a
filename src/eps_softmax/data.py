"""Dataset generation and loading: Gaussian blobs and IDX files.

Blobs are generated from a seed and are balanced across classes. IDX files
are read and checked whole (malformed input raises DataError naming the
file), and only the rows a split keeps are converted to float64.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from .core import make_rng
from .errors import ConfigError, DataError, check_fields

DATA_SOURCES = ("blobs", "idx")
_IDX_PATHS = ("train_images_path", "train_labels_path", "test_images_path", "test_labels_path")


@dataclass(frozen=True)
class DatasetSpec:
    """Where the data comes from and how much of it to use.

    dim (the feature dimension) and separation shape blobs only; idx reads its
    dimension from its files and refuses either field off its default, and
    blobs refuses any IDX path.
    n_train / n_test select a prefix of the IDX splits, which keeps subset
    experiments deterministic.
    """

    source: str
    n_classes: int
    n_train: int
    n_test: int
    dim: int = 0
    separation: float = 10.0
    train_images_path: str | None = None  # idx
    train_labels_path: str | None = None
    test_images_path: str | None = None
    test_labels_path: str | None = None

    def __post_init__(self):
        check_fields(self)
        if self.source not in DATA_SOURCES:
            raise ConfigError(f"unknown data source {self.source!r}")
        if self.n_classes < 2:
            raise ConfigError("need at least 2 classes")
        if self.n_train < self.n_classes or self.n_test < self.n_classes:
            raise ConfigError("n_train and n_test must be at least n_classes")
        paths = {name: getattr(self, name) for name in _IDX_PATHS}
        if self.source == "blobs":
            if self.dim < 1:
                raise ConfigError("blobs needs dim >= 1")
            if self.separation <= 0:
                raise ConfigError("separation must be positive")
            if given := {name: path for name, path in paths.items() if path is not None}:
                raise ConfigError(
                    f"the IDX paths are idx-only fields; blobs leaves them null, got {given}"
                )
        elif (self.dim, self.separation) != (0, 10.0):
            raise ConfigError(
                "dim and separation are blobs-only fields; idx leaves them at 0 and 10.0, "
                f"got {self.dim} and {self.separation}"
            )
        elif not all(paths.values()):
            raise ConfigError("idx source needs images and labels paths for both splits")


@dataclass
class Dataset:
    features: np.ndarray
    labels: np.ndarray

    def __len__(self) -> int:
        return self.labels.size


def _balanced_labels(n: int, k: int) -> np.ndarray:
    counts = np.full(k, n // k)
    counts[: n % k] += 1
    return np.repeat(np.arange(k), counts)


def _blob_centers(k: int, dim: int, separation: float) -> np.ndarray:
    """Deterministic center layout with pairwise distance >= separation.

    Centers sit on a circle in the first two dimensions (on a line for
    dim = 1); the circle radius makes adjacent chords exactly separation long.
    """
    centers = np.zeros((k, dim))
    if dim == 1:
        centers[:, 0] = separation * np.arange(k)
        return centers
    radius = separation / (2.0 * math.sin(math.pi / k))
    angles = 2.0 * math.pi * np.arange(k) / k
    centers[:, 0] = radius * np.cos(angles)
    centers[:, 1] = radius * np.sin(angles)
    return centers


def _sample_blobs(rng: np.random.Generator, centers: np.ndarray, n: int) -> Dataset:
    labels = _balanced_labels(n, centers.shape[0])
    features = centers[labels] + rng.standard_normal((n, centers.shape[1]))
    perm = rng.permutation(n)
    return Dataset(features[perm], labels[perm])


def generate_blobs(spec: DatasetSpec, seed: int) -> tuple[Dataset, Dataset]:
    """Balanced isotropic unit-variance Gaussian clusters; train and test are
    disjoint draws from the same distribution."""
    rng = make_rng(seed)
    centers = _blob_centers(spec.n_classes, spec.dim, spec.separation)
    return _sample_blobs(rng, centers, spec.n_train), _sample_blobs(rng, centers, spec.n_test)


def _read_idx(path: str, magic: int, n_dims: int) -> tuple[list[int], np.ndarray]:
    """The dimensions and the uint8 payload of one big-endian IDX file, whose
    length must be exactly its header plus the product of its dimensions."""
    with open(path, "rb") as fh:
        data = fh.read()
    header_len = 4 * (1 + n_dims)
    if len(data) < header_len:
        raise DataError(f"{path}: truncated header")
    found, *dims = struct.unpack(f">{1 + n_dims}I", data[:header_len])
    if found != magic:
        raise DataError(f"{path}: bad magic {found}, expected {magic}")
    expected = header_len + math.prod(dims)
    if len(data) < expected:
        raise DataError(f"{path}: truncated: expected {expected} bytes, got {len(data)}")
    if len(data) > expected:
        raise DataError(f"{path}: trailing bytes after {expected}")
    return dims, np.frombuffer(data, dtype=np.uint8, offset=header_len)


def load_idx(images_path: str, labels_path: str, n: int, n_classes: int, split: str) -> Dataset:
    """The first n rows of one split's big-endian IDX image/label files (magic 2051 / 2049).

    Both files are read and checked whole, every label below n_classes included; only
    the first n images are converted: scaled to [0, 1], float64, shape (n, rows * cols).
    split names the split in errors; n is at least 1, as a DatasetSpec ensures.
    """
    (count, rows, cols), pixels = _read_idx(images_path, 2051, 3)
    (lab_count,), labels = _read_idx(labels_path, 2049, 1)
    if lab_count != count:
        raise DataError(f"{labels_path}: {lab_count} labels but {images_path} has {count} images")
    # the size check comes first: it also refuses an empty file
    if n > count:
        raise DataError(f"{labels_path}: requested {n} {split} samples but only {count} available")
    if labels.max() >= n_classes:
        raise DataError(
            f"{labels_path}: {split} label {int(labels.max())} out of range "
            f"for {n_classes} classes"
        )
    kept = pixels[: n * rows * cols].reshape(n, rows * cols)
    return Dataset(np.divide(kept, 255.0, dtype=np.float64), labels[:n].astype(np.int64))


def build_dataset(spec: DatasetSpec, seed: int) -> tuple[Dataset, Dataset]:
    """Materialize the train and test splits described by spec."""
    if spec.source == "blobs":
        return generate_blobs(spec, seed)
    train = load_idx(
        spec.train_images_path, spec.train_labels_path, spec.n_train, spec.n_classes, "train"
    )
    test = load_idx(
        spec.test_images_path, spec.test_labels_path, spec.n_test, spec.n_classes, "test"
    )
    if train.features.shape[1] != test.features.shape[1]:
        raise DataError(
            f"train has {train.features.shape[1]} features "
            f"but test has {test.features.shape[1]}"
        )
    return train, test
