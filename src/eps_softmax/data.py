"""Dataset generation and loading: Gaussian blobs, spirals, CSV, and IDX files.

Synthetic sources are generated from a seed and are balanced across classes;
file sources are read strictly (malformed input raises DataError with enough
context to find the offending line or field). Standardization statistics are
always computed on the training split only.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from .core import make_rng
from .errors import ConfigError, DataError, check_finite_fields

DATA_SOURCES = ("blobs", "spirals", "csv", "idx")


@dataclass(frozen=True)
class DatasetSpec:
    """Where the data comes from and how much of it to use.

    dim is the feature dimension for synthetic sources and is inferred (leave
    it 0) for file sources. n_train / n_test select a prefix of file-backed
    splits, which keeps subset experiments deterministic.
    """

    source: str
    n_classes: int
    n_train: int
    n_test: int
    dim: int = 0
    separation: float = 10.0
    normalize: bool = False
    train_data_path: str | None = None  # csv
    test_data_path: str | None = None
    train_images_path: str | None = None  # idx
    train_labels_path: str | None = None
    test_images_path: str | None = None
    test_labels_path: str | None = None

    def __post_init__(self):
        check_finite_fields(self)
        if self.source not in DATA_SOURCES:
            raise ConfigError(f"unknown data source {self.source!r}")
        if self.n_classes < 2:
            raise ConfigError("need at least 2 classes")
        if self.n_train < self.n_classes or self.n_test < self.n_classes:
            raise ConfigError("n_train and n_test must be at least n_classes")
        if self.source in ("blobs", "spirals"):
            if self.dim < 1:
                raise ConfigError(f"{self.source} needs dim >= 1")
            if self.source == "spirals" and self.dim != 2:
                raise ConfigError("spirals are two-dimensional; set dim = 2")
            if self.source == "blobs" and self.separation <= 0:
                raise ConfigError("separation must be positive")
        if self.source == "csv" and not (self.train_data_path and self.test_data_path):
            raise ConfigError("csv source needs train_data_path and test_data_path")
        if self.source == "idx" and not (
            self.train_images_path
            and self.train_labels_path
            and self.test_images_path
            and self.test_labels_path
        ):
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


def _sample_spirals(rng: np.random.Generator, k: int, n: int) -> Dataset:
    labels = _balanced_labels(n, k)
    t = np.empty(n)
    for c in range(k):  # evenly spaced arc positions per class
        idx = np.flatnonzero(labels == c)
        t[idx] = (np.arange(idx.size) + 0.5) / idx.size
    radius = 0.5 + 2.5 * t
    theta = 2.0 * math.pi * (1.5 * t + labels / k) + 0.2 * rng.standard_normal(n)
    features = np.column_stack([radius * np.cos(theta), radius * np.sin(theta)])
    perm = rng.permutation(n)
    return Dataset(features[perm], labels[perm])


def generate_spirals(spec: DatasetSpec, seed: int) -> tuple[Dataset, Dataset]:
    """K interleaved planar spiral arms with angular jitter."""
    rng = make_rng(seed)
    return (
        _sample_spirals(rng, spec.n_classes, spec.n_train),
        _sample_spirals(rng, spec.n_classes, spec.n_test),
    )


def load_csv(path: str) -> tuple[np.ndarray, np.ndarray]:
    """Parse UTF-8 rows of comma-separated finite reals whose last column is a
    nonnegative integer label."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text: {exc}") from None
    if not lines:
        raise DataError(f"{path}: empty file")
    features, labels = [], []
    width = None
    for lineno, line in enumerate(lines, 1):
        parts = line.split(",")
        if len(parts) < 2:
            raise DataError(f"{path}: line {lineno}: expected at least 2 comma-separated fields")
        try:
            row = [float(s) for s in parts]
        except ValueError:
            raise DataError(f"{path}: line {lineno}: non-numeric field") from None
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise DataError(
                f"{path}: line {lineno}: expected {width} fields, got {len(row)}"
            )
        if not all(math.isfinite(v) for v in row[:-1]):
            raise DataError(f"{path}: line {lineno}: features must be finite")
        label = row[-1]
        # labels are stored as int64, so 2**63 and above are refused here too
        if not (math.isfinite(label) and label == int(label)) or not 0 <= label < 2**63:
            raise DataError(f"{path}: line {lineno}: label must be a nonnegative integer")
        features.append(row[:-1])
        labels.append(int(label))
    return np.asarray(features, dtype=np.float64), np.asarray(labels, dtype=np.int64)


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


def load_idx(images_path: str, labels_path: str) -> tuple[np.ndarray, np.ndarray]:
    """Read big-endian IDX image/label files (magic 2051 / 2049).

    Pixels are scaled to [0, 1] and flattened to (count, rows * cols).
    """
    (count, rows, cols), pixels = _read_idx(images_path, 2051, 3)
    (lab_count,), labels = _read_idx(labels_path, 2049, 1)
    if lab_count != count:
        raise DataError(
            f"{labels_path}: {lab_count} labels but {images_path} has {count} images"
        )
    images = pixels.astype(np.float64).reshape(count, rows * cols) / 255.0
    return images, labels.astype(np.int64)


def standardize(train_x: np.ndarray, test_x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-feature zero-mean unit-variance using training-split statistics."""
    mean = train_x.mean(axis=0)
    std = train_x.std(axis=0)
    std = np.where(std == 0.0, 1.0, std)
    return (train_x - mean) / std, (test_x - mean) / std


def build_dataset(spec: DatasetSpec, seed: int) -> tuple[Dataset, Dataset]:
    """Materialize the train and test splits described by spec."""
    if spec.source == "blobs":
        train, test = generate_blobs(spec, seed)
    elif spec.source == "spirals":
        train, test = generate_spirals(spec, seed)
    else:
        if spec.source == "csv":
            label_paths = (spec.train_data_path, spec.test_data_path)
            loaded = [load_csv(path) for path in label_paths]
        else:
            label_paths = (spec.train_labels_path, spec.test_labels_path)
            image_paths = (spec.train_images_path, spec.test_images_path)
            loaded = [load_idx(*paths) for paths in zip(image_paths, label_paths)]
        splits = []
        for (x, y), n, name, path in zip(
            loaded, (spec.n_train, spec.n_test), ("train", "test"), label_paths
        ):
            # the size check comes first: it also refuses an empty file
            if n > y.size:
                raise DataError(
                    f"{path}: requested {n} {name} samples but only {y.size} available"
                )
            if y.max() >= spec.n_classes:
                raise DataError(
                    f"{path}: {name} label {int(y.max())} out of range "
                    f"for {spec.n_classes} classes"
                )
            splits.append(Dataset(x[:n], y[:n]))
        train, test = splits
        if train.features.shape[1] != test.features.shape[1]:
            raise DataError(
                f"train has {train.features.shape[1]} features "
                f"but test has {test.features.shape[1]}"
            )
    if spec.normalize:
        train_x, test_x = standardize(train.features, test.features)
        train, test = Dataset(train_x, train.labels), Dataset(test_x, test.labels)
    return train, test
