"""Synthetic generators and the IDX file loader."""

import dataclasses
import re
import struct
import tracemalloc

import numpy as np
import pytest

from eps_softmax.data import (
    Dataset,
    DatasetSpec,
    build_dataset,
    generate_blobs,
    load_idx,
)
from eps_softmax.errors import ConfigError, DataError


def blob_spec(**overrides):
    base = dict(source="blobs", n_classes=3, n_train=60, n_test=30, dim=4)
    base.update(overrides)
    return DatasetSpec(**base)


# ---------------------------------------------------------------------------
# Spec validation
# ---------------------------------------------------------------------------


def test_spec_rejects_unknown_source():
    with pytest.raises(ConfigError):
        blob_spec(source="moons")


def test_spec_rejects_degenerate_sizes():
    with pytest.raises(ConfigError):
        blob_spec(n_classes=1)
    with pytest.raises(ConfigError):
        blob_spec(n_train=2)
    with pytest.raises(ConfigError):
        blob_spec(dim=0)
    with pytest.raises(ConfigError):
        blob_spec(separation=0.0)


def test_spec_refuses_spirals_as_an_unknown_source():
    with pytest.raises(ConfigError, match="unknown data source 'spirals'"):
        DatasetSpec(source="spirals", n_classes=3, n_train=60, n_test=30, dim=2)


def test_spec_file_sources_require_paths():
    with pytest.raises(ConfigError):
        DatasetSpec(source="idx", n_classes=3, n_train=60, n_test=30)


@pytest.mark.parametrize(
    "fields, got", [({"dim": 7}, "7 and 10.0"), ({"separation": -3.0}, "0 and -3.0")]
)
def test_spec_refuses_blobs_only_fields_for_idx(fields, got):
    paths = {f"{s}_{k}_path": "f" for s in ("train", "test") for k in ("images", "labels")}
    base = {"source": "idx", "n_classes": 3, "n_train": 60, "n_test": 30, **paths}
    with pytest.raises(ConfigError, match=f"^dim and separation are blobs-only .* got {got}$"):
        DatasetSpec(**base, **fields)
    # the defaults, which config_to_dict writes for idx, are accepted
    assert DatasetSpec(**base, dim=0, separation=10.0) == DatasetSpec(**base)


def test_spec_refuses_idx_paths_for_blobs():
    # blobs reads no file, so a path would sit in its results unread
    got = {"train_images_path": "nowhere.idx", "test_labels_path": "labels.idx"}
    message = "^the IDX paths are idx-only fields; blobs leaves them null, got "
    with pytest.raises(ConfigError, match=message + re.escape(str(got)) + "$"):
        blob_spec(**got)
    assert blob_spec(train_images_path=None) == blob_spec()


# ---------------------------------------------------------------------------
# Synthetic sources
# ---------------------------------------------------------------------------


def test_blobs_shapes_and_balance():
    train, test = generate_blobs(blob_spec(), seed=0)
    assert train.features.shape == (60, 4)
    assert test.features.shape == (30, 4)
    assert len(train) == 60
    counts = np.bincount(train.labels, minlength=3)
    assert counts.tolist() == [20, 20, 20]


def test_blobs_balance_with_remainder():
    train, _ = generate_blobs(blob_spec(n_train=61), seed=0)
    counts = np.bincount(train.labels, minlength=3)
    assert sorted(counts.tolist()) == [20, 20, 21]


def test_blobs_are_deterministic_per_seed():
    a, _ = generate_blobs(blob_spec(), seed=5)
    b, _ = generate_blobs(blob_spec(), seed=5)
    c, _ = generate_blobs(blob_spec(), seed=6)
    assert np.array_equal(a.features, b.features)
    assert np.array_equal(a.labels, b.labels)
    assert not np.array_equal(a.features, c.features)


def test_blobs_classes_are_separated():
    train, _ = generate_blobs(blob_spec(separation=10.0, n_train=300), seed=0)
    means = np.stack([train.features[train.labels == k].mean(axis=0) for k in range(3)])
    for i in range(3):
        for j in range(i + 1, 3):
            assert np.linalg.norm(means[i] - means[j]) > 5.0


def test_blobs_1d_centers_lie_on_a_line():
    train, _ = generate_blobs(blob_spec(dim=1, n_train=600, separation=20.0), seed=0)
    means = [train.features[train.labels == k].mean() for k in range(3)]
    assert means[0] < means[1] < means[2]


# ---------------------------------------------------------------------------
# IDX loader
# ---------------------------------------------------------------------------


def write_idx_pair(tmp_path, pixels, labels, rows=2, cols=2):
    n = len(labels)
    img = struct.pack(">IIII", 2051, n, rows, cols) + bytes(pixels)
    lab = struct.pack(">II", 2049, n) + bytes(labels)
    ip = tmp_path / "images-idx3-ubyte"
    lp = tmp_path / "labels-idx1-ubyte"
    ip.write_bytes(img)
    lp.write_bytes(lab)
    return str(ip), str(lp)


def test_load_idx_round_trip(tmp_path):
    pixels = [0, 255, 128, 0, 255, 0, 0, 64]
    ip, lp = write_idx_pair(tmp_path, pixels, [3, 1])
    loaded = load_idx(ip, lp, 2, 4, "train")
    x, y = loaded.features, loaded.labels
    assert x.shape == (2, 4)
    assert np.array_equal(y, [3, 1])
    assert x[0, 0] == 0.0
    assert x[0, 1] == 1.0
    assert x[0, 2] == pytest.approx(128.0 / 255.0)


def test_load_idx_bad_magic(tmp_path):
    ip, lp = write_idx_pair(tmp_path, [0, 0, 0, 0], [0])
    bad = tmp_path / "bad"
    bad.write_bytes(struct.pack(">IIII", 2052, 1, 2, 2) + bytes(4))
    with pytest.raises(DataError, match="magic"):
        load_idx(str(bad), lp, 1, 2, "train")


def test_load_idx_truncated_payload(tmp_path):
    ip = tmp_path / "img"
    ip.write_bytes(struct.pack(">IIII", 2051, 2, 2, 2) + bytes(3))
    lp = tmp_path / "lab"
    lp.write_bytes(struct.pack(">II", 2049, 2) + bytes(2))
    with pytest.raises(DataError, match="truncated"):
        load_idx(str(ip), str(lp), 1, 2, "train")


def test_load_idx_truncated_header(tmp_path):
    ip = tmp_path / "img"
    ip.write_bytes(b"\x00\x00")
    with pytest.raises(DataError, match="truncated header"):
        load_idx(str(ip), str(ip), 1, 2, "train")


def test_load_idx_trailing_bytes(tmp_path):
    ip = tmp_path / "img"
    ip.write_bytes(struct.pack(">IIII", 2051, 1, 2, 2) + bytes(5))
    lp = tmp_path / "lab"
    lp.write_bytes(struct.pack(">II", 2049, 1) + bytes(1))
    with pytest.raises(DataError, match="trailing"):
        load_idx(str(ip), str(lp), 1, 2, "train")


def test_load_idx_count_mismatch(tmp_path):
    ip, _ = write_idx_pair(tmp_path, [0] * 8, [1, 2])
    lp = tmp_path / "lab"
    lp.write_bytes(struct.pack(">II", 2049, 1) + bytes(1))
    with pytest.raises(DataError, match="labels but"):
        load_idx(ip, str(lp), 1, 2, "train")


# ---------------------------------------------------------------------------
# Assembly
# ---------------------------------------------------------------------------


def test_build_dataset_idx_subsets_a_prefix(tmp_path):
    # image i is four pixels of value i, so a row's first feature names it
    pixels = [i for i in range(10) for _ in range(4)]
    ip, lp = write_idx_pair(tmp_path, pixels, [i % 2 for i in range(10)])
    spec = DatasetSpec(
        source="idx",
        n_classes=2,
        n_train=4,
        n_test=2,
        train_images_path=ip,
        train_labels_path=lp,
        test_images_path=ip,
        test_labels_path=lp,
    )
    train, test = build_dataset(spec, seed=0)
    assert np.array_equal(train.features[:, 0], np.arange(4) / 255.0)
    assert np.array_equal(train.labels, [0, 1, 0, 1])
    assert np.array_equal(test.features[:, 0], np.arange(2) / 255.0)


def test_build_dataset_idx(tmp_path):
    pixels = list(range(16))
    ip, lp = write_idx_pair(tmp_path, pixels, [0, 1, 1, 0])
    spec = DatasetSpec(
        source="idx",
        n_classes=2,
        n_train=3,
        n_test=2,
        train_images_path=ip,
        train_labels_path=lp,
        test_images_path=ip,
        test_labels_path=lp,
    )
    train, test = build_dataset(spec, seed=0)
    assert train.features.shape == (3, 4)
    assert test.features.shape == (2, 4)


def test_build_dataset_idx_checks_label_range(tmp_path):
    ip, lp = write_idx_pair(tmp_path, [0] * 8, [0, 7])
    spec = DatasetSpec(
        source="idx",
        n_classes=2,
        n_train=2,
        n_test=2,
        train_images_path=ip,
        train_labels_path=lp,
        test_images_path=ip,
        test_labels_path=lp,
    )
    with pytest.raises(DataError, match="out of range"):
        build_dataset(spec, seed=0)


def idx_spec(train, test):
    return DatasetSpec(
        source="idx",
        n_classes=2,
        n_train=2,
        n_test=2,
        train_images_path=train[0],
        train_labels_path=train[1],
        test_images_path=test[0],
        test_labels_path=test[1],
    )


def test_build_dataset_idx_checks_labels_past_the_kept_prefix(tmp_path):
    # only rows 0 and 1 are kept, but the whole labels file is checked
    ip, lp = write_idx_pair(tmp_path, [0] * 12, [0, 1, 7])
    with pytest.raises(DataError, match="train label 7 out of range for 2 classes"):
        build_dataset(idx_spec((ip, lp), (ip, lp)), seed=0)


def test_build_dataset_idx_converts_only_the_rows_it_keeps(tmp_path):
    count, rows, cols = 4000, 28, 28
    pixels = np.random.default_rng(0).integers(0, 256, count * rows * cols, dtype=np.uint8)
    ip, lp = write_idx_pair(
        tmp_path, pixels.tobytes(), [i % 10 for i in range(count)], rows=rows, cols=cols
    )
    spec = dataclasses.replace(idx_spec((ip, lp), (ip, lp)), n_classes=10, n_train=16, n_test=16)
    tracemalloc.start()
    try:
        train, test = build_dataset(spec, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a whole-file float64 conversion alone would be 8x the images file
    images_bytes = (tmp_path / "images-idx3-ubyte").stat().st_size
    assert peak < 2 * images_bytes
    whole = pixels.astype(np.float64).reshape(count, rows * cols) / 255.0
    for split in (train, test):
        assert split.features.dtype == np.float64
        assert split.features.tobytes() == whole[:16].tobytes()
        assert np.array_equal(split.labels, np.arange(16) % 10)


def test_build_dataset_idx_rejects_a_feature_width_mismatch(tmp_path):
    (tmp_path / "train").mkdir()
    (tmp_path / "test").mkdir()
    train = write_idx_pair(tmp_path / "train", [0] * 8, [0, 1])
    test = write_idx_pair(tmp_path / "test", [0] * 18, [0, 1], rows=3, cols=3)
    with pytest.raises(DataError, match="train has 4 features but test has 9"):
        build_dataset(idx_spec(train, test), seed=0)


def test_build_dataset_idx_rejects_an_empty_file(tmp_path):
    empty = write_idx_pair(tmp_path, [], [])
    with pytest.raises(DataError, match="only 0 available"):
        build_dataset(idx_spec(empty, empty), seed=0)


def test_dataset_len():
    d = Dataset(np.zeros((5, 2)), np.zeros(5, dtype=np.int64))
    assert len(d) == 5
