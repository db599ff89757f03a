"""Experiment harness: config round trips, training runs, JSONL results."""

import dataclasses
import json

import numpy as np
import pytest

from eps_softmax import experiment, mlp
from eps_softmax.cli import default_config
from eps_softmax.data import DatasetSpec
from eps_softmax.errors import ConfigError, DataError, TrainingDiverged
from eps_softmax.experiment import (
    ExperimentConfig,
    config_from_dict,
    config_to_dict,
    emit_results,
    load_config_file,
    read_results,
    run_experiment,
)
from eps_softmax.losses import LossSpec
from eps_softmax.mlp import MlpSpec, OptimSpec, ParamSet
from eps_softmax.noise import NoiseSpec


def tiny_config(**overrides) -> ExperimentConfig:
    base = ExperimentConfig(
        dataset=DatasetSpec(source="blobs", n_classes=3, n_train=90, n_test=30, dim=4),
        mlp=MlpSpec((4, 8, 3), init_seed=0),
        loss=LossSpec("ce"),
        noise=NoiseSpec("symmetric", eta=0.2, n_classes=3, seed=0),
        optim=OptimSpec(epochs=3, batch_size=32),
        seed=0,
    )
    return dataclasses.replace(base, **overrides)


# ---------------------------------------------------------------------------
# Config validation and (de)serialization
# ---------------------------------------------------------------------------


def test_validate_catches_class_count_mismatches():
    # the config checks itself when it is built
    with pytest.raises(ConfigError, match="mlp output"):
        tiny_config(mlp=MlpSpec((4, 8, 5)))
    with pytest.raises(ConfigError, match="noise n_classes"):
        tiny_config(noise=NoiseSpec("symmetric", eta=0.2, n_classes=4))
    with pytest.raises(ConfigError, match="input size"):
        tiny_config(mlp=MlpSpec((5, 8, 3)))
    tiny_config()


def test_config_dict_round_trip():
    config = tiny_config()
    raw = config_to_dict(config)
    assert config_from_dict(raw) == config
    # the dict is JSON-serializable as-is
    assert config_from_dict(json.loads(json.dumps(raw))) == config


def test_config_from_dict_missing_section():
    raw = config_to_dict(tiny_config())
    del raw["loss"]
    with pytest.raises(ConfigError, match="missing the 'loss'"):
        config_from_dict(raw)


def test_config_from_dict_rejects_non_object_sections():
    raw = config_to_dict(tiny_config())
    raw["optim"] = 7
    with pytest.raises(ConfigError, match="'optim' must be an object"):
        config_from_dict(raw)


def test_config_from_dict_rejects_unknown_keys():
    raw = config_to_dict(tiny_config())
    raw["optimizer"] = {}
    with pytest.raises(ConfigError, match="unknown config keys"):
        config_from_dict(raw)


def test_config_from_dict_rejects_unknown_fields_inside_a_section():
    raw = config_to_dict(tiny_config())
    raw["optim"]["lr"] = 0.1
    with pytest.raises(ConfigError, match="section 'optim'"):
        config_from_dict(raw)


def test_config_dict_holds_the_experiment_only():
    # where a run's results go is the caller's choice, not part of its config;
    # results embed these keys in this order
    keys = ["dataset", "mlp", "loss", "noise", "optim", "seed"]
    assert list(config_to_dict(tiny_config())) == keys


#: every float field of every spec, with arguments that make the rest valid;
#: kind "ce" reads none of the loss fields, so the check does not depend on it
SPEC_FLOAT_FIELDS = [
    (DatasetSpec, {"source": "blobs", "n_classes": 4, "n_train": 8, "n_test": 8, "dim": 2},
     "separation"),
    *((LossSpec, {"kind": "ce"}, name) for name in ("m", "alpha", "beta", "gamma", "q", "A")),
    (NoiseSpec, {"kind": "symmetric", "n_classes": 4}, "eta"),
    *((OptimSpec, {}, name) for name in ("lr0", "momentum", "weight_decay", "clip_norm")),
]


def test_spec_float_fields_are_all_listed():
    listed = {(cls, name) for cls, _, name in SPEC_FLOAT_FIELDS}
    found = {
        (cls, f.name)
        for cls in (DatasetSpec, LossSpec, NoiseSpec, OptimSpec)
        for f in dataclasses.fields(cls)
        if f.type == "float"
    }
    assert listed == found


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize(
    "cls, kwargs, name", SPEC_FLOAT_FIELDS, ids=[f"{c.__name__}.{n}" for c, _, n in SPEC_FLOAT_FIELDS]
)
def test_specs_refuse_non_finite_floats(cls, kwargs, name, value):
    if (name, value) == ("clip_norm", float("inf")):
        assert cls(**kwargs, clip_norm=value).clip_norm == value  # documented: no clipping
        return
    with pytest.raises(ConfigError, match=f"^{name} must be finite, got {value}$"):
        cls(**kwargs, **{name: value})


def test_config_from_dict_rejects_non_dict_root():
    with pytest.raises(ConfigError, match="root"):
        config_from_dict([1, 2, 3])


def test_load_config_file(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config_to_dict(tiny_config())), encoding="utf-8")
    assert load_config_file(str(path)) == tiny_config()


def test_load_config_file_bad_json(tmp_path):
    path = tmp_path / "config.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(ConfigError, match="invalid JSON"):
        load_config_file(str(path))


def test_load_config_file_missing_file(tmp_path):
    with pytest.raises(OSError):
        load_config_file(str(tmp_path / "nope.json"))


# ---------------------------------------------------------------------------
# Training runs
# ---------------------------------------------------------------------------


def test_run_experiment_produces_one_record_per_epoch():
    records, summary = run_experiment(tiny_config())
    assert [r.epoch for r in records] == [0, 1, 2]
    assert summary["summary"] is True
    assert summary["n_train"] == 90
    assert summary["n_test"] == 30
    assert summary["last_test_top1"] == records[-1].test_top1
    assert summary["best_test_top1"] == max(r.test_top1 for r in records)
    assert summary["n_flipped"] == len(summary["flipped_indices"])
    assert summary["realized_noise_rate"] == pytest.approx(
        summary["n_flipped"] / 90.0
    )


def test_run_experiment_learns_the_easy_task():
    config = tiny_config(
        noise=NoiseSpec("none", n_classes=3, seed=0),
        optim=OptimSpec(epochs=10, batch_size=32),
    )
    _, summary = run_experiment(config)
    assert summary["last_test_top1"] >= 0.9


def test_run_experiment_is_deterministic():
    a_records, a_summary = run_experiment(tiny_config())
    b_records, b_summary = run_experiment(tiny_config())
    for a, b in zip(a_records, b_records):
        assert a.train_loss == b.train_loss
        assert a.test_top1 == b.test_top1
        assert a.test_topk_errors == b.test_topk_errors
    a_summary.pop("config"), b_summary.pop("config")
    assert a_summary == b_summary


def test_run_experiment_seed_changes_the_run():
    _, a = run_experiment(tiny_config())
    _, b = run_experiment(tiny_config(seed=1, mlp=MlpSpec((4, 8, 3), init_seed=1)))
    assert a["final_train_loss"] != b["final_train_loss"]


def test_run_experiment_invokes_the_callback():
    seen = []
    run_experiment(tiny_config(), on_epoch=seen.append)
    assert [r.epoch for r in seen] == [0, 1, 2]


def test_run_experiment_validates_first():
    with pytest.raises(ConfigError):
        run_experiment(tiny_config(mlp=MlpSpec((4, 8, 7))))


def test_lr_schedule_lands_in_the_records():
    records, _ = run_experiment(tiny_config())
    assert records[0].lr == 0.01
    assert records[1].lr < records[0].lr


def test_run_experiment_stops_on_a_non_finite_loss():
    config = dataclasses.replace(
        default_config(0), optim=OptimSpec(lr0=1e6, clip_norm=1e12, epochs=5)
    )
    with pytest.raises(TrainingDiverged, match=r"epoch 2, step 47: batch loss sum is nan"):
        run_experiment(config)


def test_run_experiment_stops_on_non_finite_test_logits():
    # one step per epoch: the first loss is finite, the update overflows the weights
    config = tiny_config(optim=OptimSpec(lr0=1e300, clip_norm=1e12, epochs=2, batch_size=90))
    with pytest.raises(TrainingDiverged, match="epoch 0, after step 0: logits are not finite"):
        run_experiment(config)


# bench/tracing.py times the training loop by replacing these names on
# eps_softmax.experiment, so the loop must look each of them up there
TRACED_NAMES = (
    "build_dataset",
    "corrupt_labels",
    "init_params",
    "forward",
    "batch_loss",
    "backward",
    "clip_grad_norm",
    "sgd_step",
    "evaluate",
)


def test_the_training_loop_calls_every_name_the_benchmark_wraps(monkeypatch):
    calls = dict.fromkeys(TRACED_NAMES, 0)
    clip_results = []
    for name in TRACED_NAMES:

        def counted(*args, _name=name, _original=getattr(experiment, name), **kwargs):
            calls[_name] += 1
            result = _original(*args, **kwargs)
            if _name == "clip_grad_norm":
                clip_results.append(result)
            return result

        monkeypatch.setattr(experiment, name, counted)
    run_experiment(tiny_config())  # 3 epochs of 3 batches
    assert calls == {
        **dict.fromkeys(TRACED_NAMES, 9),
        "build_dataset": 1,
        "corrupt_labels": 1,
        "init_params": 1,
        "evaluate": 3,
    }
    # the tracer reads the applied scale off clip_grad_norm's result
    for grads, scale in clip_results:
        assert isinstance(grads, ParamSet) and isinstance(scale, float)


# ---------------------------------------------------------------------------
# BLAS threads
# ---------------------------------------------------------------------------


def blas_threads() -> int:
    return mlp._openblas().scipy_openblas_get_num_threads64_()


@pytest.fixture
def two_blas_threads():
    """The process at 2 OpenBLAS threads for the test, then at its own count
    again; skips where numpy does not bundle scipy-openblas."""
    own = mlp.set_blas_threads(2)
    if own is None:
        pytest.skip("numpy does not bundle scipy-openblas here")
    try:
        if blas_threads() != 2:
            pytest.skip("OpenBLAS here cannot run 2 threads")
        yield
    finally:
        mlp.set_blas_threads(own)


def threads_seen_by_train_step(monkeypatch) -> set:
    seen = set()

    def spy(*args, _original=experiment.train_step):
        seen.add(blas_threads())
        return _original(*args)

    monkeypatch.setattr(experiment, "train_step", spy)
    return seen


def small_default_config(**optim) -> ExperimentConfig:
    return dataclasses.replace(
        default_config(0),
        dataset=DatasetSpec(source="blobs", n_classes=4, n_train=300, n_test=100, dim=8),
        optim=OptimSpec(epochs=2, **optim),
    )


def test_a_run_below_the_threshold_trains_at_one_blas_thread(two_blas_threads, monkeypatch):
    seen = threads_seen_by_train_step(monkeypatch)
    run_experiment(small_default_config())  # 128 x 64 x 64 = 2**19 multiply-adds
    assert seen == {1}
    assert blas_threads() == 2


def test_a_run_at_the_threshold_keeps_the_process_thread_count(two_blas_threads, monkeypatch):
    seen = threads_seen_by_train_step(monkeypatch)
    config = small_default_config(batch_size=8)
    config = dataclasses.replace(config, mlp=MlpSpec((8, 512, 512, 4)))
    assert 8 * 512 * 512 == 2 * mlp.ONE_THREAD_BELOW
    run_experiment(config)
    assert seen == {2}
    assert blas_threads() == 2


def test_a_diverging_run_restores_the_blas_thread_count(two_blas_threads, monkeypatch):
    seen = threads_seen_by_train_step(monkeypatch)
    config = tiny_config(optim=OptimSpec(lr0=1e300, clip_norm=1e12, epochs=2, batch_size=90))
    with pytest.raises(TrainingDiverged):
        run_experiment(config)
    assert seen == {1}
    assert blas_threads() == 2


def test_the_blas_thread_count_picks_no_different_bits(two_blas_threads, monkeypatch):
    one_thread = run_experiment(small_default_config())
    monkeypatch.setattr(mlp, "ONE_THREAD_BELOW", 0)
    seen = threads_seen_by_train_step(monkeypatch)
    own_threads = run_experiment(small_default_config())
    assert seen == {2}
    for a, b in zip(one_thread[0], own_threads[0]):
        assert dataclasses.replace(a, wall_time_ms=0.0) == dataclasses.replace(b, wall_time_ms=0.0)
    assert one_thread[1] == own_threads[1]


def test_blas_threads_for_does_nothing_without_the_bundled_openblas(two_blas_threads, monkeypatch):
    lib = mlp._openblas()
    monkeypatch.setattr(mlp, "_openblas", lambda: None)
    with mlp.blas_threads_for((8, 64, 64, 4), 128):
        assert lib.scipy_openblas_get_num_threads64_() == 2
    assert lib.scipy_openblas_get_num_threads64_() == 2


def test_blas_threads_for_restores_the_count_after_an_exception(two_blas_threads):
    with pytest.raises(RuntimeError, match="inside"):
        with mlp.blas_threads_for((8, 64, 64, 4), 128):
            assert blas_threads() == 1
            raise RuntimeError("inside")
    assert blas_threads() == 2


# ---------------------------------------------------------------------------
# Results files
# ---------------------------------------------------------------------------


def test_emit_and_read_round_trip(tmp_path):
    records, summary = run_experiment(tiny_config())
    path = str(tmp_path / "run.jsonl")
    emit_results(records, summary, path)
    got_records, got_summary = read_results(path)
    assert len(got_records) == len(records)
    for a, b in zip(got_records, records):
        assert a.epoch == b.epoch
        assert a.lr == b.lr
        assert a.train_loss == b.train_loss
        assert a.test_top1 == b.test_top1
        assert a.test_topk_errors == b.test_topk_errors
        # wall time is measured in memory but never serialized
        assert a.wall_time_ms == 0.0
    assert got_summary == summary


def test_emit_refuses_to_overwrite(tmp_path):
    records, summary = run_experiment(tiny_config())
    path = str(tmp_path / "run.jsonl")
    emit_results(records, summary, path)
    with pytest.raises(DataError, match="refusing to overwrite"):
        emit_results(records, summary, path)


def test_emit_reports_unwritable_paths(tmp_path):
    records, summary = run_experiment(tiny_config())
    with pytest.raises(DataError, match="cannot write"):
        emit_results(records, summary, str(tmp_path / "missing" / "run.jsonl"))


def test_emit_refuses_non_finite_values(tmp_path):
    records, summary = run_experiment(tiny_config())
    summary["final_train_loss"] = float("nan")
    path = tmp_path / "run.jsonl"
    with pytest.raises(DataError, match="refusing to write"):
        emit_results(records, summary, str(path))
    assert not path.exists()


def test_emitted_files_have_no_wall_time(tmp_path):
    records, summary = run_experiment(tiny_config())
    path = tmp_path / "run.jsonl"
    emit_results(records, summary, str(path))
    for line in path.read_text(encoding="utf-8").splitlines():
        assert "wall_time" not in line


RECORD_LINE = (
    '{"epoch": 0, "lr": 0.01, "train_loss": 1.0, "test_top1": 0.5,'
    ' "test_topk_errors": [0.5]}'
)


def test_read_results_rejects_blank_lines(tmp_path):
    path = tmp_path / "run.jsonl"
    path.write_text(RECORD_LINE + "\n\n", encoding="utf-8")
    with pytest.raises(DataError, match="line 2"):
        read_results(str(path))


def test_read_results_rejects_malformed_records(tmp_path):
    path = tmp_path / "run.jsonl"
    path.write_text('{"epoch": 0}\n', encoding="utf-8")
    with pytest.raises(DataError, match="not a valid epoch record"):
        read_results(str(path))


@pytest.mark.parametrize("line", ["[1, 2]", "3", '"summary"'])
def test_read_results_rejects_lines_that_are_not_objects(tmp_path, line):
    path = tmp_path / "run.jsonl"
    path.write_text(RECORD_LINE + "\n" + line + "\n", encoding="utf-8")
    with pytest.raises(DataError, match="line 2: not a JSON object"):
        read_results(str(path))


def test_read_results_rejects_text_that_is_not_utf8(tmp_path):
    path = tmp_path / "run.jsonl"
    path.write_bytes(b"\xff\xfe\x00\n")
    with pytest.raises(DataError, match="not UTF-8"):
        read_results(str(path))


def test_read_results_rejects_bad_json(tmp_path):
    path = tmp_path / "run.jsonl"
    path.write_text("{oops}\n", encoding="utf-8")
    with pytest.raises(DataError, match="line 1"):
        read_results(str(path))


def test_read_results_requires_a_summary(tmp_path):
    records, summary = run_experiment(tiny_config())
    path = tmp_path / "run.jsonl"
    emit_results(records, summary, str(path))
    lines = path.read_text(encoding="utf-8").splitlines()
    trimmed = tmp_path / "trimmed.jsonl"
    trimmed.write_text("\n".join(lines[:-1]) + "\n", encoding="utf-8")
    with pytest.raises(DataError, match="missing summary"):
        read_results(str(trimmed))
