"""Experiment harness: config round trips, training runs, JSONL results."""

import dataclasses
import json
import math
import re
import tracemalloc

import numpy as np
import pytest

from eps_softmax import experiment, mlp
from eps_softmax.cli import default_config
from eps_softmax.data import DatasetSpec, build_dataset
from eps_softmax.errors import FIELD_RULES, ConfigError, DataError, TrainingDiverged
from eps_softmax.experiment import (
    EpochRecord,
    ExperimentConfig,
    RunSummary,
    config_from_dict,
    config_to_dict,
    emit_results,
    load_config_file,
    read_results,
    run_experiment,
)
from eps_softmax.losses import LossSpec
from eps_softmax.mlp import MlpSpec, OptimSpec, ParamSet, Workspace, init_params, zeros_like_params
from eps_softmax.noise import NoiseSpec, corrupt_labels


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


def test_config_from_dict_names_a_sections_unknown_and_missing_keys_in_config_words():
    raw = config_to_dict(tiny_config())
    raw["optim"]["lr"] = 0.1
    with pytest.raises(ConfigError) as unknown:
        config_from_dict(raw)
    raw = config_to_dict(tiny_config())
    del raw["dataset"]["source"]
    with pytest.raises(ConfigError) as missing:
        config_from_dict(raw)
    assert str(unknown.value) == "unknown config keys in section 'optim': ['lr']"
    assert str(missing.value) == "missing config keys in section 'dataset': ['source']"
    assert "__init__" not in str(unknown.value) + str(missing.value)
    # a library caller's dict may mix keys that are not strings with ones that are
    raw = config_to_dict(tiny_config())
    raw["optim"].update({1: 2, "lr": 0.1})
    raw.update({2: 3, "x": 4})
    with pytest.raises(ConfigError, match=r"in section 'optim': \[1, 'lr'\]"):
        config_from_dict(raw)
    del raw["optim"][1], raw["optim"]["lr"]
    with pytest.raises(ConfigError, match=r"unknown config keys: \[2, 'x'\]"):
        config_from_dict(raw)


def test_config_from_dict_refuses_a_config_without_a_seed():
    raw = config_to_dict(tiny_config(seed=3))
    del raw["seed"]
    with pytest.raises(ConfigError, match=r"^missing config keys: \['seed'\]$"):
        config_from_dict(raw)
    # a library caller may still leave it to its default
    c = tiny_config()
    assert ExperimentConfig(c.dataset, c.mlp, c.loss, c.noise, c.optim).seed == 0


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


def test_every_spec_field_has_a_rule():
    # check_fields looks each annotation up in FIELD_RULES, so a field whose
    # annotation has no rule would fail to build rather than go unchecked
    annotations = {
        f.type
        for cls in (
            DatasetSpec, MlpSpec, LossSpec, NoiseSpec, OptimSpec, ExperimentConfig,
            EpochRecord, RunSummary,
        )
        for f in dataclasses.fields(cls)
        if cls is not ExperimentConfig or f.name == "seed"
    }
    assert annotations == set(FIELD_RULES)


@pytest.mark.parametrize(
    "build, field, rule",
    [
        (lambda: MlpSpec((8, 64.5, 4)), "layer_sizes", "integers"),
        (lambda: MlpSpec((np.int64(8), 4)), "layer_sizes", "integers"),
        (lambda: OptimSpec(epochs=2.5), "epochs", "integer"),
        (lambda: OptimSpec(epochs=True), "epochs", "integer"),
        (lambda: OptimSpec(batch_size=np.int64(64)), "batch_size", "integer"),
        (lambda: OptimSpec(lr0=10**400), "lr0", "finite"),
        (lambda: OptimSpec(lr0="0.01"), "lr0", "finite"),
        (lambda: LossSpec("ce_eps", m=10**400), "m", "finite"),
        (lambda: NoiseSpec("symmetric", n_classes=4.0), "n_classes", "integer"),
        (lambda: tiny_config(seed=1.5), "seed", "integer"),
    ],
    ids=["MlpSpec.fraction", "MlpSpec.numpy_int", "OptimSpec.fraction", "OptimSpec.bool",
         "OptimSpec.numpy_int", "OptimSpec.huge_int", "OptimSpec.string", "LossSpec.huge_int",
         "NoiseSpec.float_count", "ExperimentConfig.seed"],
)
def test_library_specs_check_every_field_by_its_rule(build, field, rule):
    # a library caller gets the rule a config file gets: no cast, no later traceback
    with pytest.raises(ConfigError, match=f"^{field} must be .*{rule}.*, got ") as info:
        build()
    assert "config section" not in str(info.value)


def test_a_spec_stores_an_integer_and_a_numpy_float_as_a_float():
    assert OptimSpec(lr0=1).lr0 == 1 and type(OptimSpec(lr0=1).lr0) is float
    assert LossSpec("ce_eps", m=np.float64(10.0)).m == 10.0
    assert type(LossSpec("ce_eps", m=np.float64(10.0)).m) is float
    assert MlpSpec([8, 4]).layer_sizes == (8, 4)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize(
    "cls, kwargs, name", SPEC_FLOAT_FIELDS, ids=[f"{c.__name__}.{n}" for c, _, n in SPEC_FLOAT_FIELDS]
)
def test_specs_refuse_non_finite_floats(cls, kwargs, name, value):
    with pytest.raises(ConfigError, match=f"^{name} must be a finite number, got {value}$"):
        cls(**kwargs, **{name: value})


@pytest.mark.parametrize(
    "cls, kwargs, name", SPEC_FLOAT_FIELDS, ids=[f"{c.__name__}.{n}" for c, _, n in SPEC_FLOAT_FIELDS]
)
def test_specs_refuse_a_negative_zero_float(cls, kwargs, name):
    # -0.0 == 0.0, so a spec that kept it would equal the spec at 0.0 yet be
    # written as -0.0 into its results
    with pytest.raises(ConfigError, match=f"^{name} must not be -0.0$"):
        cls(**kwargs, **{name: -0.0})


def test_config_from_dict_rejects_non_dict_root():
    with pytest.raises(ConfigError, match="root"):
        config_from_dict([1, 2, 3])


def test_load_config_file(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config_to_dict(tiny_config())), encoding="utf-8")
    assert load_config_file(str(path)) == config_to_dict(tiny_config())


@pytest.mark.parametrize("number", ["1e400", "-1e400", "Infinity", "NaN"])
def test_load_config_file_refuses_a_number_that_is_not_finite(tmp_path, number):
    # json reads 1e400 and Infinity as inf and NaN as nan; the float rule refuses each
    text = json.dumps(config_to_dict(tiny_config()))
    path = tmp_path / "config.json"
    path.write_text(text.replace('"clip_norm": 5.0', f'"clip_norm": {number}'), encoding="utf-8")
    with pytest.raises(ConfigError, match="^config section 'optim': clip_norm must be a finite"):
        load_config_file(str(path))


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
    config = tiny_config()
    records, summary = run_experiment(config)
    assert [r.epoch for r in records] == [0, 1, 2]
    assert isinstance(summary, RunSummary)
    assert summary.n_train == 90
    assert summary.n_test == 30
    assert summary.last_test_top1 == records[-1].test_top1
    assert summary.best_test_top1 == max(r.test_top1 for r in records)
    # the flips are where corrupt_labels' copy differs from the clean labels,
    # and the rate is bitwise the mean of that mask
    clean = build_dataset(config.dataset, config.seed)[0].labels
    flip_mask = corrupt_labels(clean, config.noise) != clean
    assert summary.flipped_indices == np.flatnonzero(flip_mask).tolist()
    assert summary.n_flipped == len(summary.flipped_indices) > 0
    assert summary.realized_noise_rate == flip_mask.mean()


def test_run_experiment_learns_the_easy_task():
    config = tiny_config(
        noise=NoiseSpec("none", n_classes=3, seed=0),
        optim=OptimSpec(epochs=10, batch_size=32),
    )
    _, summary = run_experiment(config)
    assert summary.last_test_top1 >= 0.9


def test_run_experiment_is_deterministic():
    a_records, a_summary = run_experiment(tiny_config())
    b_records, b_summary = run_experiment(tiny_config())
    for a, b in zip(a_records, b_records):
        assert a.train_loss == b.train_loss
        assert a.test_top1 == b.test_top1
    assert a_summary == b_summary


def test_run_experiment_seed_changes_the_run():
    _, a = run_experiment(tiny_config())
    _, b = run_experiment(tiny_config(seed=1, mlp=MlpSpec((4, 8, 3), init_seed=1)))
    assert a.final_train_loss != b.final_train_loss


def test_run_experiment_invokes_the_callback():
    seen = []
    run_experiment(tiny_config(), on_epoch=seen.append)
    assert [r.epoch for r in seen] == [0, 1, 2]


def test_run_experiment_validates_first():
    with pytest.raises(ConfigError):
        run_experiment(tiny_config(mlp=MlpSpec((4, 8, 7))))


def test_a_warm_train_step_allocates_no_parameter_sized_array():
    """The workspace holds every buffer of a step: the layer outputs, the
    gradients and the clip and update scratch, which shares the outputs' arena."""
    rng = np.random.default_rng(0)
    params = init_params(MlpSpec((128, 512, 512, 10), init_seed=0))
    velocity = zeros_like_params(params)
    ws = Workspace(params.layer_sizes, 512)
    x, y = rng.standard_normal((512, 128)), rng.integers(0, 10, size=512)
    optim = OptimSpec(clip_norm=1e-3, batch_size=512)  # the clip fires
    args = (params, velocity, ws, x, y, LossSpec("ce"), 0.01, optim)
    experiment.train_step(*args)  # cold: the workspace caches its batch views
    tracemalloc.start()
    try:
        experiment.train_step(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < params.flat.nbytes / 10


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
    summary.final_train_loss = float("nan")
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


RECORD_LINE = '{"epoch": 0, "lr": 0.01, "train_loss": 1.0, "test_top1": 0.5}'
SUMMARY = RunSummary(
    config={}, n_train=2, n_test=2, realized_noise_rate=0.5, n_flipped=1, flipped_indices=[1],
    last_test_top1=0.5, best_test_top1=0.5, best_epoch=0, final_train_loss=1.0,
)
SUMMARY_LINE = json.dumps({"summary": True, **dataclasses.asdict(SUMMARY)})


def test_read_results_reads_a_record_line_that_holds_topk_errors(tmp_path):
    # files written before the record lost its top-k errors still read, as the
    # same record; any other extra member is refused
    path = tmp_path / "run.jsonl"
    old = RECORD_LINE[:-1] + ', "test_topk_errors": [0.5, 0.25, 0.0, 0.0]}'
    path.write_text(f"{old}\n{SUMMARY_LINE}\n", encoding="utf-8")
    assert read_results(str(path)) == ([EpochRecord(0, 0.01, 1.0, 0.5)], SUMMARY)
    path.write_text(RECORD_LINE[:-1] + ', "test_top5": 1.0}\n', encoding="utf-8")
    with pytest.raises(DataError, match="not a valid epoch record"):
        read_results(str(path))


def test_read_results_refuses_a_record_line_that_emit_results_never_writes(tmp_path):
    path = tmp_path / "run.jsonl"
    line = '{"epoch": "x", "lr": null, "train_loss": [1], "test_top1": "0.5", "wall_time_ms": 7}'
    path.write_text(f"{line}\n{SUMMARY_LINE}\n", encoding="utf-8")
    with pytest.raises(DataError, match=r"run.jsonl: line 1: not a valid epoch record.*'wall_time_ms'"):
        read_results(str(path))
    path.write_text(line.replace(', "wall_time_ms": 7', "") + f"\n{SUMMARY_LINE}\n", encoding="utf-8")
    with pytest.raises(DataError, match=r"run.jsonl: line 1: epoch must be an integer"):
        read_results(str(path))


@pytest.mark.parametrize(
    "member, value",
    [("epoch", "x"), ("epoch", 1.0), ("epoch", True), ("lr", None), ("train_loss", [1]),
     ("test_top1", "0.5"), ("test_top1", math.nan)],
)
def test_read_results_checks_each_record_member_against_its_annotation(tmp_path, member, value):
    path = tmp_path / "run.jsonl"
    record = json.dumps({**json.loads(RECORD_LINE), member: value})
    path.write_text(f"{RECORD_LINE}\n{record}\n{SUMMARY_LINE}\n", encoding="utf-8")
    with pytest.raises(DataError, match=rf"run.jsonl: line 2: {member} must be .*, got {re.escape(repr(value))}$"):
        read_results(str(path))


@pytest.mark.parametrize(
    "member, value",
    [("best_test_top1", "x"), ("best_test_top1", math.nan), ("n_flipped", 1.5),
     ("flipped_indices", [1.5]), ("config", [])],
)
def test_read_results_checks_each_summary_member_against_its_annotation(tmp_path, member, value):
    path = tmp_path / "run.jsonl"
    summary = json.dumps({**json.loads(SUMMARY_LINE), member: value})
    path.write_text(f"{RECORD_LINE}\n{summary}\n", encoding="utf-8")
    with pytest.raises(DataError, match=rf"run.jsonl: line 2: {member} must be .*, got {re.escape(repr(value))}$"):
        read_results(str(path))


@pytest.mark.parametrize(
    "summary, what",
    [({"summary": True}, "summary"),
     ({**json.loads(SUMMARY_LINE), "wall_time_ms": 7}, "summary"),
     ({**json.loads(SUMMARY_LINE), "summary": 1}, "epoch record")],
    ids=["the tag alone", "an extra member", "a tag that is not true"],
)
def test_read_results_refuses_a_summary_line_that_emit_results_never_writes(tmp_path, summary, what):
    path = tmp_path / "run.jsonl"
    path.write_text(f"{RECORD_LINE}\n{json.dumps(summary)}\n", encoding="utf-8")
    with pytest.raises(DataError, match=f"run.jsonl: line 2: not a valid {what}: its members are"):
        read_results(str(path))


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


@pytest.mark.parametrize(
    "last", [SUMMARY_LINE, RECORD_LINE], ids=["a second summary", "a record"]
)
def test_read_results_refuses_a_line_after_the_summary(tmp_path, last):
    path = tmp_path / "run.jsonl"
    path.write_text(f"{RECORD_LINE}\n{SUMMARY_LINE}\n{last}\n", encoding="utf-8")
    with pytest.raises(DataError, match="line 3: a line after the summary line"):
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
