"""Command-line interface: config merging, subcommands, exit codes."""

import argparse
import dataclasses
import functools
import json
import math
import os
import struct
import subprocess
import sys
import warnings

import pytest

import eps_softmax
import eps_softmax.cli as cli_mod
from eps_softmax import mlp
from eps_softmax.cli import build_config, default_config, main
from eps_softmax.errors import ConfigError
from eps_softmax.experiment import config_to_dict, load_config_file, read_results
from eps_softmax.losses import LossSpec
from eps_softmax.mlp import MlpSpec, OptimSpec
from eps_softmax.noise import NoiseSpec


def parse_train(argv):
    # mirror the real train subparser so build_config sees familiar namespaces
    import eps_softmax.cli as cli_mod

    parser = argparse.ArgumentParser()
    sub = parser.add_subparsers(dest="command", required=True)
    p_train = sub.add_parser("train")
    cli_mod._add_override_flags(p_train)
    p_train.add_argument("--out")
    p_train.add_argument("--log-every", type=int, default=10)
    return parser.parse_args(["train"] + argv)


def test_default_config_is_self_consistent():
    config = default_config(0)  # construction checks the sections agree
    assert config.dataset.n_classes == config.mlp.n_classes == config.noise.n_classes


def test_build_config_applies_flag_overrides():
    args = parse_train(
        ["--loss", "ce_eps_mae", "--m", "100", "--alpha", "0.1", "--epochs", "7"]
    )
    config = build_config(args)
    assert config.loss.kind == "ce_eps_mae"
    assert config.loss.m == 100.0
    assert config.loss.alpha == 0.1
    assert config.optim.epochs == 7


def test_build_config_seed_drives_init_and_noise():
    args = parse_train(["--seed", "11", "--noise-kind", "symmetric", "--eta", "0.2"])
    config = build_config(args)
    assert config.seed == 11
    assert config.mlp.init_seed == 11
    assert config.noise.seed == 11
    assert config.noise.kind == "symmetric"
    assert config.noise.eta == 0.2


def test_build_config_reads_file_then_flags_win(tmp_path):
    base = default_config(0)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config_to_dict(base)), encoding="utf-8")
    args = parse_train(["--config", str(path), "--epochs", "3"])
    config = build_config(args)
    assert config.optim.epochs == 3
    assert config.dataset == base.dataset


def test_build_config_layer_sizes_flag():
    args = parse_train(["--layer-sizes", "8,32,4"])
    config = build_config(args)
    assert config.mlp.layer_sizes == (8, 32, 4)
    with pytest.raises(ConfigError, match="bad --layer-sizes"):
        build_config(parse_train(["--layer-sizes", "8,x,4"]))


# (argv, attribute path, value): each override flag and every field it sets.
# Companion flags keep the config valid where one flag alone would not, and
# select a loss kind that reads the loss field and a noise rate above 0.
FLAG_CASES = [
    (["--loss", "gce"], "loss.kind", "gce"),
    (["--m", "3.5", "--loss", "ce_eps"], "loss.m", 3.5),
    (["--alpha", "0.25", "--loss", "ce_eps_mae"], "loss.alpha", 0.25),
    (["--beta", "2.5", "--loss", "ce_eps_mae"], "loss.beta", 2.5),
    (["--gamma", "1.5", "--loss", "fl"], "loss.gamma", 1.5),
    (["--q", "0.3", "--loss", "gce"], "loss.q", 0.3),
    (["--A", "-2", "--loss", "sce"], "loss.A", -2.0),
    (["--noise-kind", "symmetric", "--eta", "0.3"], "noise.kind", "symmetric"),
    (["--eta", "0.3", "--noise-kind", "symmetric"], "noise.eta", 0.3),
    (["--epochs", "7"], "optim.epochs", 7),
    (["--batch-size", "32"], "optim.batch_size", 32),
    (["--lr0", "0.05"], "optim.lr0", 0.05),
    (["--momentum", "0.5"], "optim.momentum", 0.5),
    (["--weight-decay", "0.001"], "optim.weight_decay", 0.001),
    (["--clip-norm", "2"], "optim.clip_norm", 2.0),
    (["--n-train", "300"], "dataset.n_train", 300),
    (["--n-test", "150"], "dataset.n_test", 150),
    (["--n-classes", "3", "--layer-sizes", "8,64,64,3"], "dataset.n_classes", 3),
    (["--n-classes", "3", "--layer-sizes", "8,64,64,3"], "noise.n_classes", 3),
    (["--dim", "5", "--layer-sizes", "5,64,64,4"], "dataset.dim", 5),
    (["--separation", "4"], "dataset.separation", 4.0),
    (["--layer-sizes", "8,16,4"], "mlp.layer_sizes", (8, 16, 4)),
    (["--seed", "9"], "seed", 9),
    (["--seed", "9"], "mlp.init_seed", 9),
    (["--seed", "9"], "noise.seed", 9),
]


def _field(config, path):
    return functools.reduce(getattr, path.split("."), config)


def _file_config():
    """A valid config whose every flagged field differs from the values
    FLAG_CASES sets and, where its kinds read it, from the defaults."""
    base = default_config(2)
    return dataclasses.replace(
        base,
        dataset=dataclasses.replace(base.dataset, n_train=400, n_test=200, separation=6.0),
        mlp=MlpSpec((8, 32, 4), init_seed=2),
        loss=LossSpec("sce", alpha=0.5, beta=1.5, A=-3.0),
        noise=NoiseSpec("asymmetric_shift", eta=0.2, n_classes=4, seed=2),
        optim=OptimSpec(lr0=0.02, momentum=0.8, weight_decay=2e-4, clip_norm=3.0, epochs=5,
                        batch_size=64),
    )


@pytest.mark.parametrize("from_file", [False, True], ids=["defaults", "config-file"])
@pytest.mark.parametrize(
    "argv, path, value", FLAG_CASES, ids=[f"{a[0]}-{p}" for a, p, _ in FLAG_CASES]
)
def test_every_override_flag_reaches_its_fields(tmp_path, argv, path, value, from_file):
    if from_file:
        base = _file_config()
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config_to_dict(base)), encoding="utf-8")
        argv = ["--config", str(config_path)] + argv
    else:
        base = default_config(0)
    assert _field(base, path) != value
    config = build_config(parse_train(argv))
    assert _field(config, path) == value
    # the file (or the defaults) still decides every field that no flag here
    # names and, for a loss field, that the built kind reads
    named = {p for a, p, _ in FLAG_CASES if a[0] in argv}
    for _, other, off in FLAG_CASES:
        section, _, name = other.partition(".")
        if section == "loss" and name != "kind":
            if getattr(dataclasses.replace(config.loss, **{name: off}), name) != off:
                continue  # the built kind does not read it
        if other not in named:
            assert _field(config, other) == _field(base, other), other


def test_a_config_file_keeps_the_loss_fields_its_kind_does_not_read_for_a_flags_kind(tmp_path):
    raw = config_to_dict(default_config())
    raw["loss"].update(m=1e4, alpha=0.1)  # fields that ce does not read
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    config = build_config(parse_train(["--config", str(path), "--loss", "ce_eps_mae"]))
    assert config.loss == LossSpec("ce_eps_mae", m=1e4, alpha=0.1)


def test_build_config_rejects_inconsistent_overrides():
    # shrinking the class count alone breaks the mlp output size
    with pytest.raises(ConfigError):
        build_config(parse_train(["--n-classes", "3"]))


@pytest.mark.parametrize("command", ["train", "sweep"])
@pytest.mark.parametrize("repair", [[], ["--layer-sizes", "8,64,64,4"]], ids=["alone", "repaired"])
def test_a_config_file_that_disagrees_with_itself_is_refused(
    tmp_path, capsys, monkeypatch, command, repair
):
    # a file must be consistent on its own: a flag that would repair it is
    # applied only to a valid file
    _no_runs(monkeypatch)
    raw = config_to_dict(default_config())
    raw["mlp"]["layer_sizes"] = [8, 64, 64, 3]
    config = tmp_path / "config.json"
    config.write_text(json.dumps(raw), encoding="utf-8")
    out = tmp_path / "x"
    dest = ["--out", str(out)] if command == "train" else ["--out-dir", str(out)]
    assert run_main([command, "--config", str(config), *repair, *dest]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: mlp output size 3 does not match n_classes 4\n"
    assert not out.exists()


def run_main(argv):
    return main(argv)


def test_train_writes_results_and_prints_summary(tmp_path, capsys):
    out = str(tmp_path / "run.jsonl")
    code = run_main(
        ["train", "--out", out, "--epochs", "2", "--n-train", "200", "--n-test", "100",
         "--log-every", "0"]
    )
    assert code == 0
    captured = capsys.readouterr()
    assert captured.err == ""  # --log-every 0 silences the progress lines
    printed = json.loads(captured.out.strip())
    assert printed["out"] == out
    records, summary = read_results(out)
    assert len(records) == 2
    assert printed["last_test_top1"] == summary.last_test_top1


def test_train_refuses_a_huge_class_count_in_one_error_line(tmp_path, capsys):
    # a dense K x K transition matrix at K = 10**9 would need 6.94 EiB
    out = tmp_path / "run.jsonl"
    big = "1000000000"
    code = run_main(["train", "--n-classes", big, "--n-train", big, "--n-test", big, "--out", str(out)])
    assert code == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert not out.exists()


def test_train_whose_labels_cannot_be_allocated_exits_in_one_error_line(tmp_path, capsys):
    # 2**55 int64 labels are 256 PiB, more than any 57-bit address space holds
    out = tmp_path / "run.jsonl"
    assert run_main(["train", "--n-train", str(2**55), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: Unable to allocate 256. PiB")
    assert not out.exists()


@pytest.mark.parametrize(
    "flags, field",
    [
        (["--n-train", str(2**62)], "dataset n_train"),
        (["--n-train", str(2**60)], "dataset n_train"),
        (["--n-test", str(2**62)], "dataset n_test"),
        (["--layer-sizes", f"8,{2**62},4"], "mlp layer_sizes"),
        (["--dim", "1", "--layer-sizes", "1,64,64,4", "--n-train", str(2**59), "--batch-size",
          str(2**59)], "optim batch_size"),
    ],
)
def test_train_refuses_an_array_past_numpys_size_limit_in_one_error_line(
    tmp_path, capsys, flags, field
):
    # numpy itself would raise a ValueError, which main does not catch
    out = tmp_path / "run.jsonl"
    assert run_main(["train", *flags, "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: {field} ")
    assert "past numpy's limit of 9223372036854775807" in lines[0]
    assert not out.exists()


@pytest.mark.parametrize("jobs, etas", [("1", "0"), ("2", "0,0.2")])
def test_a_failed_sweep_leaves_no_directory_it_made(tmp_path, capsys, jobs, etas):
    # 2**55 labels cannot be allocated: every cell fails after the directory is made
    out = tmp_path / "made" / "g"
    argv = ["sweep", "--losses", "ce", "--etas", etas, "--n-train", str(2**55), "--jobs", jobs,
            "--out-dir", str(out)]
    assert run_main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: Unable to allocate")
    assert not out.exists()
    assert not (tmp_path / "made").exists()  # every directory makedirs made goes


def test_a_failed_sweep_keeps_a_directory_it_found(tmp_path, capsys):
    out = tmp_path / "g"
    out.mkdir()
    argv = ["sweep", "--losses", "ce", "--etas", "0", "--n-train", str(2**55), "--jobs", "1",
            "--out-dir", str(out)]
    assert run_main(argv) == 1
    assert out.is_dir() and not any(out.iterdir())


def test_a_failed_sweep_keeps_its_directory_once_a_cell_finished(tmp_path, capsys, monkeypatch):
    original, calls = cli_mod._run_one, []

    def second_fails(job):
        calls.append(job)
        if len(calls) == 2:
            raise MemoryError("Unable to allocate the second cell")
        return original(job)

    monkeypatch.setattr(cli_mod, "_run_one", second_fails)
    out = tmp_path / "g"
    argv = ["sweep", "--losses", "ce", "--etas", "0,0.2", "--epochs", "1", "--n-train", "100",
            "--n-test", "50", "--jobs", "1", "--out-dir", str(out)]
    assert run_main(argv) == 1
    assert capsys.readouterr().err == "error: Unable to allocate the second cell\n"
    assert sorted(os.listdir(out)) == ["ce_eta0_seed0.jsonl"]


def test_train_refuses_a_negative_zero_eta_in_one_error_line(tmp_path, capsys):
    # -0 would train eta 0's run yet write "eta": -0.0 into its results
    out = tmp_path / "run.jsonl"
    argv = ["train", "--eta", "-0", "--epochs", "1", "--out", str(out)]
    assert run_main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: eta must not be -0.0\n"
    assert not out.exists()


def test_train_refuses_a_negative_zero_m_in_one_error_line(tmp_path, capsys):
    out = tmp_path / "run.jsonl"
    assert run_main(["train", "--m", "-0", "--epochs", "1", "--out", str(out)]) == 1
    assert capsys.readouterr() == ("", "error: m must not be -0.0\n")
    assert not out.exists()


def test_train_without_output_path_fails(capsys):
    code = run_main(["train", "--epochs", "1"])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_train_refuses_to_overwrite(tmp_path, capsys):
    out = str(tmp_path / "run.jsonl")
    argv = ["train", "--out", out, "--epochs", "1", "--n-train", "100", "--n-test", "50",
            "--log-every", "0"]
    assert run_main(argv) == 0
    assert run_main(argv) == 1
    assert "refusing to overwrite" in capsys.readouterr().err


def test_train_refuses_an_existing_file_before_training(tmp_path, capsys, monkeypatch):
    out = tmp_path / "run.jsonl"
    out.write_text("kept\n", encoding="utf-8")
    _no_runs(monkeypatch)
    assert run_main(["train", "--out", str(out)]) == 1
    assert "refusing to overwrite" in capsys.readouterr().err
    assert out.read_text(encoding="utf-8") == "kept\n"


def test_train_refuses_a_missing_directory_before_training(tmp_path, capsys, monkeypatch):
    out = tmp_path / "no_such_dir" / "run.jsonl"
    _no_runs(monkeypatch)
    assert run_main(["train", "--out", str(out)]) == 1
    assert "no_such_dir" in capsys.readouterr().err
    assert not out.parent.exists()


def test_train_that_diverges_exits_1_and_writes_nothing(tmp_path, capsys):
    out = tmp_path / "run.jsonl"
    argv = ["train", "--lr0", "1e6", "--clip-norm", "1e12", "--epochs", "5", "--out", str(out),
            "--log-every", "0"]
    assert run_main(argv) == 1
    assert not out.exists()
    assert "training diverged at epoch" in capsys.readouterr().err


def run_module(argv, *flags):
    src = os.path.dirname(os.path.dirname(eps_softmax.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    return subprocess.run([sys.executable, *flags, "-m", "eps_softmax", *argv],
                          env=env, capture_output=True, text=True, timeout=300)


def test_train_that_diverges_under_warnings_as_errors_prints_only_the_error_line(tmp_path):
    # numpy's overflow warnings must not turn into a traceback before the typed error
    out = tmp_path / "run.jsonl"
    done = run_module(["train", "--lr0", "1e300", "--epochs", "1", "--out", str(out)], "-W", "error")
    assert done.returncode == 1
    lines = done.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: training diverged"), done.stderr
    assert not out.exists()


@pytest.mark.parametrize("command", ["train", "sweep"])
def test_a_config_warning_under_warnings_as_errors_is_one_error_line(tmp_path, command):
    # eta 0.9 at K = 4 leaves the clean class without a plurality: NoiseSpec
    # refuses it, so -W error sees the same single error line as the default
    out = tmp_path / "x"
    if command == "train":
        argv = ["train", "--noise-kind", "symmetric", "--eta", "0.9", "--out", str(out)]
    else:
        argv = ["sweep", "--etas", "0,0.9", "--out-dir", str(out)]
    done = run_module(argv + ["--epochs", "1"], "-W", "error")
    assert done.returncode == 1
    assert done.stdout == ""
    lines = done.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: symmetric eta=0.9"), done.stderr
    assert not out.exists()


@pytest.mark.parametrize("command", ["train", "sweep"])
def test_a_drowned_clean_class_is_one_error_line_by_default(tmp_path, monkeypatch, command):
    for name in ("PYTHONWARNINGS", "PYTHONDEVMODE"):
        monkeypatch.delenv(name, raising=False)
    out = tmp_path / "x"
    if command == "train":
        argv = ["train", "--noise-kind", "symmetric", "--eta", "0.9", "--out", str(out)]
    else:
        argv = ["sweep", "--etas", "0,0.9", "--seeds", "0,1", "--out-dir", str(out)]
    done = run_module(argv + ["--epochs", "1"])
    assert done.returncode == 1
    assert done.stdout == ""
    assert done.stderr == (
        "error: symmetric eta=0.9 at K=4 leaves the clean class without a strict "
        "plurality: its dominance margin -0.2 is not positive\n"
    )
    assert not out.exists()


def test_a_drowned_clean_class_under_default_warnings_is_refused_before_training(
        tmp_path, monkeypatch, capsys):
    # the old symmetric warning let this run train; the refusal comes before any run starts
    _no_runs(monkeypatch)
    out = tmp_path / "x.jsonl"
    argv = ["train", "--noise-kind", "symmetric", "--eta", "0.9", "--epochs", "1",
            "--out", str(out)]
    with warnings.catch_warnings():
        warnings.simplefilter("default")
        assert main(argv) == 1
    assert capsys.readouterr().err.startswith("error: symmetric eta=0.9 at K=4")
    assert not out.exists()


def _drowned_config_file(tmp_path):
    # symmetric eta 0.9 at K = 4 leaves the clean class without a plurality
    raw = config_to_dict(default_config())
    raw["noise"].update(kind="symmetric", eta=0.9)
    path = tmp_path / "sym.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("flags", [[], ["--eta", "0.9"], ["--eta", "0.2"]])
def test_a_config_file_with_a_drowned_clean_class_is_refused(tmp_path, flags):
    # whatever the flags: the file is checked as it is read, like any other invalid field
    out = tmp_path / "x.jsonl"
    argv = ["train", "--config", _drowned_config_file(tmp_path), *flags, "--epochs", "1",
            "--log-every", "0", "--out", str(out)]
    done = run_module(argv)
    assert done.returncode == 1
    lines = done.stderr.splitlines()
    assert len(lines) == 1, done.stderr
    assert lines[0].startswith("error: config section 'noise': symmetric eta=0.9 at K=4")
    assert not out.exists()


def test_a_sweep_refuses_a_config_file_with_a_drowned_clean_class(tmp_path):
    out = tmp_path / "g"
    argv = ["sweep", "--config", _drowned_config_file(tmp_path), "--losses", "ce",
            "--etas", "0,0.2", "--epochs", "1", "--jobs", "1", "--out-dir", str(out)]
    done = run_module(argv)
    assert done.returncode == 1
    assert done.stdout == ""
    assert done.stderr.startswith("error: config section 'noise': symmetric eta=0.9"), done.stderr
    assert not out.exists()


def test_train_refuses_an_out_path_naming_no_file_before_training(monkeypatch, capsys):
    def no_run(*_args, **_kwargs):
        raise AssertionError("run_experiment was called")

    monkeypatch.setattr(cli_mod, "run_experiment", no_run)
    for out in ("", "results" + os.sep):
        assert main(["train", "--epochs", "1", "--out", out]) == 1
        assert capsys.readouterr().err == f"error: cannot write results to {out!r}: not a file name\n"


def test_train_progress_goes_to_stderr(tmp_path, capsys):
    out = str(tmp_path / "run.jsonl")
    code = run_main(
        ["train", "--out", out, "--epochs", "2", "--n-train", "100", "--n-test", "50",
         "--log-every", "1"]
    )
    assert code == 0
    captured = capsys.readouterr()
    assert "epoch" in captured.err
    assert "epoch" not in captured.out


def test_bad_flag_value_exits_1(tmp_path, capsys):
    out = str(tmp_path / "x.jsonl")
    code = run_main(["train", "--out", out, "--epochs", "0"])
    assert code == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["train", "--loss", "bogus"],
        ["train", "--epochs", "x"],
        ["verify", "--trials", "x"],
        [],
        ["train", "--epochs", str(10**400)],  # too large for int64
    ],
)
def test_usage_errors_exit_1_with_one_error_line(capsys, monkeypatch, argv):
    # exit 2 is what a failed verify or gradcheck returns; a bad flag is not one
    _no_runs(monkeypatch)
    assert run_main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), captured.err
    assert all(flag in lines[0] for flag in argv if flag.startswith("--"))


@pytest.mark.parametrize("argv", [["-h"], ["train", "-h"], ["sweep", "--help"]])
def test_help_exits_0(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        run_main(argv)
    assert exc.value.code == 0
    assert "usage:" in capsys.readouterr().out


def test_config_file_with_an_output_path_is_refused(tmp_path, capsys):
    raw = config_to_dict(default_config())
    raw["output_path"] = str(tmp_path / "elsewhere.jsonl")
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    out = tmp_path / "run.jsonl"
    assert run_main(["train", "--config", str(path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "'output_path'" in err
    assert not out.exists() and not (tmp_path / "elsewhere.jsonl").exists()


def test_config_file_with_the_spirals_source_is_refused(tmp_path, capsys):
    raw = config_to_dict(default_config())
    raw["dataset"].update(source="spirals", dim=2)
    raw["mlp"]["layer_sizes"][0] = 2
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    out = tmp_path / "run.jsonl"
    assert run_main(["train", "--config", str(path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "unknown data source 'spirals'" in err
    assert not out.exists()


def test_config_file_that_sets_normalize_is_refused(tmp_path, capsys):
    raw = config_to_dict(default_config())
    raw["dataset"]["normalize"] = False
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    out = tmp_path / "run.jsonl"
    assert run_main(["train", "--config", str(path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "'normalize'" in err
    assert not out.exists()


def test_config_file_without_a_seed_is_refused(tmp_path, capsys):
    raw = config_to_dict(default_config(seed=3))
    del raw["seed"]
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    out = tmp_path / "run.jsonl"
    assert run_main(["train", "--config", str(path), "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: missing config keys: ['seed']\n"
    assert not out.exists()


def test_missing_config_file_exits_1(capsys):
    code = run_main(["train", "--config", "/nonexistent/config.json", "--out", "x.jsonl"])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def assert_names_the_field(err, field):
    # "config section 'optim': epochs must be ..."; seed is outside any section
    section, _, name = field.rpartition(".")
    assert f" {name} must be " in err
    assert (f"config section {section!r}: " in err) == bool(section)


def _set(section, field, value):
    def edit(raw):
        (raw[section] if section else raw)[field] = value

    return edit


@pytest.mark.parametrize(
    "field, edit",
    [
        ("seed", _set(None, "seed", "x")),
        ("seed", _set(None, "seed", 1.7)),
        ("seed", _set(None, "seed", True)),
        ("optim.epochs", _set("optim", "epochs", 2.5)),
        ("optim.epochs", _set("optim", "epochs", False)),
        ("optim.batch_size", _set("optim", "batch_size", 64.0)),
        ("optim.lr0", _set("optim", "lr0", "0.01")),
        ("dataset.n_train", _set("dataset", "n_train", 200.5)),
        ("mlp.layer_sizes", _set("mlp", "layer_sizes", [8, 64.5, 64, 4])),
        ("mlp.layer_sizes", _set("mlp", "layer_sizes", [8, "64", 64, 4])),
        ("noise.n_classes", _set("noise", "n_classes", 4.0)),
        ("loss.kind", _set("loss", "kind", 3)),
        # integers that int64 cannot hold
        pytest.param("optim.epochs", _set("optim", "epochs", 10**400), id="optim.epochs-10**400"),
        pytest.param(
            "dataset.n_train", _set("dataset", "n_train", 10**400), id="dataset.n_train-10**400"
        ),
    ],
)
def test_config_file_values_of_the_wrong_type_are_config_errors(tmp_path, capsys, field, edit):
    raw = config_to_dict(default_config())
    edit(raw)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    out = tmp_path / "run.jsonl"
    assert run_main(["train", "--config", str(path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert_names_the_field(err, field)
    assert not out.exists()


@pytest.mark.parametrize(
    "name, value",
    [
        ("optim.clip_norm", "NaN"),
        ("optim.clip_norm", "Infinity"),
        ("loss.m", "NaN"),
        ("optim.lr0", "Infinity"),
        ("dataset.separation", "-Infinity"),
        pytest.param("optim.lr0", 10**400, id="optim.lr0-10**400"),
        ("--clip-norm", "nan"),
        ("--clip-norm", "inf"),
        ("--m", "nan"),
        ("--lr0", "inf"),
        ("--weight-decay", "-inf"),
    ],
)
def test_non_finite_numbers_in_config_files_and_flags_are_config_errors(
    tmp_path, capsys, monkeypatch, name, value
):
    _no_runs(monkeypatch)
    out = tmp_path / "run.jsonl"
    argv = ["train", "--out", str(out), "--epochs", "1", "--log-every", "0"]
    if name.startswith("--"):
        argv.append(f"{name}={value}")  # "=" lets argparse read "-inf" as a value
    else:
        raw = config_to_dict(default_config())
        section, field = name.split(".")
        # json writes NaN and Infinity, and an integer too large for a double in full
        raw[section][field] = value if isinstance(value, int) else float(value)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(raw), encoding="utf-8")
        assert str(value) in path.read_text(encoding="utf-8")
        argv += ["--config", str(path)]
    assert run_main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "finite" in err
    if name.startswith("--"):
        assert name in err
    else:
        assert_names_the_field(err, name)
    assert not out.exists()


def test_config_file_that_is_not_utf8_is_a_config_error(tmp_path, capsys):
    path = tmp_path / "config.json"
    text = json.dumps(config_to_dict(default_config())).encode()
    path.write_bytes(text.replace(b"blobs", b"bl\xf6bs"))  # latin-1, not UTF-8
    out = tmp_path / "run.jsonl"
    assert run_main(["train", "--config", str(path), "--out", str(out)]) == 1
    assert "not UTF-8 text" in capsys.readouterr().err
    assert not out.exists()


def _idx_split(tmp_path, split, count, side):
    images, labels = tmp_path / f"{split}-images", tmp_path / f"{split}-labels"
    images.write_bytes(struct.pack(">IIII", 2051, count, side, side) + bytes(count * side**2))
    labels.write_bytes(struct.pack(">II", 2049, count) + bytes(i % 4 for i in range(count)))
    return {f"{split}_images_path": str(images), f"{split}_labels_path": str(labels)}


def _idx_config(tmp_path, paths, count, layer_sizes):
    """Write the default config, reading count rows of each split from the IDX
    files at paths, and return the config file's path."""
    raw = config_to_dict(default_config())
    raw["dataset"] = {"source": "idx", "n_classes": 4, "n_train": count, "n_test": count, **paths}
    raw["mlp"]["layer_sizes"] = layer_sizes
    config = tmp_path / "config.json"
    config.write_text(json.dumps(raw), encoding="utf-8")
    return str(config)


# each writes files of one fault and returns their paths; every split holds
# 8 rows of 4 features (2x2 images) unless the fault says otherwise
FAULTY_DATA_FILES = {
    "idx feature width mismatch": lambda d: {
        **_idx_split(d, "train", 8, 2), **_idx_split(d, "test", 8, 3)
    },
    "empty idx file": lambda d: {**_idx_split(d, "train", 0, 2), **_idx_split(d, "test", 8, 2)},
}


@pytest.mark.parametrize("fault", FAULTY_DATA_FILES)
def test_faulty_data_files_are_data_errors_before_training(tmp_path, capsys, fault):
    config = _idx_config(tmp_path, FAULTY_DATA_FILES[fault](tmp_path), 8, [4, 8, 4])
    out = tmp_path / "run.jsonl"
    argv = ["train", "--config", config, "--out", str(out), "--epochs", "1"]
    assert run_main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert "diverged" not in lines[0]  # bad input, not a training failure
    assert not out.exists()


def test_mlp_input_size_that_does_not_match_the_loaded_features_is_a_config_error(
    tmp_path, capsys
):
    paths = {**_idx_split(tmp_path, "train", 8, 2), **_idx_split(tmp_path, "test", 8, 2)}
    config = _idx_config(tmp_path, paths, 8, [5, 8, 4])  # 4 features per row
    out = tmp_path / "run.jsonl"
    assert run_main(["train", "--config", config, "--out", str(out), "--epochs", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: mlp input size 5 does not match loaded feature dim 4\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "edit, named",
    [
        (_set("dataset", "source", "csv"), "unknown data source 'csv'"),
        (_set("dataset", "train_data_path", "train.csv"),
         "unknown config keys in section 'dataset': ['train_data_path']"),
    ],
    ids=["source", "path"],
)
def test_config_file_for_the_deleted_csv_source_is_refused(tmp_path, capsys, edit, named):
    raw = config_to_dict(default_config())
    edit(raw)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    out = tmp_path / "run.jsonl"
    assert run_main(["train", "--config", str(path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert named in err
    assert not out.exists()


def test_train_on_idx_files_end_to_end(tmp_path, capsys):
    paths = {**_idx_split(tmp_path, "train", 16, 2), **_idx_split(tmp_path, "test", 16, 2)}
    config = _idx_config(tmp_path, paths, 16, [4, 8, 4])
    out = tmp_path / "run.jsonl"
    argv = ["train", "--config", config, "--out", str(out), "--epochs", "2", "--log-every", "0"]
    assert run_main(argv) == 0
    assert capsys.readouterr().err == ""
    records, summary = read_results(str(out))
    assert len(records) == 2
    assert {k: summary.config["dataset"][k] for k in paths} == paths
    assert math.isfinite(summary.last_test_top1)


@pytest.mark.parametrize("flag, value", [("--dim", "7"), ("--separation", "3.0")])
def test_a_blobs_only_flag_on_an_idx_config_is_refused(tmp_path, capsys, flag, value):
    paths = {**_idx_split(tmp_path, "train", 8, 2), **_idx_split(tmp_path, "test", 8, 2)}
    config = _idx_config(tmp_path, paths, 8, [4, 8, 4])
    out = tmp_path / "run.jsonl"
    assert run_main(["train", "--config", config, "--out", str(out), flag, value]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: dim and separation are blobs-only fields")
    assert err.count("\n") == 1
    assert not out.exists()


def test_integers_in_float_fields_of_a_config_file_are_valid(tmp_path):
    raw = config_to_dict(default_config())
    raw["optim"]["lr0"] = 1
    raw["dataset"]["separation"] = 10
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    config = build_config(parse_train(["--config", str(path)]))
    assert config.optim.lr0 == 1 and config.dataset.separation == 10


def test_an_integer_in_a_float_field_of_a_config_file_writes_the_bytes_of_its_flag(tmp_path, capsys):
    raw = config_to_dict(default_config())
    raw["optim"]["lr0"] = 1
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    small = ["--epochs", "1", "--n-train", "100", "--n-test", "50", "--log-every", "0"]
    for name, flags in (("file", []), ("flag", ["--lr0", "1"])):
        argv = ["train", "--config", str(path), *flags, *small, "--out", str(tmp_path / name)]
        assert run_main(argv) == 0
    assert (tmp_path / "file").read_bytes() == (tmp_path / "flag").read_bytes()
    assert '"lr0": 1.0,' in (tmp_path / "file").read_text(encoding="utf-8")


def test_sweep_writes_a_grid(tmp_path, capsys):
    out_dir = str(tmp_path / "grid")
    code = run_main(
        ["sweep", "--losses", "ce", "--etas", "0,0.4", "--seeds", "0", "--out-dir",
         out_dir, "--epochs", "2", "--n-train", "100", "--n-test", "50", "--jobs", "1"]
    )
    assert code == 0
    lines = [json.loads(s) for s in capsys.readouterr().out.strip().splitlines()]
    assert len(lines) == 2
    for expected in ("ce_eta0_seed0.jsonl", "ce_eta0.4_seed0.jsonl"):
        records, _ = read_results(str(tmp_path / "grid" / expected))
        assert len(records) == 2


def test_sweep_eta_zero_uses_no_noise(tmp_path, capsys):
    out_dir = str(tmp_path / "grid")
    code = run_main(
        ["sweep", "--losses", "ce", "--etas", "0", "--seeds", "0", "--out-dir", out_dir,
         "--epochs", "1", "--n-train", "100", "--n-test", "50", "--jobs", "1"]
    )
    assert code == 0
    _, summary = read_results(str(tmp_path / "grid" / "ce_eta0_seed0.jsonl"))
    assert summary.config["noise"]["kind"] == "none"
    assert summary.realized_noise_rate == 0.0


def test_sweep_rejects_unknown_loss(tmp_path, capsys):
    code = run_main(["sweep", "--losses", "nll", "--out-dir", str(tmp_path / "g")])
    assert code == 1
    assert "unknown loss kind" in capsys.readouterr().err


SMALL_SWEEP = ["sweep", "--losses", "ce,mae", "--etas", "0,0.4", "--seeds", "0,1", "--epochs", "2",
               "--n-train", "100", "--n-test", "50", "--jobs", "1"]


def _no_runs(monkeypatch):
    import eps_softmax.cli as cli_mod

    def refuse(*args, **kwargs):
        raise AssertionError("a run started")

    monkeypatch.setattr(cli_mod, "run_experiment", refuse)


@pytest.mark.parametrize(
    "flag, value", [("--etas", "0,x"), ("--seeds", "a"), ("--etas", "0,nan"), ("--etas", "inf")]
)
def test_sweep_malformed_lists_are_config_errors(tmp_path, capsys, flag, value):
    out_dir = tmp_path / "g"
    code = run_main(["sweep", flag, value, "--out-dir", str(out_dir)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and flag in err
    assert not out_dir.exists()


@pytest.mark.parametrize(
    "flag, value", [("--seeds", "0,0"), ("--etas", "0.4,0.40"), ("--losses", "ce,ce")]
)
def test_sweep_refuses_a_grid_that_names_one_file_twice(tmp_path, capsys, monkeypatch, flag, value):
    _no_runs(monkeypatch)
    argv = ["sweep", "--losses", "ce", "--etas", "0", "--seeds", "0"]
    argv[argv.index(flag) + 1] = value
    code = run_main(argv + ["--out-dir", str(tmp_path / "g"), "--jobs", "1"])
    assert code == 1
    assert "more than once" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value", [("--loss", "gce"), ("--eta", "0.3"), ("--seed", "7")])
def test_sweep_rejects_the_flags_its_grid_sets(tmp_path, capsys, monkeypatch, flag, value):
    _no_runs(monkeypatch)
    out_dir = tmp_path / "g"
    argv = ["sweep", flag, value, "--losses", "ce", "--etas", "0.2", "--out-dir", str(out_dir)]
    assert run_main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    grid = {"--loss": "--losses", "--eta": "--etas", "--seed": "--seeds"}[flag]
    assert f"sweep takes {grid}, not {flag}:" in captured.err
    assert not out_dir.exists()


def test_sweep_refuses_a_grid_that_builds_one_config_twice(tmp_path, capsys, monkeypatch):
    # -0 would name ce_eta-0_seed0.jsonl with eta 0's config; the float rule refuses it
    _no_runs(monkeypatch)
    out_dir = tmp_path / "g"
    argv = ["sweep", "--losses", "ce", "--etas", "0,-0", "--seeds", "0", "--jobs", "1"]
    assert run_main(argv + ["--out-dir", str(out_dir)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: eta must not be -0.0\n"
    assert not out_dir.exists()


def _config_file(tmp_path, **noise):
    raw = config_to_dict(default_config())
    raw["noise"].update(noise)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    return str(path)


def _record_cells(monkeypatch):
    """Replace the sweep's runs with a stub; returns the list of configs it is given."""
    cells = []

    def record(job):
        cells.append(job[0])
        return cli_mod._result_line(*job, 0.5)

    monkeypatch.setattr(cli_mod, "_run_one", record)
    return cells


def test_sweep_cells_keep_the_noise_kind_of_a_config_file(tmp_path, capsys):
    config = _config_file(tmp_path, kind="asymmetric_shift", eta=0.2)
    out_dir = tmp_path / "g"
    argv = ["sweep", "--config", config, "--losses", "ce", "--etas", "0,0.2,0.3", "--seeds",
            "0,1", "--epochs", "1", "--n-train", "100", "--n-test", "50", "--jobs", "1"]
    assert run_main(argv + ["--out-dir", str(out_dir)]) == 0
    kinds = {}
    for path in sorted(out_dir.iterdir()):
        noise = read_results(str(path))[1].config["noise"]
        kinds[path.name] = (noise["kind"], noise["eta"])
    assert kinds == {
        f"ce_eta{eta:g}_seed{seed}.jsonl": ("none" if eta == 0 else "asymmetric_shift", eta)
        for eta in (0.0, 0.2, 0.3)
        for seed in (0, 1)
    }


def test_sweep_cells_keep_the_noise_kind_of_a_config_file_at_eta_zero(tmp_path, capsys, monkeypatch):
    # the file's own noise spec is kind none, but its section still names the shift
    config = _config_file(tmp_path, kind="asymmetric_shift", eta=0.0)
    cells = _record_cells(monkeypatch)
    argv = ["sweep", "--config", config, "--losses", "ce", "--etas", "0,0.2", "--seeds", "0",
            "--jobs", "1", "--out-dir", str(tmp_path / "g")]
    assert run_main(argv) == 0
    assert [(c.noise.kind, c.noise.eta) for c in cells] == [("none", 0.0), ("asymmetric_shift", 0.2)]


def test_a_sweep_cell_is_the_train_run_of_its_kind_and_a_rerun_at_another_m_reuses_it(
    tmp_path, capsys, monkeypatch
):
    # ce reads neither m nor alpha, so its cells are the runs of train --loss ce
    # at any m, and an eta-0 cell is the run of any noise kind at eta 0
    small = ["--epochs", "1", "--n-train", "100", "--n-test", "50"]
    out_dir = tmp_path / "g"

    def sweep(losses, *flags):
        return run_main(["sweep", "--losses", losses, "--etas", "0,0.6", "--seeds", "0", "--jobs",
                         "1", *small, *flags, "--out-dir", str(out_dir)])

    assert sweep("ce,ce_eps_mae", "--m", "1e4", "--alpha", "0.1") == 0
    lines = capsys.readouterr().out.splitlines()
    for eta in ("0", "0.6"):
        out = tmp_path / f"train_eta{eta}.jsonl"
        argv = ["train", "--loss", "ce", "--noise-kind", "symmetric", "--eta", eta, "--seed", "0",
                *small, "--log-every", "0", "--out", str(out)]
        assert run_main(argv) == 0
        assert out.read_bytes() == (out_dir / f"ce_eta{eta}_seed0.jsonl").read_bytes()
    capsys.readouterr()
    cells = _record_cells(monkeypatch)
    assert sweep("ce", "--m", "0") == 0
    assert cells == []
    assert capsys.readouterr().out.splitlines() == lines[:2]


def test_sweep_loads_its_config_file_once(tmp_path, capsys, monkeypatch):
    config = _config_file(tmp_path, kind="asymmetric_shift", eta=0.2)
    loads = []

    def counted(path):
        loads.append(path)
        return load_config_file(path)

    monkeypatch.setattr(cli_mod, "load_config_file", counted)
    cells = _record_cells(monkeypatch)
    argv = ["sweep", "--config", config, "--losses", "ce,mae", "--etas", "0.2,0.3", "--seeds",
            "0,1", "--jobs", "1", "--out-dir", str(tmp_path / "g")]
    assert run_main(argv) == 0
    assert loads == [config]
    assert len(cells) == 8


def test_sweep_noise_kind_flag_wins_over_the_config_files_noise(tmp_path, capsys, monkeypatch):
    # the file's eta 0.6 is not a valid shift rate, but every cell sets its own eta
    config = _config_file(tmp_path, kind="symmetric", eta=0.6)
    cells = _record_cells(monkeypatch)
    argv = ["sweep", "--config", config, "--noise-kind", "asymmetric_shift", "--losses", "ce",
            "--etas", "0,0.4", "--seeds", "3", "--jobs", "1", "--out-dir", str(tmp_path / "g")]
    assert run_main(argv) == 0
    got = [(c.noise.kind, c.noise.eta, c.seed, c.noise.seed, c.mlp.init_seed) for c in cells]
    assert got == [("none", 0.0, 3, 3, 3), ("asymmetric_shift", 0.4, 3, 3, 3)]


@pytest.mark.parametrize("from_file", [False, True], ids=["defaults", "shift-file"])
def test_each_sweep_cell_is_the_train_config_of_its_flags(tmp_path, capsys, monkeypatch, from_file):
    flags = ["--m", "3", "--alpha", "0.5", "--epochs", "2", "--n-train", "120"]
    if from_file:
        flags += ["--config", _config_file(tmp_path, kind="asymmetric_shift", eta=0.2)]
    noisy_kind = "asymmetric_shift" if from_file else "symmetric"
    cells = _record_cells(monkeypatch)
    argv = ["sweep", *flags, "--losses", "ce,ce_eps_mae", "--etas", "0,0.3", "--seeds", "0,5",
            "--jobs", "1", "--out-dir", str(tmp_path / "g")]
    assert run_main(argv) == 0
    expected = [
        build_config(parse_train(flags + ["--loss", kind, "--eta", eta, "--seed", seed,
                                          "--noise-kind", "none" if eta == "0" else noisy_kind]))
        for kind in ("ce", "ce_eps_mae")
        for eta in ("0", "0.3")
        for seed in ("0", "5")
    ]
    assert cells == expected


@pytest.mark.parametrize(
    "argv",
    [["sweep", "--jobs", "0"], ["sweep", "--jobs", "-5"], ["train", "--log-every", "-1"]],
)
def test_counts_below_their_minimum_are_config_errors(tmp_path, capsys, monkeypatch, argv):
    _no_runs(monkeypatch)
    out = tmp_path / "out"
    assert run_main(argv + ["--out-dir" if argv[0] == "sweep" else "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"{argv[1]} must be at least" in captured.err
    assert not out.exists()


def test_sweep_writes_the_same_bytes_at_one_and_two_jobs(tmp_path, capsys):
    argv = ["sweep", "--losses", "ce,ce_eps_mae", "--etas", "0,0.4", "--seeds", "0", "--epochs",
            "2", "--n-train", "100", "--n-test", "50"]
    runs = []
    for jobs in ("1", "2"):
        out_dir = tmp_path / f"jobs{jobs}"
        assert run_main(argv + ["--out-dir", str(out_dir), "--jobs", jobs]) == 0
        captured = capsys.readouterr()
        files = {p.name: p.read_bytes() for p in out_dir.iterdir()}
        runs.append((captured.out.replace(str(out_dir), "DIR"), captured.err, files))
    assert len(runs[0][2]) == 4
    assert runs[0] == runs[1]


def _blas_threads_of_this_process(payload):
    """A stand-in for one sweep cell: its result line carries the process's
    OpenBLAS thread count in place of an accuracy."""
    config, path = payload
    threads = mlp._openblas().scipy_openblas_get_num_threads64_()
    return {"out": path, "loss": config.loss.kind, "eta": config.noise.eta,
            "seed": config.seed, "last_test_top1": threads}


def test_sweep_pool_workers_use_one_blas_thread(tmp_path, capsys, monkeypatch):
    lib = mlp._openblas()
    if lib is None:
        pytest.skip("numpy does not bundle scipy-openblas here")
    own = lib.scipy_openblas_get_num_threads64_()
    monkeypatch.setattr(cli_mod, "_run_one", _blas_threads_of_this_process)
    argv = ["sweep", "--losses", "ce", "--etas", "0,0.4", "--seeds", "0,1"]
    for jobs in ("2", "1"):
        assert run_main(argv + ["--out-dir", str(tmp_path / jobs), "--jobs", jobs]) == 0
        lines = capsys.readouterr().out.splitlines()
        threads = {json.loads(line)["last_test_top1"] for line in lines}
        # pool workers are pinned for life; in process, the stand-in runs outside
        # run_experiment, which alone sets the count for the length of a run
        assert threads == ({1} if jobs == "2" else {own})
    assert lib.scipy_openblas_get_num_threads64_() == own


def test_sweep_starts_no_more_pool_workers_than_cells_to_run(tmp_path, capsys, monkeypatch):
    import concurrent.futures

    workers = []

    class InProcessPool:
        """Records the worker count a sweep asks for and runs its cells here,
        so the test starts no process."""

        def __init__(self, max_workers, **kwargs):
            workers.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    out_dir = tmp_path / "g"
    argv = SMALL_SWEEP[:-1] + ["64", "--out-dir", str(out_dir)]
    assert run_main(argv) == 0
    assert workers == [8]
    for path in sorted(out_dir.iterdir())[:3]:
        path.unlink()
    assert run_main(argv) == 0
    assert workers == [8, 3]
    assert run_main(argv) == 0  # every cell is reused: no pool at all
    assert workers == [8, 3]
    assert len(list(out_dir.iterdir())) == 8


def test_importing_the_cli_does_not_import_the_process_pool():
    src = os.path.dirname(os.path.dirname(eps_softmax.__file__))
    code = "import sys, eps_softmax.cli; print('concurrent.futures' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert done.stdout.strip() == "False", done.stderr


def test_sweep_prints_the_seed_averaged_table_on_stderr(tmp_path, capsys):
    assert run_main(SMALL_SWEEP + ["--out-dir", str(tmp_path / "g")]) == 0
    captured = capsys.readouterr()
    lines = [json.loads(s) for s in captured.out.strip().splitlines()]
    assert len(lines) == 8
    table = captured.err.strip().splitlines()
    assert table[0].split() == ["loss", "eta=0", "eta=0.4"]
    for row, kind in zip(table[2:], ("ce", "mae")):
        assert row.split()[0] == kind
        cells = [float(v) for v in row.split()[1:]]
        for eta, cell in zip((0.0, 0.4), cells):
            accs = [r["last_test_top1"] for r in lines if r["loss"] == kind and r["eta"] == eta]
            assert cell == pytest.approx(sum(accs) / 2, abs=5e-5)


def test_sweep_resumes_without_rerunning(tmp_path, capsys, monkeypatch):
    argv = SMALL_SWEEP + ["--out-dir", str(tmp_path / "g")]
    assert run_main(argv) == 0
    first = capsys.readouterr()
    files = {p.name: p.read_bytes() for p in (tmp_path / "g").iterdir()}
    _no_runs(monkeypatch)
    assert run_main(argv) == 0
    again = capsys.readouterr()
    assert again.out == first.out
    assert again.err == first.err
    assert {p.name: p.read_bytes() for p in (tmp_path / "g").iterdir()} == files


def test_sweep_reuses_files_whose_records_hold_topk_errors(tmp_path, capsys, monkeypatch):
    # files written while the records held top-k errors are reused as they are
    argv = SMALL_SWEEP + ["--out-dir", str(tmp_path / "g")]
    assert run_main(argv) == 0
    first = capsys.readouterr()
    for path in (tmp_path / "g").iterdir():
        lines = path.read_text(encoding="utf-8").splitlines()
        old = [line[:-1] + ', "test_topk_errors": [0.25, 0.0]}' for line in lines[:-1]]
        path.write_text("\n".join(old + lines[-1:]) + "\n", encoding="utf-8")
    files = {p.name: p.read_bytes() for p in (tmp_path / "g").iterdir()}
    _no_runs(monkeypatch)
    assert run_main(argv) == 0
    assert capsys.readouterr() == first
    assert {p.name: p.read_bytes() for p in (tmp_path / "g").iterdir()} == files


def test_sweep_resume_runs_only_the_missing_cells(tmp_path, capsys):
    argv = SMALL_SWEEP + ["--out-dir", str(tmp_path / "g")]
    assert run_main(argv) == 0
    first = capsys.readouterr().out
    missing = tmp_path / "g" / "mae_eta0.4_seed1.jsonl"
    kept = tmp_path / "g" / "ce_eta0_seed0.jsonl"
    expected = missing.read_bytes()
    missing.unlink()
    kept_mtime = kept.stat().st_mtime_ns
    assert run_main(argv) == 0
    assert capsys.readouterr().out == first
    assert missing.read_bytes() == expected
    assert kept.stat().st_mtime_ns == kept_mtime


def test_sweep_refuses_a_file_of_another_config(tmp_path, capsys, monkeypatch):
    out_dir = tmp_path / "g"
    assert run_main(SMALL_SWEEP + ["--out-dir", str(out_dir)]) == 0
    capsys.readouterr()
    target = out_dir / "mae_eta0_seed1.jsonl"
    before = target.read_bytes()
    _no_runs(monkeypatch)
    code = run_main(SMALL_SWEEP + ["--out-dir", str(out_dir), "--lr0", "0.02"])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "ce_eta0_seed0.jsonl" in captured.err and "another config" in captured.err
    assert target.read_bytes() == before


def test_sweep_refuses_a_file_that_does_not_parse(tmp_path, capsys, monkeypatch):
    out_dir = tmp_path / "g"
    out_dir.mkdir()
    (out_dir / "ce_eta0.4_seed1.jsonl").write_text('{"epoch": 0}\n', encoding="utf-8")
    _no_runs(monkeypatch)
    code = run_main(SMALL_SWEEP + ["--out-dir", str(out_dir)])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "ce_eta0.4_seed1.jsonl" in captured.err


def test_sweep_refuses_a_reused_file_without_last_test_top1(tmp_path, capsys, monkeypatch):
    argv = ["sweep", "--losses", "ce", "--etas", "0", "--seeds", "0", "--epochs", "1",
            "--n-train", "100", "--n-test", "50", "--jobs", "1", "--out-dir", str(tmp_path / "g")]
    assert run_main(argv) == 0
    capsys.readouterr()
    target = tmp_path / "g" / "ce_eta0_seed0.jsonl"
    *records, summary = target.read_text(encoding="utf-8").splitlines()
    summary = json.loads(summary)
    del summary["last_test_top1"]  # the embedded config still matches the cell
    target.write_text("\n".join(records + [json.dumps(summary)]) + "\n", encoding="utf-8")
    _no_runs(monkeypatch)
    assert run_main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and str(target) in lines[0]


def test_sweep_refuses_a_reused_file_whose_record_value_is_not_a_number(tmp_path, capsys, monkeypatch):
    argv = ["sweep", "--losses", "ce", "--etas", "0", "--seeds", "0", "--epochs", "1",
            "--n-train", "100", "--n-test", "50", "--jobs", "1", "--out-dir", str(tmp_path / "g")]
    assert run_main(argv) == 0
    capsys.readouterr()
    target = tmp_path / "g" / "ce_eta0_seed0.jsonl"
    record, summary = target.read_text(encoding="utf-8").splitlines()
    record = json.dumps({**json.loads(record), "test_top1": "garbage"})
    target.write_text(f"{record}\n{summary}\n", encoding="utf-8")
    before = target.read_bytes()
    _no_runs(monkeypatch)
    assert run_main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: {target}: line 1: test_top1 must be")
    assert target.read_bytes() == before


def test_sweep_refuses_a_reused_file_whose_summary_value_is_not_a_number(tmp_path, capsys, monkeypatch):
    argv = ["sweep", "--losses", "ce", "--etas", "0", "--seeds", "0", "--epochs", "1",
            "--n-train", "100", "--n-test", "50", "--jobs", "1", "--out-dir", str(tmp_path / "g")]
    assert run_main(argv) == 0
    capsys.readouterr()
    target = tmp_path / "g" / "ce_eta0_seed0.jsonl"
    record, summary = target.read_text(encoding="utf-8").splitlines()
    summary = json.dumps({**json.loads(summary), "best_test_top1": "x"})
    target.write_text(f"{record}\n{summary}\n", encoding="utf-8")
    before = target.read_bytes()
    _no_runs(monkeypatch)
    assert run_main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {target}: line 2: best_test_top1 must be a finite number, got 'x'\n"
    assert target.read_bytes() == before


def test_sweep_prints_a_reused_integer_accuracy_as_the_float_a_fresh_run_prints(
    tmp_path, capsys, monkeypatch
):
    # a short run that scores every test row
    argv = ["sweep", "--losses", "ce", "--etas", "0", "--seeds", "0", "--epochs", "4", "--lr0", "0.1",
            "--n-train", "100", "--n-test", "20", "--jobs", "1", "--out-dir", str(tmp_path / "g")]
    assert run_main(argv) == 0
    fresh = capsys.readouterr()
    target = tmp_path / "g" / "ce_eta0_seed0.jsonl"
    *records, summary = target.read_text(encoding="utf-8").splitlines()
    summary = json.loads(summary)
    assert summary["last_test_top1"] == 1.0
    summary["last_test_top1"] = 1  # how another JSON writer may hold it
    target.write_text("\n".join(records + [json.dumps(summary)]) + "\n", encoding="utf-8")
    _no_runs(monkeypatch)
    assert run_main(argv) == 0
    assert capsys.readouterr() == fresh


def test_verify_exit_code_and_output(capsys):
    code = run_main(["verify", "--trials", "2000"])
    assert code == 0
    lines = [json.loads(s) for s in capsys.readouterr().out.strip().splitlines()]
    assert lines
    assert all(line["passed"] for line in lines)
    names = {line["name"] for line in lines}
    assert any(name.startswith("one_hot_bound") for name in names)
    assert any(name.startswith("calibration") for name in names)
    calibration = [line for line in lines if line["name"].startswith("calibration")]
    assert all(line["residual"] <= 1e-10 and line["steps"] > 0 for line in calibration)


def test_gradcheck_exit_code_and_output(capsys):
    code = run_main(["gradcheck", "--cases", "10"])
    assert code == 0
    lines = [json.loads(s) for s in capsys.readouterr().out.strip().splitlines()]
    kinds = {line["name"] for line in lines}
    assert any(name.startswith("gradcheck_loss_") for name in kinds)
    assert any(name.startswith("gradcheck_mlp_") for name in kinds)
    assert all(line["passed"] for line in lines)


@pytest.mark.parametrize("command", ["verify", "gradcheck"])
def test_a_failed_check_exits_2_and_counts_the_failures(monkeypatch, capsys, command):
    from eps_softmax.theory import CheckReport

    reports = [CheckReport("good", True), CheckReport("bad", False, {"error": 1.0})]
    for name in ("run_verification_suite", "gradcheck_losses"):
        monkeypatch.setattr(cli_mod, name, lambda **kwargs: list(reports))
    monkeypatch.setattr(cli_mod, "gradcheck_mlp", lambda **kwargs: [])
    assert run_main([command]) == 2
    captured = capsys.readouterr()
    lines = [json.loads(s) for s in captured.out.splitlines()]
    assert lines == [{"name": "good", "passed": True},
                     {"name": "bad", "passed": False, "error": 1.0}]
    assert captured.err == "1 of 2 checks failed\n"


@pytest.mark.parametrize(
    "argv",
    [["verify", "--trials", "0"], ["gradcheck", "--cases", "0"], ["gradcheck", "--cases", "-1"]],
)
def test_checks_with_no_trials_are_config_errors(argv, capsys):
    assert run_main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "must be at least 1" in captured.err
