"""Command-line interface: config merging, subcommands, exit codes."""

import argparse
import json

import pytest

from eps_softmax.cli import build_config, default_config, main
from eps_softmax.errors import ConfigError
from eps_softmax.experiment import config_to_dict, read_results


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
    config = default_config(0)
    config.validate()
    assert config.dataset.n_classes == config.mlp.n_classes == config.noise.n_classes


def test_build_config_applies_flag_overrides():
    args = parse_train(
        ["--loss", "ce_eps_mae", "--m", "100", "--alpha", "0.1", "--epochs", "7"]
    )
    config = build_config(args, "out.jsonl")
    assert config.loss.kind == "ce_eps_mae"
    assert config.loss.m == 100.0
    assert config.loss.alpha == 0.1
    assert config.optim.epochs == 7
    assert config.output_path == "out.jsonl"


def test_build_config_seed_drives_init_and_noise():
    args = parse_train(["--seed", "11", "--noise-kind", "symmetric", "--eta", "0.2"])
    config = build_config(args, None)
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
    config = build_config(args, None)
    assert config.optim.epochs == 3
    assert config.dataset == base.dataset


def test_build_config_layer_sizes_flag():
    args = parse_train(["--layer-sizes", "8,32,4"])
    config = build_config(args, None)
    assert config.mlp.layer_sizes == (8, 32, 4)
    with pytest.raises(ConfigError, match="bad --layer-sizes"):
        build_config(parse_train(["--layer-sizes", "8,x,4"]), None)


def test_build_config_rejects_inconsistent_overrides():
    # shrinking the class count alone breaks the mlp output size
    with pytest.raises(ConfigError):
        build_config(parse_train(["--n-classes", "3"]), None)


def run_main(argv):
    return main(argv)


def test_train_writes_results_and_prints_summary(tmp_path, capsys):
    out = str(tmp_path / "run.jsonl")
    code = run_main(
        ["train", "--out", out, "--epochs", "2", "--n-train", "200", "--n-test", "100",
         "--log-every", "0"]
    )
    assert code == 0
    printed = json.loads(capsys.readouterr().out.strip())
    assert printed["out"] == out
    records, summary = read_results(out)
    assert len(records) == 2
    assert printed["last_test_top1"] == summary["last_test_top1"]


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


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_train_that_diverges_exits_1_and_writes_nothing(tmp_path, capsys):
    out = tmp_path / "run.jsonl"
    argv = ["train", "--lr0", "1e6", "--clip-norm", "1e12", "--epochs", "5", "--out", str(out),
            "--log-every", "0"]
    assert run_main(argv) == 1
    assert not out.exists()
    assert "training diverged at epoch" in capsys.readouterr().err


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


def test_missing_config_file_exits_1(capsys):
    code = run_main(["train", "--config", "/nonexistent/config.json", "--out", "x.jsonl"])
    assert code == 1
    assert "error:" in capsys.readouterr().err


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
        records, summary = read_results(str(tmp_path / "grid" / expected))
        assert len(records) == 2
        assert summary["summary"] is True


def test_sweep_eta_zero_uses_no_noise(tmp_path, capsys):
    out_dir = str(tmp_path / "grid")
    code = run_main(
        ["sweep", "--losses", "ce", "--etas", "0", "--seeds", "0", "--out-dir", out_dir,
         "--epochs", "1", "--n-train", "100", "--n-test", "50", "--jobs", "1"]
    )
    assert code == 0
    _, summary = read_results(str(tmp_path / "grid" / "ce_eta0_seed0.jsonl"))
    assert summary["config"]["noise"]["kind"] == "none"
    assert summary["realized_noise_rate"] == 0.0


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


@pytest.mark.parametrize("flag, value", [("--etas", "0,x"), ("--seeds", "a")])
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


def test_verify_exit_code_and_output(capsys):
    code = run_main(["verify", "--trials", "2000"])
    assert code == 0
    lines = [json.loads(s) for s in capsys.readouterr().out.strip().splitlines()]
    assert lines
    assert all(line["passed"] for line in lines)
    names = {line["name"] for line in lines}
    assert any(name.startswith("one_hot_bound") for name in names)
    assert any(name.startswith("calibration") for name in names)


def test_gradcheck_exit_code_and_output(capsys):
    code = run_main(["gradcheck", "--cases", "10"])
    assert code == 0
    lines = [json.loads(s) for s in capsys.readouterr().out.strip().splitlines()]
    kinds = {line["name"] for line in lines}
    assert any(name.startswith("gradcheck_loss_") for name in kinds)
    assert any(name.startswith("gradcheck_mlp_") for name in kinds)
    assert all(line["passed"] for line in lines)
