"""Command-line interface: train, sweep, verify, gradcheck.

Exit codes: 0 on success, 1 on usage, configuration or data errors or when
training diverges, 2 when a verification or gradient check fails. Flags merge
into the config file's sections (or the desk-scale blob defaults below) before
any spec is built. A config file is checked as it is read, so an invalid field
in it (say, noise that drowns the clean class) is refused even if a flag would
replace it. The --seed flag drives the run, the weight init, and the noise draw
together so seed-averaged comparisons vary everything at once.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import math
import os
import sys

from .data import DatasetSpec
from .errors import ConfigError, DataError, TrainingDiverged, is_int64
from .experiment import (
    ExperimentConfig,
    config_to_dict,
    emit_results,
    load_config_file,
    read_results,
    run_experiment,
)
from .losses import LOSS_KINDS, LossSpec
from .mlp import MlpSpec, OptimSpec, set_blas_threads
from .noise import NOISE_KINDS, NoiseSpec
from .theory import gradcheck_losses, gradcheck_mlp, run_verification_suite


def int64(text: str) -> int:
    """Type of every integer flag: an integer that int64 holds."""
    if not is_int64(value := int(text)):
        raise ValueError(f"{text} is outside [-2**63, 2**63)")
    return value


def finite(text: str) -> float:
    """Type of every float flag: a number that is neither NaN nor infinite."""
    if not math.isfinite(value := float(text)):
        raise ValueError(f"{text} is not finite")
    return value


def _parse_list(flag: str, text: str, cast) -> list:
    try:
        return [cast(s) for s in text.split(",")]
    except ValueError as exc:
        raise ConfigError(f"bad {flag} {text!r}: {exc}") from None


def default_config(seed: int = 0) -> ExperimentConfig:
    """Desk-scale defaults: 4 well-separated Gaussian blobs in 8 dimensions."""
    return ExperimentConfig(
        dataset=DatasetSpec(
            source="blobs", n_classes=4, n_train=2000, n_test=1000, dim=8, separation=10.0
        ),
        mlp=MlpSpec((8, 64, 64, 4), init_seed=seed),
        loss=LossSpec("ce"),
        noise=NoiseSpec("none", n_classes=4, seed=seed),
        optim=OptimSpec(),
        seed=seed,
    )


#: flag -> (config sections, field, argparse type or choices, help). A flag sets
#: its field in every section it lists; --config, --seed and --layer-sizes are
#: handled apart.
_OVERRIDES = {
    "--loss": (("loss",), "kind", LOSS_KINDS, "loss kind"),
    "--m": (("loss",), "m", finite, "amplification for the eps loss kinds"),
    "--alpha": (("loss",), "alpha", finite, "fit-term weight"),
    "--beta": (("loss",), "beta", finite, "bounded-term weight"),
    "--gamma": (("loss",), "gamma", finite, "focal exponent"),
    "--q": (("loss",), "q", finite, "gce exponent"),
    "--A": (("loss",), "A", finite, "sce log-zero stand-in (negative)"),
    "--noise-kind": (("noise",), "kind", NOISE_KINDS, "label corruption kind"),
    "--eta": (("noise",), "eta", finite, "label corruption rate"),
    "--epochs": (("optim",), "epochs", int64, None),
    "--batch-size": (("optim",), "batch_size", int64, None),
    "--lr0": (("optim",), "lr0", finite, None),
    "--momentum": (("optim",), "momentum", finite, None),
    "--weight-decay": (("optim",), "weight_decay", finite, None),
    "--clip-norm": (("optim",), "clip_norm", finite, None),
    "--n-train": (("dataset",), "n_train", int64, None),
    "--n-test": (("dataset",), "n_test", int64, None),
    "--n-classes": (("dataset", "noise"), "n_classes", int64, None),
    "--dim": (("dataset",), "dim", int64, None),
    "--separation": (("dataset",), "separation", finite, None),
}


def _add_override_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON config file; flags override its fields")
    parser.add_argument("--seed", type=int64, help="run, init, and noise seed")
    for flag, (_, _, kind, text) in _OVERRIDES.items():
        typed = {"choices": kind} if isinstance(kind, tuple) else {"type": kind}
        parser.add_argument(flag, help=text, **typed)
    parser.add_argument(
        "--layer-sizes", help="comma-separated widths, e.g. 8,64,64,4 (input to output)"
    )


def _base_config(args: argparse.Namespace) -> dict:
    """The --config file's dicts, or the defaults'."""
    return load_config_file(args.config) if args.config else config_to_dict(default_config())


def build_config(args: argparse.Namespace, base: dict | None = None) -> ExperimentConfig:
    """Merge the command-line overrides into the section dicts of ``base`` (by
    default ``_base_config``), then build each section's spec, which checks them."""
    if base is None:
        base = _base_config(args)

    classes = {"dataset": DatasetSpec, "loss": LossSpec, "noise": NoiseSpec, "optim": OptimSpec,
               "mlp": MlpSpec}
    changes = {name: {} for name in classes}
    for flag, (sections, field, kind, _) in _OVERRIDES.items():
        value = getattr(args, flag[2:].replace("-", "_"))
        if value is not None:
            for name in sections:
                changes[name][field] = value
    if args.layer_sizes is not None:
        changes["mlp"]["layer_sizes"] = _parse_list("--layer-sizes", args.layer_sizes, int64)
    if args.seed is not None:
        changes["mlp"]["init_seed"] = changes["noise"]["seed"] = args.seed
    specs = {name: cls(**{**base[name], **changes[name]}) for name, cls in classes.items()}
    return ExperimentConfig(**specs, seed=base["seed"] if args.seed is None else args.seed)


def _cmd_train(args: argparse.Namespace) -> int:
    if args.log_every < 0:
        raise ConfigError(f"--log-every must be at least 0, got {args.log_every}")
    config = build_config(args)
    # fail before training; emit_results' exclusive create stays the real guard
    if not os.path.basename(args.out):
        raise DataError(f"cannot write results to {args.out!r}: not a file name")
    if os.path.exists(args.out):
        raise DataError(f"refusing to overwrite existing results file: {args.out}")
    if not os.path.isdir(os.path.dirname(args.out) or "."):
        raise DataError(f"cannot write results to {args.out}: no such directory")

    def progress(record):
        if args.log_every and record.epoch % args.log_every == 0:
            print(
                f"epoch {record.epoch:4d}  lr {record.lr:.5f}  "
                f"train_loss {record.train_loss:.5f}  test_top1 {record.test_top1:.4f}  "
                f"({record.wall_time_ms:.0f} ms)",
                file=sys.stderr,
            )

    records, summary = run_experiment(config, on_epoch=progress)
    emit_results(records, summary, args.out)
    print(
        json.dumps(
            {
                "out": args.out,
                "last_test_top1": summary.last_test_top1,
                "best_test_top1": summary.best_test_top1,
                "realized_noise_rate": summary.realized_noise_rate,
            }
        )
    )
    return 0


def _result_line(config: ExperimentConfig, path: str, last_test_top1: float) -> dict:
    return {
        "out": path,
        "loss": config.loss.kind,
        "eta": config.noise.eta,
        "seed": config.seed,
        "last_test_top1": last_test_top1,
    }


def _run_one(job: tuple[ExperimentConfig, str]) -> dict:
    config, path = job
    records, summary = run_experiment(config)
    emit_results(records, summary, path)
    return _result_line(config, path, summary.last_test_top1)


def _reused_result(config: ExperimentConfig, path: str) -> dict | None:
    """The result line of an existing results file made by this job's config.

    None when there is no file. A file that ``read_results`` refuses, or that
    embeds another config, raises DataError naming it.
    """
    if not os.path.exists(path):
        return None
    _, summary = read_results(path)
    if summary.config != config_to_dict(config):
        raise DataError(
            f"{path} holds results of another config; remove it or choose another --out-dir"
        )
    return _result_line(config, path, summary.last_test_top1)


def _print_table(results: list[dict], losses: list[str], etas: list[float]) -> None:
    """Seed-averaged last_test_top1 as a loss x eta table, on stderr."""
    header = "loss".ljust(12) + "".join(f"eta={eta:g}".rjust(10) for eta in etas)
    lines = [header, "-" * len(header)]
    for kind in losses:
        cells = []
        for eta in etas:
            accs = [r["last_test_top1"] for r in results if r["loss"] == kind and r["eta"] == eta]
            cells.append(f"{sum(accs) / len(accs):10.4f}")
        lines.append(kind.ljust(12) + "".join(cells))
    print("\n".join(lines), file=sys.stderr)


def _cmd_sweep(args: argparse.Namespace) -> int:
    for axis, grid in (("loss", "--losses"), ("eta", "--etas"), ("seed", "--seeds")):
        if getattr(args, axis) is not None:
            raise ConfigError(f"sweep takes {grid}, not --{axis}: each grid cell sets its own")
    if args.jobs is not None and args.jobs < 1:
        raise ConfigError(f"--jobs must be at least 1, got {args.jobs}")
    losses = args.losses.split(",")
    etas = _parse_list("--etas", args.etas, finite)
    seeds = _parse_list("--seeds", args.seeds, int64)
    # the base of every cell, so a config file is read once
    base = _base_config(args)
    noisy_kind = args.noise_kind or base["noise"]["kind"]
    if noisy_kind == "none":
        noisy_kind = "symmetric"
    jobs = []
    for kind, eta, seed in itertools.product(losses, etas, seeds):
        path = os.path.join(args.out_dir, f"{kind}_eta{eta:g}_seed{seed}.jsonl")
        cell = {"loss": kind, "eta": eta, "seed": seed, "noise_kind": noisy_kind}
        config = build_config(argparse.Namespace(**{**vars(args), **cell}), base)
        if any(path == other for _, other in jobs):
            raise ConfigError(f"the grid lists {path} more than once")
        jobs.append((config, path))

    # every cell's config and every existing file are checked before any run
    reused = [_reused_result(*job) for job in jobs]
    os.makedirs(args.out_dir, exist_ok=True)
    todo = [job for job, done in zip(jobs, reused) if done is None]
    # a pool forks all its workers at the first submit, so start no idle ones
    workers = min(args.jobs or min(4, os.cpu_count() or 1), len(todo))
    if workers > 1:
        # imported here: no other command, and no --jobs 1 sweep, pays for it
        from concurrent.futures import ProcessPoolExecutor

        # one BLAS thread per worker, so the workers do not contend for the CPUs
        runner = ProcessPoolExecutor(workers, initializer=set_blas_threads, initargs=(1,))
    else:
        runner = contextlib.nullcontext()
    results = []
    with runner as pool:
        fresh = (pool.map if pool else map)(_run_one, todo)
        for done in reused:  # one line per cell, in grid order
            result = next(fresh) if done is None else done
            print(json.dumps(result))
            results.append(result)
    _print_table(results, losses, etas)
    return 0


def _print_reports(reports) -> int:
    failed = 0
    for report in reports:
        print(json.dumps({"name": report.name, "passed": report.passed, **report.stats}))
        failed += not report.passed
    if failed:
        print(f"{failed} of {len(reports)} checks failed", file=sys.stderr)
        return 2
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    return _print_reports(run_verification_suite(trials=args.trials, seed=args.seed))


def _cmd_gradcheck(args: argparse.Namespace) -> int:
    reports = gradcheck_losses(cases=args.cases, seed=args.seed)
    reports += gradcheck_mlp(seed=args.seed)
    return _print_reports(reports)


class Parser(argparse.ArgumentParser):
    """Usage errors are configuration errors (exit 1); exit 2 means a check failed."""

    def error(self, message):
        raise ConfigError(message)


def main(argv: list[str] | None = None) -> int:
    parser = Parser(
        prog="eps-softmax",
        description="Noise-tolerant classification with an amplified softmax output",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="run one training experiment")
    _add_override_flags(p_train)
    p_train.add_argument("--out", required=True, help="results file (line-delimited JSON)")
    p_train.add_argument(
        "--log-every", type=int64, default=10, help="progress cadence; 0 silences"
    )
    p_train.set_defaults(func=_cmd_train)

    p_sweep = sub.add_parser("sweep", help="grid of runs over losses, noise rates, seeds")
    _add_override_flags(p_sweep)
    p_sweep.add_argument("--losses", default="ce,ce_eps_mae", help="comma-separated loss kinds")
    p_sweep.add_argument("--etas", default="0,0.2,0.4,0.6", help="comma-separated noise rates")
    p_sweep.add_argument("--seeds", default="0", help="comma-separated seeds")
    p_sweep.add_argument("--out-dir", required=True)
    p_sweep.add_argument("--jobs", type=int64, help="parallel workers (default: up to 4)")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_verify = sub.add_parser("verify", help="run the numeric verification suite")
    p_verify.add_argument("--trials", type=int64, default=100_000)
    p_verify.add_argument("--seed", type=int64, default=0)
    p_verify.set_defaults(func=_cmd_verify)

    p_grad = sub.add_parser("gradcheck", help="finite-difference gradient checks")
    p_grad.add_argument("--cases", type=int64, default=200)
    p_grad.add_argument("--seed", type=int64, default=0)
    p_grad.set_defaults(func=_cmd_gradcheck)

    try:
        args = parser.parse_args(argv)
        return args.func(args)
    # a Warning arrives here only as an exception, under -W error
    except (ConfigError, DataError, TrainingDiverged, OSError, Warning) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
