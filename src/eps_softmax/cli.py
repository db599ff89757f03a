"""Command-line interface: train, sweep, verify, gradcheck.

Exit codes: 0 on success, 1 on configuration or data errors or when training
diverges, 2 when a verification or gradient check fails. Flags override config-file fields;
without a config file the desk-scale blob defaults below apply. The --seed
flag drives the run, the weight init, and the noise draw together so
seed-averaged comparisons vary everything at once.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor

from .data import DatasetSpec
from .errors import ConfigError, DataError, TrainingDiverged
from .experiment import (
    ExperimentConfig,
    config_from_dict,
    config_to_dict,
    emit_results,
    load_config_file,
    read_results,
    run_experiment,
)
from .losses import LOSS_KINDS, LossSpec
from .mlp import MlpSpec, OptimSpec
from .noise import NOISE_KINDS, NoiseSpec
from .theory import gradcheck_losses, gradcheck_mlp, run_verification_suite


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


def _add_override_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON config file; flags override its fields")
    parser.add_argument("--seed", type=int, help="run, init, and noise seed")
    parser.add_argument("--loss", choices=LOSS_KINDS, help="loss kind")
    parser.add_argument("--m", type=float, help="amplification for the eps loss kinds")
    parser.add_argument("--alpha", type=float, help="fit-term weight")
    parser.add_argument("--beta", type=float, help="bounded-term weight")
    parser.add_argument("--gamma", type=float, help="focal exponent")
    parser.add_argument("--q", type=float, help="gce exponent")
    parser.add_argument("--A", type=float, help="sce log-zero stand-in (negative)")
    parser.add_argument("--noise-kind", choices=NOISE_KINDS, help="label corruption kind")
    parser.add_argument("--eta", type=float, help="label corruption rate")
    parser.add_argument("--epochs", type=int)
    parser.add_argument("--batch-size", type=int)
    parser.add_argument("--lr0", type=float)
    parser.add_argument("--momentum", type=float)
    parser.add_argument("--weight-decay", type=float)
    parser.add_argument("--clip-norm", type=float)
    parser.add_argument("--n-train", type=int)
    parser.add_argument("--n-test", type=int)
    parser.add_argument("--n-classes", type=int)
    parser.add_argument("--dim", type=int)
    parser.add_argument("--separation", type=float)
    parser.add_argument(
        "--layer-sizes", help="comma-separated widths, e.g. 8,64,64,4 (input to output)"
    )


def _replace(obj, **changes):
    present = {k: v for k, v in changes.items() if v is not None}
    return dataclasses.replace(obj, **present) if present else obj


def build_config(args: argparse.Namespace, out_path: str | None) -> ExperimentConfig:
    """Merge config file (or defaults) with command-line overrides."""
    if args.config:
        config = load_config_file(args.config)
    else:
        config = default_config(args.seed or 0)

    dataset = _replace(
        config.dataset,
        n_train=args.n_train,
        n_test=args.n_test,
        n_classes=args.n_classes,
        dim=args.dim,
        separation=args.separation,
    )
    loss = _replace(
        config.loss,
        kind=args.loss,
        m=args.m,
        alpha=args.alpha,
        beta=args.beta,
        gamma=args.gamma,
        q=args.q,
        A=args.A,
    )
    noise = _replace(
        config.noise,
        kind=args.noise_kind,
        eta=args.eta,
        n_classes=args.n_classes,
    )
    optim = _replace(
        config.optim,
        epochs=args.epochs,
        batch_size=args.batch_size,
        lr0=args.lr0,
        momentum=args.momentum,
        weight_decay=args.weight_decay,
        clip_norm=args.clip_norm,
    )
    mlp = config.mlp
    if args.layer_sizes is not None:
        try:
            sizes = tuple(int(s) for s in args.layer_sizes.split(","))
        except ValueError:
            raise ConfigError(f"bad --layer-sizes: {args.layer_sizes!r}") from None
        mlp = dataclasses.replace(mlp, layer_sizes=sizes)
    if args.seed is not None:
        mlp = dataclasses.replace(mlp, init_seed=args.seed)
        noise = dataclasses.replace(noise, seed=args.seed)
    config = ExperimentConfig(
        dataset=dataset,
        mlp=mlp,
        loss=loss,
        noise=noise,
        optim=optim,
        seed=args.seed if args.seed is not None else config.seed,
        output_path=out_path if out_path is not None else config.output_path,
    )
    config.validate()
    return config


def _cmd_train(args: argparse.Namespace) -> int:
    config = build_config(args, args.out)
    if config.output_path is None:
        raise ConfigError("no output path: pass --out or set output_path in the config")

    def progress(record):
        if args.log_every and record.epoch % args.log_every == 0:
            print(
                f"epoch {record.epoch:4d}  lr {record.lr:.5f}  "
                f"train_loss {record.train_loss:.5f}  test_top1 {record.test_top1:.4f}  "
                f"({record.wall_time_ms:.0f} ms)",
                file=sys.stderr,
            )

    records, summary = run_experiment(config, on_epoch=progress)
    emit_results(records, summary, config.output_path)
    print(
        json.dumps(
            {
                "out": config.output_path,
                "last_test_top1": summary["last_test_top1"],
                "best_test_top1": summary["best_test_top1"],
                "realized_noise_rate": summary["realized_noise_rate"],
            }
        )
    )
    return 0


def _result_line(config: ExperimentConfig, path: str, summary: dict) -> dict:
    return {
        "out": path,
        "loss": config.loss.kind,
        "eta": config.noise.eta,
        "seed": config.seed,
        "last_test_top1": summary["last_test_top1"],
    }


def _run_one(payload: tuple[dict, str]) -> dict:
    raw, path = payload
    config = config_from_dict(raw)
    records, summary = run_experiment(config)
    emit_results(records, summary, path)
    return _result_line(config, path, summary)


def _reused_result(raw: dict, path: str) -> dict | None:
    """The result line of an existing results file made by this job's config.

    None when there is no file. A file that does not parse, or whose embedded
    config differs from the job's, raises DataError naming it.
    """
    if not os.path.exists(path):
        return None
    _, summary = read_results(path)
    expected = {k: v for k, v in raw.items() if k != "output_path"}
    if summary.get("config") != expected:
        raise DataError(
            f"{path} holds results of another config; remove it or choose another --out-dir"
        )
    return _result_line(config_from_dict(raw), path, summary)


def _parse_list(flag: str, text: str, cast) -> list:
    try:
        return [cast(s) for s in text.split(",")]
    except ValueError:
        raise ConfigError(f"bad {flag}: {text!r}") from None


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
    losses = args.losses.split(",")
    etas = _parse_list("--etas", args.etas, float)
    seeds = _parse_list("--seeds", args.seeds, int)
    for kind in losses:
        if kind not in LOSS_KINDS:
            raise ConfigError(f"unknown loss kind {kind!r}")
    os.makedirs(args.out_dir, exist_ok=True)

    jobs = []
    for kind in losses:
        for eta in etas:
            for seed in seeds:
                sub = argparse.Namespace(**vars(args))
                sub.loss = kind
                sub.eta = eta
                sub.seed = seed
                if eta == 0.0:
                    sub.noise_kind = "none"
                elif args.noise_kind in (None, "none"):
                    sub.noise_kind = "symmetric"
                path = os.path.join(args.out_dir, f"{kind}_eta{eta:g}_seed{seed}.jsonl")
                config = build_config(sub, path)
                jobs.append((config_to_dict(config), path))

    paths = [path for _, path in jobs]
    for path in paths:
        if paths.count(path) > 1:
            raise ConfigError(f"the grid lists {path} more than once")
    # every existing file is checked before any run starts
    reused = [_reused_result(*job) for job in jobs]
    todo = [job for job, done in zip(jobs, reused) if done is None]
    workers = args.jobs or min(4, os.cpu_count() or 1)
    results = []
    with ProcessPoolExecutor(workers) if workers > 1 else contextlib.nullcontext() as pool:
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


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="eps-softmax",
        description="Noise-tolerant classification with an amplified softmax output",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="run one training experiment")
    _add_override_flags(p_train)
    p_train.add_argument("--out", help="results file (line-delimited JSON)")
    p_train.add_argument("--log-every", type=int, default=10, help="progress cadence; 0 silences")
    p_train.set_defaults(func=_cmd_train)

    p_sweep = sub.add_parser("sweep", help="grid of runs over losses, noise rates, seeds")
    _add_override_flags(p_sweep)
    p_sweep.add_argument("--losses", default="ce,ce_eps_mae", help="comma-separated loss kinds")
    p_sweep.add_argument("--etas", default="0,0.2,0.4,0.6", help="comma-separated noise rates")
    p_sweep.add_argument("--seeds", default="0", help="comma-separated seeds")
    p_sweep.add_argument("--out-dir", required=True)
    p_sweep.add_argument("--jobs", type=int, help="parallel workers (default: up to 4)")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_verify = sub.add_parser("verify", help="run the numeric verification suite")
    p_verify.add_argument("--trials", type=int, default=100_000)
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.set_defaults(func=_cmd_verify)

    p_grad = sub.add_parser("gradcheck", help="finite-difference gradient checks")
    p_grad.add_argument("--cases", type=int, default=200)
    p_grad.add_argument("--seed", type=int, default=0)
    p_grad.set_defaults(func=_cmd_gradcheck)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, DataError, TrainingDiverged, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
