#!/usr/bin/env python3
"""Tabulate how the symmetric-sum spread and the one-hot distance bound shrink
as the amplification m grows.

The spread column is the Monte Carlo sup of symmetric-sum differences over
random prediction pairs; the bound column is sqrt(1 - 1/K) / (m + 1). Both
should fall monotonically along m: the script exits 2 when the spread does
not strictly decrease, and 1 with one error line on bad arguments: an
unknown or malformed flag, or an --ms list of fewer than two values.

Example:
    python3 scripts/delta_shrinkage.py --classes 10 --ms 1,10,100,1000,10000
"""

import sys

from eps_softmax.cli import Parser, finite, int64
from eps_softmax.theory import delta_sweep
from eps_softmax.transform import eps_bound


def finite_list(text: str) -> list[float]:
    return [finite(s) for s in text.split(",")]


def main() -> int:
    parser = Parser(description=__doc__.splitlines()[0])
    parser.add_argument("--classes", type=int64, default=10)
    parser.add_argument("--ms", type=finite_list, default="1,10,100,1000,10000")
    parser.add_argument("--trials", type=int64, default=1000)
    parser.add_argument("--seed", type=int64, default=0)

    try:
        args = parser.parse_args()
        report = delta_sweep(args.classes, args.ms, trials=args.trials, seed=args.seed)
        bounds = [eps_bound(args.classes, m) for m in args.ms]
    except ValueError as exc:  # ConfigError: a bad flag, or too few m values
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"{'m':>10}  {'spread':>12}  {'distance bound':>14}")
    for m, delta, bound in zip(args.ms, report.stats["deltas"], bounds):
        print(f"{m:10g}  {delta:12.4f}  {bound:14.6f}")
    if not report.passed:
        print("warning: spread did not decrease monotonically", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
