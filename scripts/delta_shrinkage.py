#!/usr/bin/env python3
"""Tabulate how the symmetric-sum spread and the one-hot distance bound shrink
as the amplification m grows.

The spread column is the Monte Carlo sup of symmetric-sum differences over
random prediction pairs; the bound column is sqrt(1 - 1/K) / (m + 1). Both
should fall monotonically along m: the script exits 2 when the spread does
not strictly decrease, and 1 with an error line on bad arguments, such as
an --ms list of fewer than two values.

Example:
    python3 scripts/delta_shrinkage.py --classes 10 --ms 1,10,100,1000,10000
"""

import argparse
import math
import sys

from eps_softmax.errors import ConfigError
from eps_softmax.theory import delta_sweep
from eps_softmax.transform import eps_bound


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--classes", type=int, default=10)
    parser.add_argument("--ms", default="1,10,100,1000,10000")
    parser.add_argument("--trials", type=int, default=1000)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    try:
        ms = [float(s) for s in args.ms.split(",")]
        if not all(map(math.isfinite, ms)):
            raise ConfigError(f"--ms must list finite numbers, got {args.ms!r}")
        report = delta_sweep(args.classes, ms, trials=args.trials, seed=args.seed)
        bounds = [eps_bound(args.classes, m) for m in ms]
    except ValueError as exc:  # a bad --ms entry, or a ConfigError
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"{'m':>10}  {'spread':>12}  {'distance bound':>14}")
    for m, delta, bound in zip(ms, report.stats["deltas"], bounds):
        print(f"{m:10g}  {delta:12.4f}  {bound:14.6f}")
    if not report.passed:
        print("warning: spread did not decrease monotonically", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
