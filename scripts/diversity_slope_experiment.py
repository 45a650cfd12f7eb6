#!/usr/bin/env python3
# Estimate the log-log outage slope by Monte Carlo and compare it to the
# l * (1 - zeta) diversity order.  Thresholds track the allocation schedule so
# every grid point stays measurable.  Exits 2 with "config error: ..." on
# stderr when an argument is out of range.

import argparse
import sys

from amqd import ConfigError, diversity_slope_scan


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--l", type=int, action="append",
                    help="sub-channel count, repeatable (default 1 2 3)")
    ap.add_argument("--zeta", type=float, default=0.0)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--snr-min", type=float, default=1e2)
    ap.add_argument("--snr-max", type=float, default=1e4)
    ap.add_argument("--points", type=int, default=5)
    ap.add_argument("--anchor", type=float, default=0.05,
                    help="outage probability at the lowest SNR point")
    ap.add_argument("--target-errors", type=int, default=400,
                    help="expected importance-sampling hits per point; sets trial "
                         "counts (at least 100000 each)")
    ap.add_argument("--workers", type=int, default=1)
    args = ap.parse_args(argv)

    for l in (args.l or [1, 2, 3]):
        try:
            res = diversity_slope_scan(
                l, args.zeta, seed=args.seed + l,
                snr_min=args.snr_min, snr_max=args.snr_max, num_points=args.points,
                anchor_probability=args.anchor, target_errors=args.target_errors,
                workers=args.workers,
            )
        except ConfigError as exc:
            print("config error: %s" % exc, file=sys.stderr)
            return 2
        order = l * (1.0 - args.zeta)
        print("l=%d: slope %.4f (diversity order %.2f)" % (l, res.slope, order))
        for snr, thr, est in zip(res.snr, res.thresholds, res.estimates):
            print("  snr %.4g thr %.4g p_hat %.4g ci [%.4g, %.4g] estimator %s hits %d of %d"
                  % (snr, thr, est.p_hat, est.ci_low, est.ci_high, est.estimator,
                     est.errors_observed, est.trials))
    return 0


if __name__ == "__main__":
    sys.exit(main())
