#!/usr/bin/env python3
"""Sweep the built-in power-law long-memory family.

For each epsilon and depth, report the sensitivity row sum, the margin of
the row-sum uniqueness criterion, the reported truncation tail, and the
largest feasible log-decay rate.
"""

import argparse

from lislab import build_sensitivity_matrix, dobrushin_check, fit_decay_rate, power_law_linear
from lislab.bounds import BoundNotApplicableError


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--epsilons", default="0.25,0.5,0.75")
    parser.add_argument("--depths", default="8,16,32,64")
    args = parser.parse_args()

    try:  # every kernel is built before the table starts, so a bad value prints no rows
        kernels = [
            (eps, depth, power_law_linear(eps, depth))
            for eps in (float(x) for x in args.epsilons.split(","))
            for depth in (int(x) for x in args.depths.split(","))
        ]
    except ValueError as exc:
        parser.error(f"--epsilons {args.epsilons} --depths {args.depths}: {exc}")
    print(f"{'eps':>5} {'depth':>5} {'row_sum':>12} {'margin':>12} {'tail':>12} {'log_rate':>10}")
    for eps, depth, f in kernels:
        alpha = build_sensitivity_matrix(f)
        verdict = dobrushin_check(alpha)
        try:
            rate = fit_decay_rate(alpha, "powerlog").rate
        except BoundNotApplicableError:
            rate = float("nan")
        print(
            f"{eps:5.2f} {depth:5d} {verdict.scalars['row_sum_sup']:12.8f} "
            f"{verdict.scalars['margin']:12.8f} {verdict.truncation_tail:12.8f} {rate:10.5f}"
        )


if __name__ == "__main__":
    main()
