#!/usr/bin/env python3
"""Finite-volume convergence from two extreme pasts.

Deepening the averaging window from the all-zeros and all-ones pasts
produces two sequences that squeeze toward the stationary expectation;
for a two-state chain the gap contracts geometrically.  Printed purely
as an observational table.  The window ``[-n, 0]`` is enumerated whole,
so ``--max-n`` stops where its configurations pass the cap (11 here).
"""

import argparse

from lislab import (
    Window,
    compose_window,
    indicator,
    stationary_expectations,
    two_state_markov,
)
from lislab.core import DEFAULT_CONFIG_CAP, exceeds_cap


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--p01", type=float, default=0.3)
    parser.add_argument("--p11", type=float, default=0.7)
    parser.add_argument("--max-n", type=int, default=10)
    args = parser.parse_args()

    try:
        f = two_state_markov(args.p01, args.p11)
    except ValueError as exc:
        parser.error(f"--p01 {args.p01} --p11 {args.p11}: {exc}")
    if exceeds_cap(f.alphabet.size, args.max_n + 1, DEFAULT_CONFIG_CAP):
        parser.error(
            f"--max-n {args.max_n}: the window [-{args.max_n}, 0] has more than "
            f"{DEFAULT_CONFIG_CAP} configurations"
        )
    h = indicator(0, 1, f.alphabet)
    print(f"stationary expectation: {stationary_expectations(f, [h])[0]:.12f}")
    print(f"{'n':>3} {'from all-0':>14} {'from all-1':>14} {'gap':>14}")
    for n in range(0, args.max_n + 1):
        window = Window(-n, 0)
        lo = compose_window(f, window, (0,), h)
        hi = compose_window(f, window, (1,), h)
        print(f"{n:3d} {lo:14.10f} {hi:14.10f} {abs(hi - lo):14.10f}")


if __name__ == "__main__":
    main()
