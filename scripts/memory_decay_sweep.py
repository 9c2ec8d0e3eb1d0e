#!/usr/bin/env python3
"""Loss-of-memory sweep: analytic bound vs exact oscillation.

Emits CSV rows (n, bound, exact, ratio) for a two-state chain, probing
how much the window average of a single-site indicator at site n still
depends on the site just left of the window.
"""

import argparse
import sys

from lislab import (
    build_sensitivity_matrix,
    exact_oscillation_rows,
    indicator,
    memory_bound_rows,
    two_state_markov,
)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--p01", type=float, default=0.3)
    parser.add_argument("--p11", type=float, default=0.7)
    parser.add_argument("--max-n", type=int, default=10)
    args = parser.parse_args()

    f = two_state_markov(args.p01, args.p11)
    alpha = build_sensitivity_matrix(f)
    writer = sys.stdout
    writer.write("n,bound,exact,ratio\n")
    h0 = indicator(0, 1, f.alphabet)
    bounds = memory_bound_rows(alpha, h0, -1, args.max_n)
    exact_rows = exact_oscillation_rows(f, h0, -1, args.max_n)
    for n, (bound, exact) in enumerate(zip(bounds, exact_rows), 1):
        ratio = exact / bound if bound else float("nan")
        writer.write(f"{n},{bound:.17g},{exact:.17g},{ratio:.6f}\n")


if __name__ == "__main__":
    main()
