#!/usr/bin/env python3
"""Scan nesting slices for midsection swaps and check the pinning bound.

For each slice length n (a multiple of 4) the script builds the L2 slice,
packed, off its position map.  For every window length j <= n/4 it prints
the largest midsection count of the packed slice statistics, the bound, and
whether their whole bound report equals the closed-form ``l2_bound_check``.
Then one exhaustive swap scan over every j <= n/4, at the default cost
limits, prints its witness count (expected: zero).  Any disagreement or
witness is flagged UNEXPECTED.  Seconds are wall-clock.

    PYTHONPATH=src python3 scripts/no_swap_experiment.py --sizes 64,72,80
"""

import argparse
import time

from langlab.corpus import LANGUAGES, is_l2
from langlab.swaplab import bound_report, build_slice, l2_bound_check, slice_stats, swap_scan


def main() -> None:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument(
        "--sizes", default="8,16,24", help="comma-separated slice lengths (multiples of 4)"
    )
    args = parser.parse_args()
    sizes = [int(t) for t in args.sizes.split(",")]

    def row(n, size, j, max_count="", bound="", agrees="", witnesses="", secs=0.0, ok=True):
        flag = "" if ok else "  <-- UNEXPECTED"
        print(
            f"{n:>4} {size:>8} {j:>5} {max_count:>10} {bound:>8} {agrees:>6} {witnesses:>9} "
            f"{secs:>7.2f}{flag}"
        )

    print(f"{'n':>4} {'|S|':>8} {'j':>5} {'max count':>10} {'bound':>8} {'agrees':>6} ", end="")
    print(f"{'witnesses':>9} {'secs':>7}")
    for n in sizes:
        started = time.perf_counter()
        slice_ = build_slice(LANGUAGES["L2"], n)
        row(n, len(slice_), "build", secs=time.perf_counter() - started)
        for j in range(1, n // 4 + 1):
            started = time.perf_counter()
            report = bound_report(slice_stats(slice_, j))
            agrees = report == l2_bound_check(n, j)
            secs = time.perf_counter() - started
            yes, ok = ("yes" if agrees else "no"), report.ok and agrees
            row(n, len(slice_), j, report.max_count, report.bound, yes, "", secs, ok)
        started = time.perf_counter()
        witnesses = swap_scan(is_l2, slice_, (1, n // 4))
        secs = time.perf_counter() - started
        row(n, len(slice_), f"1..{n // 4}", witnesses=len(witnesses), secs=secs, ok=not witnesses)


if __name__ == "__main__":
    main()
