#!/usr/bin/env python3
"""Scan nesting slices for midsection swaps and report the pinning bound.

For each slice size the script prints the slice cardinality, the largest
midsection count against its bound for every window length up to a quarter
of the slice, and the number of swap witnesses (expected: zero everywhere).
"""

import argparse
import time

from langlab.corpus import LANGUAGES, is_l2
from langlab.swaplab import bound_report, build_slice, slice_stats, swap_scan


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--sizes", default="8,16,24", help="comma-separated slice lengths (multiples of 4)"
    )
    args = parser.parse_args()
    sizes = [int(t) for t in args.sizes.split(",")]

    print(f"{'n':>4} {'|S|':>6} {'j':>3} {'max count':>10} {'bound':>6} {'witnesses':>10} {'secs':>7}")
    for n in sizes:
        slice_ = build_slice(LANGUAGES["L2"], n)
        for j in range(1, n // 4 + 1):
            report = bound_report(slice_stats(slice_, j))
            started = time.perf_counter()
            witnesses = swap_scan(is_l2, slice_, (j, j))
            elapsed = time.perf_counter() - started
            flag = "" if report.ok and not witnesses else "  <-- UNEXPECTED"
            print(
                f"{n:>4} {len(slice_):>6} {j:>3} {report.max_count:>10} "
                f"{report.bound:>6} {len(witnesses):>10} {elapsed:>7.2f}{flag}"
            )


if __name__ == "__main__":
    main()
