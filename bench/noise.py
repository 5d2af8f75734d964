"""The machine's noise floor: the reference loop (reference.py), timed for a
while.

    python3 bench/noise.py

Times the loop for SECONDS and prints, for windows of several lengths, the
spread (q3 - q1) / median of the per-window median loop time. No pass_s
spread can be expected to fall below this on the same machine.
"""

from __future__ import annotations

import statistics
import time

import reference

SECONDS = 240
WINDOWS = (5, 20, 40)


def main() -> int:
    samples = []
    start = time.monotonic()
    while time.monotonic() - start < SECONDS:
        samples.append((time.monotonic() - start, reference.time_loop()))
    print(f"{len(samples)} loops in {SECONDS} s, median "
          f"{statistics.median(d for _, d in samples):.4f} s")
    for window in WINDOWS:
        medians = []
        for k in range(SECONDS // window):
            inside = [d for t, d in samples if k * window <= t < (k + 1) * window]
            if inside:
                medians.append(statistics.median(inside))
        if len(medians) < 4:
            continue
        q1, median, q3 = statistics.quantiles(medians, n=4)
        print(f"{window:3d} s windows: {len(medians):3d}, spread of their medians "
              f"{100 * (q3 - q1) / median:5.1f}%, range {min(medians) / median:.3f}-"
              f"{max(medians) / median:.3f} of the median")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
