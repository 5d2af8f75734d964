"""A fixed pure-Python loop that tracks the speed of the machine.

The machine's speed drifts by 10-25% over minutes (README.md, "Noise
floor"), so pass_s and setup_s are wall times scaled to the speed at which
loop() takes REFERENCE_S: wall * REFERENCE_S / time of loop(). The loop is
always timed in a process that never imports annocamp, so whatever the
program does to its own process (a trace hook, tracemalloc, a background
thread holding the interpreter lock) slows the pass but not the reference,
and shows in the scaled figures. Only the machine's drift is divided out.

Run as a script, it serves a Timer: for each line read from standard input
it times loop() once and writes the seconds as one line.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time

LOOPS = 1_000_000
REFERENCE_S = 0.1


def loop() -> int:
    total = 0
    for i in range(LOOPS):
        total += i * i % 7
    return total


def time_loop() -> float:
    start = time.perf_counter()
    loop()
    return time.perf_counter() - start


def median_loop(times: int) -> float:
    return statistics.median(time_loop() for _ in range(times))


class Timer:
    """Times loop() in a child process of its own, one loop per call."""

    def __init__(self) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, __file__], stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            text=True,
        )

    def time(self) -> float:
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("the reference process ended early")
        return float(line)

    def close(self) -> None:
        """Stop the child and wait until it has ended."""
        try:
            self.proc.stdin.close()
            self.proc.wait(timeout=10)
        except (OSError, subprocess.TimeoutExpired):
            self.proc.kill()
            self.proc.wait()
        finally:
            self.proc.stdout.close()


def serve() -> None:
    for _ in sys.stdin:
        print(repr(time_loop()), flush=True)


if __name__ == "__main__":
    serve()
