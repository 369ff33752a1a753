"""Times the single calls that ROADMAP.md lists as its Baseline points.

    python3 perfbench/reference.py [--repeats N]

Run from the root of a source checkout.  Each point is the median of N
calls (default 3) in this process after one untimed call; the import
point is the median of N fresh interpreters.  These are reference
figures for README.md, not benchmark metrics.
"""

from __future__ import annotations

import argparse
import io
import os
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import qrstats  # noqa: E402
from qrstats import cli  # noqa: E402


def exceptional(workers: int):
    argv = ["exceptional", "--q", "1000000", "--u-samples", "10", "--seed", "1",
            "--h-list", "5,10,20,30", "--workers", str(workers)]
    return lambda: cli.main(argv)


POINTS = [
    ("incomplete_char_sum(10**6, 999983)", lambda: qrstats.incomplete_char_sum(10**6, 999983)),
    ("rough_partition(0.1, 10**6, 1000003)", lambda: qrstats.rough_partition(0.1, 10**6, 1000003)),
    ("rough_char_sum(0.1, 10**6, 1000003)", lambda: qrstats.rough_char_sum(0.1, 10**6, 1000003)),
    ("proof_trace(10**5, 0, 50, 0.1)", lambda: qrstats.proof_trace(10**5, 0, 50, 0.1)),
    ("exceptional 10-u, 1 worker", exceptional(1)),
    ("exceptional 10-u, 2 workers", exceptional(2)),
    ("primes_in(10**12, 10**12 + 10**7)", lambda: qrstats.primes_in(10**12, 10**12 + 10**7)),
    ("primes_in(2, 10**7)", lambda: qrstats.primes_in(2, 10**7)),
    ("burgess_sweep(100, 10**4, 10**6)", lambda: qrstats.burgess_sweep(100, 10**4, 10**6)),
    ("erdos_mean(10**6), 1 worker", lambda: qrstats.erdos_mean(10**6)),
    ("erdos_mean(10**7), 2 workers", lambda: qrstats.erdos_mean(10**7, workers=2)),
]


def median_time(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        with redirect_stdout(io.StringIO()):
            fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--repeats", type=int, default=3)
    repeats = parser.parse_args().repeats
    for label, fn in POINTS:
        with redirect_stdout(io.StringIO()):
            fn()
        print(f"{median_time(fn, repeats):8.3f} s  {label}", flush=True)
    cmd = [sys.executable, "-c", "import qrstats.cli"]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    print(f"{median_time(lambda: subprocess.run(cmd, env=env, check=True), repeats):8.3f} s  "
          "fresh interpreter: import qrstats.cli")


if __name__ == "__main__":
    main()
