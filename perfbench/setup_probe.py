"""Time a fresh interpreter's set-up for one workload.

    python3 perfbench/setup_probe.py SRC_DIR PROBLEM_FILE...

Imports ``solvpoly`` from SRC_DIR, parses every problem file once with
``parse_problem`` and builds its algebra.  Prints the seconds this took,
counted from the first line of this script, raw and at the reference
speed of ``speed.py``.
"""

import time

T0 = time.perf_counter()

import sys  # noqa: E402

import speed  # noqa: E402


def main():
    sampler = speed.SpeedSampler(period_s=0.005)
    sampler.start()
    sys.path.insert(0, sys.argv[1])
    from solvpoly.cli import parse_problem
    for path in sys.argv[2:]:
        parse_problem(path).algebra
    t1 = time.perf_counter()
    sampler.stop()
    print(repr(t1 - T0), repr(sampler.seconds(T0, t1)))


if __name__ == "__main__":
    main()
