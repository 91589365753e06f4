"""Calibration process: times a fixed piece of pure-Python work on request.

run.py starts it before the program is imported and keeps it for the run.
For each line n read from stdin it runs the work n times and writes the
median seconds.  The work is the oracle's order closure and reachability
on one fixed 250-world order, about 10 ms: work of the kind the program
does, owned by the benchmark so that no change to the program touches it,
and run in a process of its own so that the program's heap does not slow
it.
"""

from __future__ import annotations

import gc
import random
import statistics
import sys
import time

import oracle
from jobs import big_model


def main() -> None:
    text = big_model(random.Random("calibration"), 250, clusters=3)
    formula = oracle.reach(oracle.atom("p"), oracle.atom("q"))
    gc.disable()  # the work makes no reference cycles
    for line in sys.stdin:
        times = []
        for _ in range(int(line)):
            start = time.perf_counter()
            oracle.Model.from_text(text).ext(formula)
            times.append(time.perf_counter() - start)
        print(statistics.median(times), flush=True)


if __name__ == "__main__":
    main()
