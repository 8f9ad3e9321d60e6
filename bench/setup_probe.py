"""Time one set-up of a workload in a fresh interpreter.

Usage: python3 bench/setup_probe.py WORKLOAD SEED WORKDIR

Imports clasplab (through the workload module) and builds the workload's
inputs, then prints the seconds that took and the milliseconds of the
host-speed kernel right after it (median of three passes, see hostspeed.py).
``bench/run.py`` starts several of these and reports the median normalised
time as ``setup_s``; the interpreter's own start is not included.
"""

import sys
import time
from pathlib import Path

if __name__ == "__main__":
    name, seed, workdir = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    t0 = time.perf_counter()
    import workloads
    workloads.WORKLOADS[name].setup(seed, workdir)
    seconds = time.perf_counter() - t0
    # Imported only now, so that the set-up pays for all of its own imports.
    import statistics

    import hostspeed
    print(seconds, statistics.median(hostspeed.KERNEL.ms() for _ in range(3)))
