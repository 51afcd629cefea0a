"""Time one fresh set-up: import, fixture parsing and scenario generation.

    python3 bench/setup_probe.py <workload> <seed> <size>

Prints the elapsed seconds; ``run.py`` runs it several times and reports
the median as ``setup_s``.
"""

import sys
import time

t0 = time.perf_counter()
import workloads  # noqa: E402  (the import of pvcosim is part of what is timed)

workloads.setup(sys.argv[1], int(sys.argv[2]), sys.argv[3])
print(time.perf_counter() - t0)
