"""One fresh-process set-up: import pinchtrace, then build a workload's inputs.

    python3 perfbench/setup_probe.py <workload> <seed> <input dir>

Prints {"import_s": ..., "build_s": ...}; run.py takes the median over
several of these processes as setup_s.
"""

import json
import sys
import time
from pathlib import Path

t0 = time.perf_counter()
import pinchtrace  # noqa: E402,F401

t1 = time.perf_counter()
import workloads  # noqa: E402

t2 = time.perf_counter()
workloads.build(sys.argv[1], int(sys.argv[2]), Path(sys.argv[3]))
t3 = time.perf_counter()
print(json.dumps({"import_s": t1 - t0, "build_s": t3 - t2}))
