"""Set-up probe: one fresh interpreter imports tlspin and builds a workload's inputs.

    python3 perfbench/setup_child.py <workload> <seed> <scratch dir>

Prints {"import_s": ..., "inputs_s": ...} on stdout.  run.py starts several
of these and times each from start to exit.
"""

import json
import sys
import time
from pathlib import Path

start = time.perf_counter()
import common  # noqa: E402 - must pin BLAS threads before numpy loads

common.prepare()
import tlspin  # noqa: E402,F401

imported = time.perf_counter()
import workloads  # noqa: E402

workload, seed, workdir = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
workloads.make_inputs(workload, seed, workdir)
built = time.perf_counter()
print(json.dumps({"import_s": imported - start, "inputs_s": built - imported}))
