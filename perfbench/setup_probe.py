"""Time set-up in a fresh interpreter: import bellforge and build a workload's inputs.

    python3 perfbench/setup_probe.py <workload>

Prints the set-up seconds and a calibration sample taken right after it.
``run.py`` starts this several times per run and reports the rescaled median.
"""

import sys
import time
from pathlib import Path

t0 = time.perf_counter()
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
import workloads  # noqa: E402

workloads.WORKLOADS[sys.argv[1]]()
seconds = time.perf_counter() - t0

import calibrate  # noqa: E402

print(seconds, calibrate.sample())
