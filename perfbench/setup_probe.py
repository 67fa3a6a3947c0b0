"""Set-up probe, run in a fresh interpreter by run.py.

Prints the seconds from `import grandnoma` until the workload's first trial
has returned: the package import (numpy, and scipy through the theory
module), the CRC table build and any decoder cache built on first use.
Then prints the calibration kernel's time, measured in this process so that
it sees the same CPU as the set-up did.

    python3 perfbench/setup_probe.py <workload> <seed>
"""

import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

started = time.perf_counter()
import grandnoma  # noqa: E402,F401  (timed on purpose)
from workloads import WORKLOADS  # noqa: E402

WORKLOADS[sys.argv[1]].first_trial(int(sys.argv[2]))
elapsed = time.perf_counter() - started

from calibrate import kernel_seconds  # noqa: E402

print(repr(elapsed), repr(kernel_seconds()))
