"""Set-up probe: ``probe.py WORKLOAD SEED WORKDIR``.

Starts like a benchmark run does, imports the package and generates the
workload's seeded inputs, then prints ``ready``.  The parent times the
interval from spawn to that line as one set-up sample.
"""

from __future__ import annotations

import sys
from pathlib import Path

from env import require_package

require_package()

import workloads  # noqa: E402

if __name__ == "__main__":
    name, seed, workdir = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    if name == "cli_pipeline":
        import boundbell.cli  # noqa: F401  every CLI child starts with this import
    workloads.WORKLOADS[name].make_inputs(seed, workdir)
    print("ready", flush=True)
