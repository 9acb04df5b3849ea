"""Set-up probe: what a fresh interpreter pays before a workload's first call.

Usage: python3 probe.py WORKLOAD SEED WORKDIR

It imports pdom, writes the inputs of the workload's first pass into
WORKDIR and runs `pdom gamma --gen path:6 --p 1/2`, checking its output.
run.py times the whole process, interpreter start-up included, and reports
the median of several probes as setup_s. Exit code 0 means the call was
right, 1 that it was not.
"""

import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
sys.path.insert(1, str(Path(__file__).resolve().parents[1] / "tests"))

import workloads  # noqa: E402  (needs the paths above)

EXPECTED = "gamma_p = 1\nwitness = {1}\ncovered = 3 of 6 (target 3)\n"


def main(argv: list[str]) -> int:
    name, seed, workdir = argv
    workloads.WORKLOADS[name].make_pass(random.Random(int(seed)), Path(workdir))
    code, out, _ = workloads.cli(["gamma", "--gen", "path:6", "--p", "1/2"])
    return 0 if code == 0 and out == EXPECTED else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
