"""Set-up probe: a fresh interpreter imports hotpool and runs item 0.

    python3 bench/probe.py --workload NAME --seed N --workdir DIR

Prints {"setup_s": ...}: the time to import hotpool (with hotpool.cli, as
`python -m hotpool` does) plus the time of the workload's first item.
Generating that item's inputs, in DIR for cli, is not counted.
"""

import time

T0 = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
import hotpool.cli  # noqa: E402,F401

T1 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402

import workloads  # noqa: E402


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args()
    wl = workloads.WORKLOADS[args.workload]
    st = wl.setup(args.seed, args.workdir)
    a = wl.prepare(st, 0)
    t2 = time.perf_counter()
    wl.run(st, a)
    t3 = time.perf_counter()
    print(json.dumps({"setup_s": (T1 - T0) + (t3 - t2)}))


if __name__ == "__main__":
    main()
