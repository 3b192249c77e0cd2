"""One fresh-process set-up: import plastinfer, build the first dataset and target.

Prints ``{"import_s": ..., "build_s": ...}`` as its only line. ``run.py``
starts this several times per run and times each process from outside.

    python3 bench/setup_probe.py --workload lenh-double --seed 1
"""

from __future__ import annotations

import argparse
import json
import tempfile
import time
from pathlib import Path

start = time.perf_counter()
import workloads  # noqa: E402  (the import of plastinfer is what is being timed)

imported = time.perf_counter()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    factory, _ = workloads.WORKLOADS[args.workload]
    with tempfile.TemporaryDirectory(prefix=".bench-", dir=Path(__file__).resolve().parents[1]) as work:
        build_start = time.perf_counter()
        factory(args.seed, Path(work)).target(0)
        build_s = time.perf_counter() - build_start
    print(json.dumps({"import_s": imported - start, "build_s": build_s}))


if __name__ == "__main__":
    main()
