"""One set-up of a workload in a fresh interpreter, for ``setup_s``.

Usage: ``python3 perfbench/probe.py WORKLOAD SEED WORKDIR``.  Imports the
program, sets the workload up, prints its phase times as one JSON line
the moment set-up is done (the parent stops its clock on that line),
then shuts down what set-up started and exits.
"""

import time

_START = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import json  # noqa: E402

import run  # noqa: E402

run.pin_threads()  # before NumPy loads

from workloads import WORKLOADS  # noqa: E402


def main(workload: str, seed: int, workdir: Path) -> None:
    imported = time.perf_counter()
    run.exit_on_sigterm()
    bench = WORKLOADS[workload](seed, workdir)
    try:
        phases = bench.setup()
        phases["setup.import_s"] = imported - _START
        print(json.dumps(phases), flush=True)
    finally:
        bench.close()


if __name__ == "__main__":
    main(sys.argv[1], int(sys.argv[2]), Path(sys.argv[3]))
