"""Benchmark worker: a fresh process that imports the library and runs one workload.

Started by run.py:
    python3 perfbench/worker.py ROOT probe
    python3 perfbench/worker.py ROOT run WORKLOAD SEED SECONDS TRACE WORKDIR

The worker prints ``ready`` as soon as ``anarchy`` and its command-line module
are imported from ROOT/src; the parent times that as set-up.  A probe stops
there.  A run then executes jobs in a closed loop (see loop.py) and prints one
JSON line with its results.
"""
from __future__ import annotations

import os
import sys


def boot(root: str) -> None:
    """Import the library from ROOT/src, refuse any other copy, report ready."""
    src = os.path.join(os.path.abspath(root), "src")
    sys.path.insert(0, src)
    import anarchy
    import anarchy.cli  # noqa: F401

    if not os.path.abspath(anarchy.__file__).startswith(os.path.join(src, "anarchy") + os.sep):
        sys.exit(f"anarchy imported from {anarchy.__file__}, not from {src}")
    print("ready", flush=True)


def main() -> None:
    boot(sys.argv[1])
    if sys.argv[2] == "probe":
        return
    import json

    import loop

    workload, seed, seconds, trace, workdir = sys.argv[3:8]
    print(json.dumps(loop.run(workload, int(seed), float(seconds), trace == "1", workdir)),
          flush=True)


if __name__ == "__main__":
    main()
