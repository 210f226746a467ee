"""``python -m fano21.cli verify-all --format json`` in this fresh process,
with the host-speed reference sampled during it.

    python3 benchmarks/certify_child.py REFS_FILE

A real-time interval timer runs ``hostspeed.sample(1)`` every
SAMPLE_PERIOD_S between bytecodes of the main thread, so the samples see
the core the certificates run on, while they run.  On exit the sample
times go to REFS_FILE as a JSON list of seconds.
"""

from __future__ import annotations

import json
import runpy
import signal
import sys

import hostspeed

SAMPLE_PERIOD_S = 0.1


def main() -> None:
    refs_file = sys.argv[1]
    refs: list[float] = []
    signal.signal(signal.SIGALRM, lambda signum, frame: refs.append(hostspeed.sample(1)))
    signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
    sys.argv = ["fano21.cli", "verify-all", "--format", "json"]
    try:
        runpy.run_module("fano21.cli", run_name="__main__", alter_sys=True)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        with open(refs_file, "w") as handle:
            json.dump(refs, handle)


if __name__ == "__main__":
    main()
