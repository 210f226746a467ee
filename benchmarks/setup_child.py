"""A fresh interpreter importing ``fano21.cli``, then sampling the
host-speed reference.

    python3 benchmarks/setup_child.py

fano21 is imported first, so that nothing the benchmark imports is
already loaded for it.  The last line of standard output is a JSON
object: ``refs``, SETUP_REFS reference times run right after the import
in this process, and ``tail_s``, the time from the end of the import to
that line, which the caller subtracts from the process's wall time.
"""

import time

import fano21.cli  # noqa: F401

imported = time.perf_counter()

import json  # noqa: E402

import hostspeed  # noqa: E402

SETUP_REFS = 6

refs = [hostspeed.sample(1) for _ in range(SETUP_REFS)]
print(json.dumps({"refs": refs, "tail_s": time.perf_counter() - imported}))
