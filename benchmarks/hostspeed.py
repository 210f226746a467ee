"""A fixed pure-Python reference loop, timed next to every operation.

The benchmark runs on a few cores of a shared host.  How fast those cores
run Python changes by ±25% over seconds to minutes, with the load of other
tenants, while the process's CPU time still tracks its wall time.  A plain
wall-clock latency then measures the host as much as the program.

So the timed runs run ``reference()`` right after each operation (twice,
keeping the faster) and scale the operation's time by how fast the
reference ran around it: ``time * REFERENCE_S / local``, where ``local``
is the median reference time over the operation's neighbours.  A
``verify-all`` pass, too long for that, samples the reference inside its
own process while it runs (``certify_child.py``).  The result is the
operation's time on a host on which the reference loop takes exactly
``REFERENCE_S``.  A change to the program moves it; a change in host
speed, which slows the reference about as much as the program, does not.

The loop does what the program's hot paths do: it composes permutations
of degree 7 as tuples, looks them up in a set and builds small sorted
lists keyed by pairs.  It does not call fano21.
"""

from __future__ import annotations

import random
import statistics
import time
from itertools import combinations

# The scale of every normalised time: about what the loop takes on an
# unloaded 2-vCPU Intel Xeon with Python 3.11.
REFERENCE_S = 0.004

_rng = random.Random(0)
_PERMS = [tuple(_rng.sample(range(7), 7)) for _ in range(40)]
_PAIRS = tuple(combinations(range(60), 2))


def reference() -> int:
    seen = set(_PERMS)
    hits = 0
    for p in _PERMS:
        for q in _PERMS:
            r = tuple(p[x] for x in q)
            hits += r in seen
            seen.add(r)
    table = {}
    for i, (a, b) in enumerate(_PAIRS):
        table[(a, b)] = sorted((a, b, i % 7))
    return hits + len(table)


def sample(repeats: int = 2) -> float:
    """The fastest of ``repeats`` timed reference loops, in seconds."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        reference()
        best = min(best, time.perf_counter() - start)
    return best


def normalise(times: list[float], refs: list[float], window: int = 2) -> list[float]:
    """Scale ``times[i]`` by the median of ``refs[i-window : i+window+1]``.

    ``refs[i]`` is the reference sample taken right after operation i."""
    out = []
    for i, t in enumerate(times):
        local = statistics.median(refs[max(0, i - window): i + window + 1])
        out.append(t * REFERENCE_S / local)
    return out


def normalise_sampled(time_s: float, refs: list[float]) -> float:
    """Scale one long operation by the mean of the samples taken during
    it (see ``certify_child.py``); unscaled if there are none."""
    return time_s * REFERENCE_S / statistics.fmean(refs) if refs else time_s
