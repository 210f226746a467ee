"""Outside-in tracing of the fano21 layers.

The tracer wraps public functions of the package from the benchmark's
side.  A module-level function can be bound under several names (the
package re-exports many functions, and modules import them from each
other with ``from .x import f``), so every binding of the original in
every loaded ``fano21`` module is replaced.  The two ``TripleSystem``
methods are replaced on the class, and the certificate checks also in
``certificates.ALL_CHECKS``, which ``run_check`` dispatches through.

Per traced function the tracer keeps the call count, the inclusive time
and the self time (inclusive time minus the inclusive time of directly
nested traced calls).  Full spans (name, start, end, parent span,
operation id) are kept in memory for every traced function except the
fine-grained primitives in ``AGGREGATE_ONLY``, whose millions of calls
are only counted and timed.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

TARGETS = {
    "steiner": (
        "TripleSystem.third_point",
        "TripleSystem.block_through",
        "isomorphisms",
        "isomorphisms_bruteforce",
        "validate_sts",
        "all_fano_planes",
        "are_orthogonal",
    ),
    "perms": ("compose", "group_from_elements"),
    "orient": (
        "oriented_automorphism_group",
        "derived_plane",
        "validate_orientation",
        "all_circuits",
    ),
    "embed": (
        "embedding_isomorphisms",
        "color_automorphism_group",
        "classify_triangular",
        "trace_faces",
        "two_coloring",
        "validate_rotation",
    ),
    "kirkman": (
        "fano_subplanes",
        "parallel_classes",
        "sts_automorphism_group15",
        "kts_automorphism_group",
    ),
    "octonion": (
        "cartan_table",
        "multiply",
        "algebra_automorphism_perms",
        "is_algebra_automorphism",
    ),
    "cli": ("main",),
}

# Span names whose calls are counted and timed but not kept as spans.
AGGREGATE_ONLY = frozenset(
    {
        "steiner.third_point",
        "steiner.block_through",
        "perms.compose",
        "octonion.multiply",
        "octonion.is_algebra_automorphism",
    }
)


def span_name(module: str, qualname: str) -> str:
    """``steiner`` + ``TripleSystem.third_point`` -> ``steiner.third_point``."""
    return f"{module}.{qualname.rsplit('.', 1)[-1]}"


def fano21_modules() -> list:
    return [
        mod
        for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == "fano21" or name.startswith("fano21."))
    ]


def originals() -> dict[str, object]:
    """Span name -> original function, for every traced function."""
    out = {}
    for module, qualnames in TARGETS.items():
        mod = importlib.import_module(f"fano21.{module}")
        for qualname in qualnames:
            owner = mod
            *outer, attr = qualname.split(".")
            for part in outer:
                owner = getattr(owner, part)
            out[span_name(module, qualname)] = vars(owner)[attr]
    certificates = importlib.import_module("fano21.certificates")
    for cert, func in certificates.ALL_CHECKS:
        out[f"certificates.{cert}"] = func
    return out


def find_bindings(objects: dict) -> list[tuple[object, object, object]]:
    """Every (container, key, value) in the loaded fano21 modules, in
    ``TripleSystem`` and in ``certificates.ALL_CHECKS`` whose value is
    one of ``objects`` (a dict keyed by ``id``)."""
    steiner = sys.modules["fano21.steiner"]
    certificates = sys.modules["fano21.certificates"]
    slots = [(mod, key, value) for mod in fano21_modules() for key, value in vars(mod).items()]
    slots += [(steiner.TripleSystem, key, value) for key, value in vars(steiner.TripleSystem).items()]
    slots += [
        (certificates.ALL_CHECKS, index, func)
        for index, (_name, func) in enumerate(certificates.ALL_CHECKS)
    ]
    return [slot for slot in slots if objects.get(id(slot[2]), objects) is slot[2]]


def _rebind(container, key, value) -> None:
    if isinstance(container, list):
        container[key] = (container[key][0], value)
    else:
        setattr(container, key, value)


class Tracer:
    """Wraps the traced functions; aggregates and spans live on the
    instance and are read after the run."""

    def __init__(self) -> None:
        self.stats: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.spans: list[list] = []  # [op, span_id, parent_id, name, start, end]
        self.wrappers: dict[str, object] = {}
        self.patched: list[tuple[object, object, object, object]] = []
        self.op = -1
        self._stack: list[list] = []  # per active call: [child_s, span_id]

    def _wrap(self, name: str, func):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        spans = self.spans
        keep = name not in AGGREGATE_ONLY
        clock = time.perf_counter

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            parent = stack[-1][1] if stack else -1
            if keep:
                span = [self.op, len(spans), parent, name, 0.0, 0.0]
                spans.append(span)
                frame = [0.0, span[1]]
            else:
                frame = [0.0, parent]
            stack.append(frame)
            start = clock()
            try:
                return func(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                stats[0] += 1
                stats[1] += duration
                stats[2] += duration - frame[0]
                if stack:
                    stack[-1][0] += duration
                if keep:
                    span[4], span[5] = start, end

        return wrapper

    def install(self) -> None:
        targets = originals()
        by_id = {id(func): func for func in targets.values()}
        wrapper_of = {}
        for name, func in targets.items():
            wrapper_of[id(func)] = self.wrappers[name] = self._wrap(name, func)
        for container, key, original in find_bindings(by_id):
            wrapper = wrapper_of[id(original)]
            _rebind(container, key, wrapper)
            self.patched.append((container, key, original, wrapper))

    def uninstall(self) -> None:
        for container, key, original, _wrapper in reversed(self.patched):
            _rebind(container, key, original)
        self.patched.clear()

    def run(self, op: int, func, *args):
        """Call ``func`` as benchmark operation ``op``; its spans carry
        that id."""
        self.op = op
        try:
            return func(*args)
        finally:
            self.op = -1
