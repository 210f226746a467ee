"""Self-test of the benchmark's tracing.

    python3 -m pytest benchmarks/test_benchmark.py

The traced run of each workload must give the same work counters on
every run of one seed, and the tracer must replace every binding of each
traced function in the loaded fano21 modules.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import tracing  # noqa: E402

COUNTERS = (
    "steiner.third_point.calls",
    "perms.compose.calls",
    "octonion.cartan_table.calls",
    "steiner.validate_sts.calls",
)


def traced_metrics(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
    )
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"], proc.stdout
    return {key: metric["value"] for key, metric in result["metrics"].items()}


@pytest.mark.parametrize("workload", ["certify", "sts-aut", "fano-maps"])
def test_counters_repeat_exactly(workload):
    first, second = traced_metrics(workload, 5), traced_metrics(workload, 5)
    counts = sorted(key for key in first if key.endswith(".calls") or key.startswith("probes."))
    assert set(COUNTERS) <= set(counts)
    assert [first[key] for key in counts] == [second[key] for key in counts]
    assert first["steiner.validate_sts.calls"] > 0


def bindings(objects: dict) -> list:
    """Every name, class attribute or list/tuple slot in a loaded fano21
    module that holds one of ``objects`` (keyed by ``id``).  Wider than
    the tracer's own search: it looks in every class and sequence."""
    def held(value):
        return objects.get(id(value), objects) is value

    found = []
    for mod in tracing.fano21_modules():
        for key, value in vars(mod).items():
            if held(value):
                found.append((mod.__name__, key))
            elif isinstance(value, type) and value.__module__ == mod.__name__:
                found += [(value.__qualname__, k) for k, v in vars(value).items() if held(v)]
            elif isinstance(value, (list, tuple)):
                for index, item in enumerate(value):
                    items = item if isinstance(item, tuple) else (item,)
                    found += [(f"{mod.__name__}.{key}", index) for v in items if held(v)]
    return found


def test_every_binding_patched():
    import fano21.cli  # noqa: F401  (loads every fano21 module)

    originals = tracing.originals()
    by_id = {id(func): func for func in originals.values()}
    before = bindings(by_id)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        wrappers = {id(w): w for w in tracer.wrappers.values()}
        assert len(tracer.wrappers) == len(originals)
        assert len(tracer.patched) == len(before)
        assert bindings(by_id) == []
        assert len(bindings(wrappers)) == len(before)
    finally:
        tracer.uninstall()
    assert bindings(by_id) == before
