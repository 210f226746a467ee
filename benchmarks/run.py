"""fano21 benchmark: one workload per run, end-to-end or traced.

    python3 benchmarks/run.py --workload certify|sts-aut|fano-maps|all \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ``src/``.
With ``--trace 0`` the workload runs for ``--seconds`` and the last line
of standard output is a JSON object with the end-to-end metrics.  With
``--trace 1`` a fixed, seed-determined list of operations runs once
untraced and once traced, and the last line carries the per-layer
metrics.  The lines before it are a readable report and a JSON record of
the machine, the Python version, the git sha and the seed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import hostspeed
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKDIR = HERE / ".work"
WORKLOADS = ("certify", "sts-aut", "fano-maps")
SETUP_REPEATS = 15
WARMUP_OPS = 2
TRACE_OPS = {"sts-aut": 24, "fano-maps": 48}

# Per-layer self times in the result line: the functions that every
# workload calls.  The traced report prints every other one too.
SELF_TIMED = (
    "steiner.third_point",
    "steiner.block_through",
    "steiner.validate_sts",
    "perms.compose",
    "perms.group_from_elements",
    "cli.main",
)
PROBE_OUTCOMES = ("rejected", "escaped", "accepted")

# Times cli.main verify-all in a fresh interpreter, for the untraced
# side of the certify tracing overhead.
CERTIFY_TIMER = """
import contextlib, io, json, sys, time
from fano21 import cli
out = io.StringIO()
start = time.perf_counter()
with contextlib.redirect_stdout(out):
    code = cli.main(["verify-all", "--format", "json"])
print(json.dumps({"seconds": time.perf_counter() - start, "code": code, "stdout": out.getvalue()}))
"""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def environment(workload: str, seed: int) -> dict:
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as handle:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        sha = proc.stdout.strip() or None
    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "git_sha": sha,
    }


def setup_seconds() -> tuple[list[float], list[float]]:
    """Wall times of a fresh interpreter importing ``fano21.cli``, raw and
    normalised by the median of the reference samples taken in it."""
    times, normalised = [], []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        proc = workloads.run_child([sys.executable, str(HERE / "setup_child.py")], cwd=ROOT,
                                   env=child_env(), check=True, capture_output=True, text=True)
        wall = time.perf_counter() - start
        child = json.loads(proc.stdout.splitlines()[-1])
        times.append(wall - child["tail_s"])
        normalised.append(times[-1] * hostspeed.REFERENCE_S / statistics.median(child["refs"]))
    return times, normalised


def tail(latencies: list[float]) -> tuple[str, float] | None:
    """The highest of p99/p90 with at least ten samples beyond it."""
    n = len(latencies)
    for label, q in (("p99", 99), ("p90", 90)):
        if n * (100 - q) >= 1000:
            return label, statistics.quantiles(latencies, n=100)[q - 1]
    return None


def import_fano21():
    sys.path.insert(0, str(SRC))
    import fano21.cli  # noqa: F401  (binds fano21.cli)
    import fano21

    return fano21


# ---------------------------------------------------------------- timed runs


def timed_certify(seconds: float, workdir: Path) -> dict:
    latencies, normalised, refs, failed = [], [], [], 0
    while not latencies or sum(latencies) + latencies[-1] <= seconds:
        wall, ok, samples = workloads.certify_pass(ROOT, child_env(), workdir / "refs.json")
        latencies.append(wall)
        normalised.append(hostspeed.normalise_sampled(wall, samples))
        refs += samples
        failed += not ok
    return {"latencies": latencies, "normalised": normalised, "refs": refs,
            "attempted": len(latencies), "failed": failed, "probes": {}}


def timed_in_process(name: str, seed: int, seconds: float, workdir: Path) -> dict:
    workload = workloads.IN_PROCESS[name](seed, workdir, import_fano21())
    latencies, failed, errors, refs = [], 0, [], []
    probes = {outcome: 0 for outcome in PROBE_OUTCOMES}
    for index in range(WARMUP_OPS):
        run_op(workload, workload.prepare(index), [])
        hostspeed.sample()
    index = WARMUP_OPS
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        op = workload.prepare(index)
        index += 1
        if op.probe:
            probes[workload.run_probe(op)] += 1
            continue
        ok, wall = run_op(workload, op, errors)
        latencies.append(wall)
        refs.append(hostspeed.sample())
        failed += not ok
    return {"latencies": latencies, "normalised": hostspeed.normalise(latencies, refs),
            "refs": refs, "attempted": len(latencies), "failed": failed,
            "probes": probes, "errors": errors}


def run_op(workload, op, errors: list, tracer=None) -> tuple[bool, float]:
    """Execute (timed) and check (untimed) one operation.  An exception
    fails the operation and is recorded; it does not end the run."""
    start = time.perf_counter()
    try:
        if tracer is None:
            result = workload.execute(op)
        else:
            result = tracer.run(op.index, workload.execute, op)
    except Exception:
        wall = time.perf_counter() - start
        errors.append(traceback.format_exc())
        return False, wall
    wall = time.perf_counter() - start
    try:
        ok = workload.check(op, result)
    except Exception:
        errors.append(traceback.format_exc())
        ok = False
    return ok, wall


def end_to_end(name: str, seed: int, seconds: float) -> tuple[dict, dict]:
    setup, setup_normalised = setup_seconds()
    workdir = Path(tempfile.mkdtemp(dir=WORKDIR))
    try:
        if name == "certify":
            run = timed_certify(seconds, workdir)
        else:
            run = timed_in_process(name, seed, seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    latencies, normalised = run["latencies"], run["normalised"]
    metrics = {
        "setup_s": (statistics.median(setup_normalised), "s"),
        "norm_p50_ms": (statistics.median(normalised) * 1000, "ms"),
        "norm_ops_per_s": (len(normalised) / sum(normalised), "1/s"),
    }
    report = {
        "samples": len(latencies),
        "failed_frac": run["failed"] / run["attempted"],
        "probes": run["probes"],
        "p50_ms": statistics.median(latencies) * 1000,
        "ops_per_s": len(latencies) / sum(latencies),
        "setup_wall_s": statistics.median(setup),
        "setup_samples_s": setup,
        "reference_ms": statistics.median(run["refs"]) * 1000,
    }
    for label, series in (("", latencies), ("norm_", normalised)):
        high = tail(series)
        if high:
            report[f"{label}{high[0]}_ms"] = high[1] * 1000
    for error in run.get("errors", [])[:3]:
        print(error, file=sys.stderr)
    return metrics, {"attempted": run["attempted"], "failed": run["failed"], "report": report}


# ---------------------------------------------------------------- traced runs


def traced_certify(tracer: tracing.Tracer) -> tuple[float, float, bool]:
    fano21 = import_fano21()
    tracer.install()
    start = time.perf_counter()
    code, out, _err = tracer.run(0, workloads.run_cli, fano21.cli, ["verify-all", "--format", "json"])
    traced = time.perf_counter() - start
    ok = code == 0 and workloads.certify_output_ok(out)
    proc = workloads.run_child([sys.executable, "-c", CERTIFY_TIMER], cwd=ROOT, env=child_env(),
                               capture_output=True, text=True, check=True)
    untraced = json.loads(proc.stdout)
    ok = ok and untraced["code"] == 0 and workloads.certify_output_ok(untraced["stdout"])
    return traced, untraced["seconds"], ok


def traced_in_process(name: str, seed: int, tracer: tracing.Tracer, workdir: Path) -> dict:
    """Warm up, run TRACE_OPS[name] operations untraced, then the next
    TRACE_OPS[name] traced."""
    workload = workloads.IN_PROCESS[name](seed, workdir, import_fano21())
    errors, attempted, failed = [], 0, 0
    probes = {outcome: 0 for outcome in PROBE_OUTCOMES}
    for index in range(WARMUP_OPS):
        run_op(workload, workload.prepare(index), [])
    count = TRACE_OPS[name]
    walls = {False: 0.0, True: 0.0}
    for traced in (False, True):
        if traced:
            tracer.install()
        first = WARMUP_OPS + (count if traced else 0)
        for index in range(first, first + count):
            op = workload.prepare(index)
            if op.probe:
                if traced:
                    probes[tracer.run(op.index, workload.run_probe, op)] += 1
                continue
            ok, wall = run_op(workload, op, errors, tracer if traced else None)
            walls[traced] += wall
            attempted += 1
            failed += not ok
    for error in errors[:3]:
        print(error, file=sys.stderr)
    return {"traced": walls[True], "untraced": walls[False], "attempted": attempted,
            "failed": failed, "probes": probes}


def per_layer(name: str, seed: int) -> tuple[dict, dict]:
    tracer = tracing.Tracer()
    workdir = Path(tempfile.mkdtemp(dir=WORKDIR))
    try:
        if name == "certify":
            traced, untraced, ok = traced_certify(tracer)
            run = {"traced": traced, "untraced": untraced, "failed": int(not ok),
                   "attempted": 1, "probes": {}}
        else:
            run = traced_in_process(name, seed, tracer, workdir)
    finally:
        patched = len(tracer.patched)
        tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)
    metrics = {
        f"{span}.calls": (calls, "count")
        for span, (calls, _total, _own) in tracer.stats.items()
        if not span.startswith("certificates.")
    }
    for span in SELF_TIMED:
        metrics[f"{span}.self_s"] = (tracer.stats[span][2], "s")
    metrics["trace.overhead_s"] = (run["traced"] - run["untraced"], "s")
    probes = run["probes"]
    for outcome in PROBE_OUTCOMES:
        metrics[f"probes.{outcome}"] = (probes.get(outcome, 0), "count")
    layers = {
        span: {"calls": calls, "self_s": own, "total_s": total}
        for span, (calls, total, own) in sorted(tracer.stats.items())
        if calls
    }
    spans_file = WORKDIR / f"spans-{name}-{seed}.json"
    spans_file.write_text(json.dumps(
        {"fields": ["op", "span", "parent", "name", "start_s", "end_s"], "spans": tracer.spans}))
    report = {"traced_s": run["traced"], "untraced_s": run["untraced"], "layers": layers,
              "spans": len(tracer.spans), "spans_file": str(spans_file.relative_to(ROOT)),
              "patched_bindings": patched}
    return metrics, {"attempted": run["attempted"], "failed": run["failed"], "report": report}


# ---------------------------------------------------------------- output


def print_report(name: str, metrics: dict, extra: dict, env: dict) -> None:
    report = extra["report"]
    print(f"== {name} (seed {env['seed']})")
    for key, (value, unit) in metrics.items():
        if not key.endswith(".calls") or value:
            print(f"  {key:44s} {value:14.6g} {unit}")
    if "layers" in report:
        print(f"  {'layer':44s} {'calls':>10s} {'self_s':>10s} {'total_s':>10s}")
        for span, row in report["layers"].items():
            print(f"  {span:44s} {row['calls']:10d} {row['self_s']:10.4f} {row['total_s']:10.4f}")
    else:
        print(f"  samples {report['samples']}, failed_frac {report['failed_frac']:.4f}")
        print(f"  wall clock: p50_ms {report['p50_ms']:.3f}, ops_per_s {report['ops_per_s']:.4f},"
              f" setup {report['setup_wall_s']:.4f} s; reference loop {report['reference_ms']:.3f} ms")
        for key in ("p90_ms", "p99_ms", "norm_p90_ms", "norm_p99_ms"):
            if key in report:
                print(f"  {key} {report[key]:.3f} ms over {report['samples']} samples")
        if report["probes"]:
            print(f"  malformed inputs: {report['probes']}")
    print(json.dumps({"env": env, "report": report}))


def run_one(name: str, seed: int, seconds: float, trace: bool) -> int:
    WORKDIR.mkdir(parents=True, exist_ok=True)
    metrics, extra = per_layer(name, seed) if trace else end_to_end(name, seed, seconds)
    print_report(name, metrics, extra, environment(name, seed))
    result = {
        "correct": extra["failed"] == 0,
        "attempted": extra["attempted"],
        "failed": extra["failed"],
        "metrics": {key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Each workload in its own process, so none inherits another's state."""
    code = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(trace))],
            cwd=ROOT,
        )
        code = code or proc.returncode
    return code


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "fano21" / "__init__.py").is_file():
        print(f"error: no fano21 package under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
