"""Seeded inputs, operations and independent output checks.

Every input is derived from ``(workload, seed, index)`` alone, so a run
of any length sees the same operation at the same index.  The program
receives only the generated design and rotation JSON files (and, for the
library half of a ``fano-maps`` bundle, the objects a library user would
build from them).  Each output is checked after the timed call, by code
in this file that does not call the search it checks.
"""

from __future__ import annotations

import io
import json
import random
import signal
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from itertools import combinations
from pathlib import Path

PAIRS7 = tuple(combinations(range(7), 2))

# The translates (mod 7) of {0, 1, 3}: the Fano plane b1.
FANO_B1 = tuple(sorted(tuple(sorted((x + d) % 7 for d in (0, 1, 3))) for x in range(7)))

# The classical toroidal rotation of K7, rho_x(y) = 5y - 4x (mod 7), as
# one cycle per vertex.
def _classical_cycle(x: int) -> list[int]:
    cycle = [1 if x == 0 else 0]
    while len(cycle) < 6:
        cycle.append((5 * cycle[-1] - 4 * x) % 7)
    return cycle


CLASSICAL_CYCLES = {x: _classical_cycle(x) for x in range(7)}

CERTIFICATE_NAMES = (
    "mate-count-8",
    "orthogonal-aut-order-21",
    "fano-aut-168",
    "orientation-bijection-8",
    "oriented-aut-equals-common",
    "reverse-involution",
    "fano-circuits-24",
    "classical-embedding",
    "triangular-completions-2",
    "affine-maps-preserve-rotation",
    "sts15-61",
    "sts13-orthogonal-39",
    "octonion-f21",
    "oracle-agreement",
)

CHILD_TIMEOUT_S = 170

# One operation in PROBE_PERIOD of fano-maps is a malformed input.
PROBE_PERIOD = 12
OCTONION_PRODUCTS = 200


def op_rng(workload: str, seed: int, index: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{index}")


def relabel_blocks(blocks, sigma) -> list[list[int]]:
    return sorted(sorted(sigma[x] for x in b) for b in blocks)


class ChildTimeout(Exception):
    """A child process outlived CHILD_TIMEOUT_S."""


def _raise_timeout(signum, frame):
    raise ChildTimeout(f"child process still running after {CHILD_TIMEOUT_S} s")


def run_child(argv: list[str], **kwargs) -> subprocess.CompletedProcess:
    """``subprocess.run`` with a blocking wait, so that the end time is
    exact: with a ``timeout`` argument Popen polls at up to 50 ms
    intervals.  A SIGALRM watchdog instead makes ``run`` kill the child
    after CHILD_TIMEOUT_S."""
    previous = signal.signal(signal.SIGALRM, _raise_timeout)
    signal.alarm(CHILD_TIMEOUT_S)
    try:
        return subprocess.run(argv, **kwargs)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def run_cli(cli, argv: list[str]) -> tuple[int, str, str]:
    """``cli.main(argv)`` in process with captured output.  An exception
    escaping ``main`` propagates to the caller."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects bad arguments this way
            code = exc.code
    return code, out.getvalue(), err.getvalue()


# ---------------------------------------------------------------- checks


def is_fano_plane(blocks) -> bool:
    """7 triples on {0..6} covering every pair exactly once."""
    triples = [tuple(sorted(b)) for b in blocks]
    if len(triples) != 7 or any(len(set(t)) != 3 for t in triples):
        return False
    if any(type(x) is not int or not 0 <= x < 7 for t in triples for x in t):
        return False
    covered = sorted(p for t in triples for p in combinations(t, 2))
    return covered == list(PAIRS7)


def third_points(blocks) -> dict[tuple[int, int], int]:
    out = {}
    for b in blocks:
        for x, y in combinations(b, 2):
            (z,) = set(b) - {x, y}
            out[(x, y)] = out[(y, x)] = z
    return out


def are_orthogonal(b, c) -> bool:
    """Disjoint block sets, and for blocks {x,y,z}, {u,v,z} of b the
    third points of {x,y} and {u,v} in c differ."""
    b_set = {tuple(sorted(t)) for t in b}
    if b_set & {tuple(sorted(t)) for t in c}:
        return False
    third = third_points(c)
    for t1, t2 in combinations(b_set, 2):
        common = set(t1) & set(t2)
        if len(common) != 1:
            continue
        x, y = set(t1) - common
        u, v = set(t2) - common
        if third[(x, y)] == third[(u, v)]:
            return False
    return True


def is_orientation(blocks, arcs) -> bool:
    """A tournament, a directed 3-cycle on every block, and every
    out-neighbour triple a block."""
    arc_set = {tuple(a) for a in arcs}
    if len(arc_set) != 21 or any((y, x) in arc_set for x, y in arc_set):
        return False
    for a, b, c in blocks:
        if not ({(a, b), (b, c), (c, a)} <= arc_set or {(b, a), (c, b), (a, c)} <= arc_set):
            return False
    block_set = {tuple(sorted(t)) for t in blocks}
    return all(
        tuple(sorted(y for (x0, y) in arc_set if x0 == x)) in block_set for x in range(7)
    )


def is_fano_circuit(blocks, seq) -> bool:
    """7 distinct points whose 7 cyclically consecutive pairs meet every
    block in exactly one pair."""
    if sorted(seq) != list(range(7)):
        return False
    pairs = [{seq[i], seq[(i + 1) % 7]} for i in range(7)]
    return all(sum(p <= set(b) for p in pairs) == 1 for b in blocks)


def maps_blocks_onto(images, blocks) -> bool:
    block_set = {tuple(sorted(b)) for b in blocks}
    return {tuple(sorted(images[x] for x in b)) for b in block_set} == block_set


def is_permutation(images, n: int) -> bool:
    return sorted(images) == list(range(n)) and all(type(x) is int for x in images)


def unit_image(sigma, i: int) -> int:
    """The octonion unit e_i sent through a point permutation (e_7 is
    point 0, e_p is point p)."""
    if i == 0:
        return 0
    image = sigma[i % 7]
    return 7 if image == 0 else image


def preserves_table(sigma, table) -> bool:
    for i in range(1, 8):
        for j in range(1, 8):
            sign, k = table[i - 1][j - 1]
            if table[unit_image(sigma, i) - 1][unit_image(sigma, j) - 1] != (sign, unit_image(sigma, k)):
                return False
    return True


def sum_squares(coeffs) -> int:
    return sum(c * c for c in coeffs)


# ---------------------------------------------------------------- certify


def certify_pass(root: Path, env: dict, refs_file: Path) -> tuple[float, bool, list[float]]:
    """One fresh process of ``verify-all --format json``, run by
    ``certify_child.py``: its wall time less the reference loops sampled
    in it, whether it exited 0 with every certificate PASS, and the
    reference samples."""
    refs_file.unlink(missing_ok=True)
    start = time.perf_counter()
    proc = run_child(
        [sys.executable, str(Path(__file__).with_name("certify_child.py")), str(refs_file)],
        cwd=root, env=env, capture_output=True, text=True,
    )
    wall = time.perf_counter() - start
    refs = json.loads(refs_file.read_text()) if refs_file.is_file() else []
    ok = proc.returncode == 0 and bool(refs) and certify_output_ok(proc.stdout)
    return wall - sum(refs), ok, refs


def certify_output_ok(stdout: str) -> bool:
    try:
        reports = json.loads(stdout)
    except json.JSONDecodeError:
        return False
    return [r.get("name") for r in reports] == list(CERTIFICATE_NAMES) and all(
        r.get("status") == "PASS" for r in reports
    )


# ---------------------------------------------------------------- in-process workloads


@dataclass
class Op:
    """One operation: ``probe`` marks a malformed input."""

    index: int
    probe: str | None = None
    files: dict = field(default_factory=dict)
    data: dict = field(default_factory=dict)


class Workload:
    """Base class: subclasses generate, execute and check operations."""

    name = ""

    def __init__(self, seed: int, workdir: Path, fano21) -> None:
        self.seed = seed
        self.workdir = workdir
        self.lib = fano21

    def write(self, name: str, payload) -> str:
        path = self.workdir / name
        text = payload if isinstance(payload, str) else json.dumps(payload)
        path.write_text(text)
        return str(path)


class StsAut(Workload):
    """``fano21 aut`` on seeded relabellings of the Fano plane b1."""

    name = "sts-aut"

    def prepare(self, index: int) -> Op:
        rng = op_rng(self.name, self.seed, index)
        sigma = rng.sample(range(7), 7)
        blocks = relabel_blocks(FANO_B1, sigma)
        path = self.write(f"aut-{index}.json", {"v": 7, "blocks": blocks})
        return Op(index, files={"design": path}, data={"blocks": blocks})

    def execute(self, op: Op):
        return run_cli(self.lib.cli, ["aut", "--design", op.files["design"], "--format", "json"])

    def check(self, op: Op, result) -> bool:
        code, out, _err = result
        if code != 0:
            return False
        data = json.loads(out)
        elements = [tuple(p) for p in data["elements"]]
        return (
            data["order"] == 168
            and len(set(elements)) == 168
            and all(is_permutation(p, 7) and maps_blocks_onto(p, op.data["blocks"]) for p in elements)
        )


PROBES = ("faces-empty", "classify-k3", "design-float-point", "truncated-json")


class FanoMaps(Workload):
    """Bundles of v=7 queries on one relabelling of b1 and one of the
    classical K7 rotation; one operation in PROBE_PERIOD is a malformed
    input instead."""

    name = "fano-maps"

    def prepare(self, index: int) -> Op:
        rng = op_rng(self.name, self.seed, index)
        if index % PROBE_PERIOD == PROBE_PERIOD - 1:
            offset = op_rng(self.name, self.seed, -1).randrange(len(PROBES))
            return self.prepare_probe(index, PROBES[(index // PROBE_PERIOD + offset) % len(PROBES)], rng)
        sigma = rng.sample(range(7), 7)
        tau = rng.sample(range(7), 7)
        blocks = relabel_blocks(FANO_B1, sigma)
        rotation = {
            "n": 7,
            "rotation": {str(tau[x]): [tau[y] for y in CLASSICAL_CYCLES[x]] for x in range(7)},
        }
        octonion = self.lib.octonion
        pairs = [
            tuple(octonion.Octonion(tuple(rng.randint(-9, 9) for _ in range(8))) for _ in range(2))
            for _ in range(OCTONION_PRODUCTS)
        ]
        return Op(
            index,
            files={
                "design": self.write(f"design-{index}.json", {"v": 7, "blocks": blocks}),
                "rotation": self.write(f"rotation-{index}.json", rotation),
            },
            data={"blocks": blocks, "design": {"v": 7, "blocks": blocks}, "rotation": rotation,
                  "orientation": rng.randrange(8), "pairs": pairs},
        )

    def prepare_probe(self, index: int, kind: str, rng: random.Random) -> Op:
        if kind == "faces-empty":
            argv = ["faces", "--rotation", self.write(f"probe-{index}.json", {"n": 0, "rotation": {}})]
        elif kind == "classify-k3":
            a, b, c = rng.sample(range(3), 3)
            k3 = {"n": 3, "rotation": {str(a): [b, c], str(b): [c, a], str(c): [a, b]}}
            argv = ["classify", "--rotation", self.write(f"probe-{index}.json", k3)]
        elif kind == "design-float-point":
            blocks = relabel_blocks(FANO_B1, rng.sample(range(7), 7))
            blocks[rng.randrange(7)][rng.randrange(3)] = 3.5
            argv = ["aut", "--design", self.write(f"probe-{index}.json", {"v": 7, "blocks": blocks})]
        else:
            text = json.dumps({"v": 7, "blocks": relabel_blocks(FANO_B1, rng.sample(range(7), 7))})
            argv = ["aut", "--design", self.write(f"probe-{index}.json", text[: len(text) // 2])]
        return Op(index, probe=kind, data={"argv": argv + ["--format", "json"]})

    def run_probe(self, op: Op) -> str:
        """``rejected`` (exit 1 or 2 with an error message), ``escaped``
        (an exception left ``cli.main``) or ``accepted`` (exit 0 on a
        malformed input)."""
        try:
            code, _out, err = run_cli(self.lib.cli, op.data["argv"])
        except Exception:
            return "escaped"
        if code in (1, 2) and "error" in err:
            return "rejected"
        return "accepted"

    def execute(self, op: Op) -> dict:
        lib = self.lib
        cli, design, rotation = lib.cli, op.files["design"], op.files["rotation"]
        out = {
            "classify": run_cli(cli, ["classify", "--rotation", rotation, "--format", "json"]),
            "faces": run_cli(cli, ["faces", "--rotation", rotation, "--format", "json"]),
        }
        for kind in ("mates", "orientations", "circuits"):
            out[kind] = run_cli(cli, ["enumerate", kind, "--design", design, "--format", "json"])
        system = lib.embed.rotation_from_json(op.data["rotation"])
        out["color_aut"] = lib.embed.color_automorphism_group(system)
        plane = lib.steiner.sts_from_json(op.data["design"])
        arcs = json.loads(out["orientations"][1])[op.data["orientation"]]["arcs"]
        oriented = lib.orient.validate_orientation(plane, [tuple(a) for a in arcs])
        out["derived"] = lib.orient.derived_plane(oriented)
        out["table"] = lib.octonion.cartan_table(oriented)
        out["autos"] = lib.octonion.algebra_automorphism_perms(out["table"])
        out["products"] = [lib.octonion.multiply(a, b) for a, b in op.data["pairs"]]
        out["system"] = system
        return out

    def check(self, op: Op, out: dict) -> bool:
        blocks = op.data["blocks"]
        if any(out[k][0] != 0 for k in ("classify", "faces", "mates", "orientations", "circuits")):
            return False
        faces = json.loads(out["faces"][1])
        coloring = faces["coloring"]
        if not (
            len(faces["faces"]) == 14
            and faces["euler_characteristic"] == 0
            and coloring is not None
            and is_fano_plane(coloring["classA"])
            and is_fano_plane(coloring["classB"])
        ):
            return False
        classify = json.loads(out["classify"][1])
        if not self.classify_ok(out["system"], classify["witness"], classify["flag"]):
            return False
        mates = [m["blocks"] for m in json.loads(out["mates"][1])]
        if not (
            len({json.dumps(sorted(m)) for m in mates}) == 8
            and all(is_fano_plane(m) and are_orthogonal(blocks, m) for m in mates)
        ):
            return False
        orientations = [o["arcs"] for o in json.loads(out["orientations"][1])]
        if not (
            len({json.dumps(sorted(a)) for a in orientations}) == 8
            and all(is_orientation(blocks, a) for a in orientations)
        ):
            return False
        circuits = [tuple(c) for c in json.loads(out["circuits"][1])]
        if not (len(set(circuits)) == 24 and all(is_fano_circuit(blocks, c) for c in circuits)):
            return False
        color_aut = [p.images for p in out["color_aut"]]
        if not (
            len(set(color_aut)) == 21
            and all(
                maps_blocks_onto(p, coloring["classA"]) and maps_blocks_onto(p, coloring["classB"])
                for p in color_aut
            )
        ):
            return False
        derived = out["derived"].blocks
        if not (is_fano_plane(derived) and are_orthogonal(blocks, derived)):
            return False
        autos = [p.images for p in out["autos"]]
        if not (len(set(autos)) == 21 and all(preserves_table(p, out["table"]) for p in autos)):
            return False
        return len(out["products"]) == OCTONION_PRODUCTS and all(
            sum_squares(ab.coeffs) == sum_squares(a.coeffs) * sum_squares(b.coeffs)
            for (a, b), ab in zip(op.data["pairs"], out["products"])
        )

    def classify_ok(self, system, witness, flag) -> bool:
        """The witness maps ``system`` onto the classical rotation,
        preserving (rho) or reversing (rho_inv) it as the flag says."""
        if not is_permutation(witness, 7) or flag not in ("Preserving", "Reversing"):
            return False
        classical = self.lib.embed.classical_rotation()
        target = classical.rho if flag == "Preserving" else classical.rho_inv
        return all(
            witness[system.rho(x, y)] == target(witness[x], witness[y])
            for x in range(7)
            for y in range(7)
            if x != y
        )


IN_PROCESS = {StsAut.name: StsAut, FanoMaps.name: FanoMaps}
