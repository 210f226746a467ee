"""Combinatorial embeddings of K7 as rotation systems.

A rotation system assigns to each vertex a cyclic successor map on its
six neighbors.  Faces are the orbits of (a, b) -> (b, rho_b(a)) on the
42 oriented edges.  The classical toroidal rotation is rho_x(y) = 5y - 4x
(mod 7); every triangular rotation of K7 is isomorphic to it.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import permutations
from typing import Iterable, Mapping, Sequence

from .perms import Perm, PermGroup, _unchecked, stabilizer
from .steiner import exact_covers

PRESERVING = "Preserving"
REVERSING = "Reversing"


class RotationError(ValueError):
    """Base class for rotation-system validation failures."""


class NotSingleCycle(RotationError):
    def __init__(self, vertex: int):
        self.vertex = vertex
        super().__init__(f"rotation at vertex {vertex} is not a single cycle")


class MissingNeighbor(RotationError):
    def __init__(self, vertex: int, neighbor: int):
        self.vertex, self.neighbor = vertex, neighbor
        super().__init__(f"rotation at vertex {vertex} misses neighbor {neighbor}")


class NotTwoColorable(ValueError):
    def __init__(self) -> None:
        super().__init__("face-adjacency graph contains an odd cycle")


class NotTriangular(ValueError):
    def __init__(self) -> None:
        super().__init__("rotation system has a non-triangular face")


@dataclass(frozen=True)
class RotationSystem:
    """A rotation of K_n.  succ[x][y] is the neighbor after y at x."""

    n: int
    succ: tuple[tuple[int, ...], ...]

    def rho(self, x: int, y: int) -> int:
        return self.succ[x][y]

    def rho_inv(self, x: int, y: int) -> int:
        return self.succ[x].index(y)

    def cycle_at(self, x: int) -> tuple[int, ...]:
        """The rotation at x as a cycle, starting at its minimal neighbor."""
        start = 0 if x != 0 else 1
        cyc = [start]
        y = self.succ[x][start]
        while y != start:
            cyc.append(y)
            y = self.succ[x][y]
        return tuple(cyc)

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "rotation": {str(x): list(self.cycle_at(x)) for x in range(self.n)},
        }


def validate_rotation(n: int, rotation: Mapping[int, Sequence]) -> RotationSystem:
    """Build a RotationSystem from per-vertex cycles (read left-to-right).

    The value at a vertex is either one cycle, e.g. ``[1, 5, 4, 6, 2, 3]``,
    or a list of cycles; more than one cycle is rejected, since the
    rotation at a vertex must be a single cycle on all its neighbors.
    An n < 2 (no edges, so no faces), a non-int n or neighbor, and a key
    that is not a vertex 0..n-1 are rejected.
    """
    if type(n) is not int or n < 2:
        raise RotationError(f"K_n needs an integer n >= 2 to have edges, got n={n!r}")
    for key in rotation:
        if type(key) is not int or not 0 <= key < n:
            raise RotationError(f"rotation key {key!r} is not a vertex 0..{n - 1}")
    succ: list[tuple[int, ...]] = []
    for x in range(n):
        if x not in rotation:
            raise RotationError(f"no rotation given for vertex {x}")
        value = rotation[x]
        cycles = value if value and isinstance(value[0], (list, tuple)) else [value]
        flat = [y for c in cycles for y in c]
        for y in flat:
            if type(y) is not int:
                raise RotationError(f"neighbor {y!r} at vertex {x} is not an integer")
        neighbors = set(range(n)) - {x}
        for y in neighbors:
            if y not in flat:
                raise MissingNeighbor(x, y)
        if len(cycles) != 1 or len(flat) != n - 1 or set(flat) != neighbors:
            raise NotSingleCycle(x)
        cyc = cycles[0]
        nxt = [-1] * n
        for i, y in enumerate(cyc):
            nxt[y] = cyc[(i + 1) % (n - 1)]
        succ.append(tuple(nxt))
    return RotationSystem(n, tuple(succ))


def rotation_from_json(data: dict) -> RotationSystem:
    """Read {"n": ..., "rotation": {"0": [...], ...}}; a wrongly shaped
    object is rejected naming the field at fault."""
    if not isinstance(data, dict):
        raise RotationError(
            f"a rotation must be a JSON object, got {type(data).__name__}"
        )
    for key in ("n", "rotation"):
        if key not in data:
            raise RotationError(f"a rotation needs the key {key!r}")
    rotation = data["rotation"]
    if not isinstance(rotation, dict):
        raise RotationError(f"rotation {rotation!r} is not an object of cycles")
    by_vertex: dict[int, list] = {}
    by_key: dict[int, str] = {}
    for key, value in rotation.items():
        if not (isinstance(key, str) and re.fullmatch(r"\s*[+-]?\d+\s*", key)):
            raise RotationError(f"rotation key {key!r} is not an integer vertex")
        if not isinstance(value, list) or len({isinstance(c, list) for c in value}) > 1:
            raise RotationError(
                f"rotation at vertex {key} must be a list of neighbors or of cycles, "
                f"got {value!r}"
            )
        x = int(key)
        if x in by_vertex:
            raise RotationError(f"rotation keys {by_key[x]!r} and {key!r} name one vertex")
        by_vertex[x] = value
        by_key[x] = key
    return validate_rotation(data["n"], by_vertex)


def rotation_from_cycles(n: int, cycles: Iterable[Sequence[int]]) -> RotationSystem:
    return validate_rotation(n, dict(enumerate(cycles)))


def classical_rotation() -> RotationSystem:
    """The toroidal rotation of K7: rho_x(y) = 5y - 4x (mod 7)."""
    return RotationSystem(
        7,
        tuple(
            tuple((5 * y - 4 * x) % 7 if y != x else -1 for y in range(7))
            for x in range(7)
        ),
    )


@dataclass(frozen=True)
class Face:
    """A directed closed walk, canonicalized to start at its
    lexicographically minimal oriented edge."""

    walk: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.walk)

    def vertex_set(self) -> tuple[int, ...]:
        return tuple(sorted(set(self.walk)))

    def edges(self) -> list[tuple[int, int]]:
        w = self.walk
        return [(w[i], w[(i + 1) % len(w)]) for i in range(len(w))]


def _canonical_face(walk: list[int]) -> Face:
    k = len(walk)
    rotations = [tuple(walk[i:] + walk[:i]) for i in range(k)]
    return Face(min(rotations))


def trace_faces(rotation: RotationSystem) -> list[Face]:
    """Orbits of the successor map (a, b) -> (b, rho_b(a)); every oriented
    edge lies in exactly one face."""
    n = rotation.n
    remaining = {(x, y) for x in range(n) for y in range(n) if x != y}
    faces = []
    while remaining:
        start = min(remaining)
        walk = []
        edge = start
        while True:
            walk.append(edge[0])
            remaining.discard(edge)
            edge = (edge[1], rotation.rho(edge[1], edge[0]))
            if edge == start:
                break
        faces.append(_canonical_face(walk))
    return sorted(faces, key=lambda f: f.walk)


def euler_characteristic(rotation: RotationSystem) -> int:
    """F + V - E for the traced faces (0 for the torus)."""
    n = rotation.n
    return len(trace_faces(rotation)) + n - n * (n - 1) // 2


def is_triangular(rotation: RotationSystem) -> bool:
    """All faces have length 3; cross-checked against the local condition
    rho_x(y)=z => rho_z(x)=y."""
    by_faces = all(len(f) == 3 for f in trace_faces(rotation))
    n = rotation.n
    by_local = all(
        rotation.rho(rotation.rho(x, y), x) == y
        for x in range(n)
        for y in range(n)
        if x != y
    )
    if by_faces != by_local:
        raise AssertionError("face-length and local triangularity checks disagree")
    return by_faces


@dataclass(frozen=True)
class ColoredFaceSet:
    class_a: tuple[Face, ...]
    class_b: tuple[Face, ...]

    def class_a_sets(self) -> list[tuple[int, ...]]:
        return sorted(f.vertex_set() for f in self.class_a)

    def class_b_sets(self) -> list[tuple[int, ...]]:
        return sorted(f.vertex_set() for f in self.class_b)


def two_coloring(rotation: RotationSystem) -> ColoredFaceSet:
    """Bipartition faces so that each edge bounds one face of each color.

    The class containing the face with the lexicographically smallest
    vertex set is class A.
    """
    faces = trace_faces(rotation)
    face_of = {dart: i for i, f in enumerate(faces) for dart in f.edges()}
    color = {0: 0}
    queue = [0]
    while queue:
        i = queue.pop()
        # the face across edge {a, b} is the one holding the dart (b, a)
        for (a, b) in faces[i].edges():
            j = face_of[b, a]
            if j not in color:
                color[j] = 1 - color[i]
                queue.append(j)
            elif color[j] == color[i]:  # also where a face meets itself
                raise NotTwoColorable()
    if len(color) != len(faces):
        raise AssertionError("face-adjacency graph of K_n must be connected")
    classes = [tuple(f for i, f in enumerate(faces) if color[i] == c) for c in (0, 1)]
    return ColoredFaceSet(*sorted(classes, key=lambda cls: min(f.vertex_set() for f in cls)))


def isomorphism_flag(sigma: Perm, r1: RotationSystem, r2: RotationSystem) -> str | None:
    """PRESERVING if sigma(rho_x(y)) = rho'_{sigma x}(sigma y) for all
    darts (x, y), REVERSING if rho'_{sigma x}(sigma(rho_x(y))) = sigma y
    (sigma carries rho onto the inverse of rho'), else None.  On K2 and K3
    every rotation is its own inverse; a map doing both is PRESERVING."""
    if sigma.degree != r1.n or r1.n != r2.n:
        raise RotationError(f"degrees differ: {sigma.degree}, K{r1.n}, K{r2.n}")
    s = sigma.images
    preserving = reversing = True
    for x, row1 in enumerate(r1.succ):
        row2 = r2.succ[s[x]]
        for y, z in enumerate(row1):
            if y != x:
                preserving = preserving and s[z] == row2[s[y]]
                reversing = reversing and row2[s[z]] == s[y]
                if not (preserving or reversing):
                    return None
    return PRESERVING if preserving else REVERSING


def embedding_isomorphisms(
    r1: RotationSystem, r2: RotationSystem
) -> list[tuple[Perm, str]]:
    """All vertex maps carrying r1 onto r2 with their flags, sorted.

    A map is fixed by its flag and the image (a, b) of the dart (0, 1):
    it carries the rotation at 0 in r1 onto the rotation at a in r2,
    walked from b forward (Preserving) or backward (Reversing).  So
    2n(n-1) candidates get one full check each.  On K2 and K3 both walks
    give the same map, reported once as Preserving.
    """
    if r1.n != r2.n:
        raise RotationError(f"vertex counts differ: {r1.n} vs {r2.n}")
    around0 = r1.cycle_at(0)
    found: dict[Perm, str] = {}
    for a in range(r1.n):
        cycle = r2.cycle_at(a)
        for i in range(len(cycle)):
            forward = cycle[i:] + cycle[:i]
            for walk in (forward, forward[:1] + forward[:0:-1]):
                images = [a] * r1.n
                for y, image in zip(around0, walk):
                    images[y] = image
                # a bijection: 0 -> a, and the n - 1 neighbours of 0 onto those of a
                sigma = _unchecked(tuple(images))
                flag = isomorphism_flag(sigma, r1, r2)
                if flag:
                    found.setdefault(sigma, flag)
    return sorted(found.items())


def embedding_automorphism_group(rotation: RotationSystem) -> PermGroup:
    """The Preserving and Reversing self-maps, a group with no closure check:
    the product of two maps with one flag preserves, with two flags reverses."""
    maps = [sigma for sigma, _flag in embedding_isomorphisms(rotation, rotation)]
    return PermGroup(rotation.n, tuple(maps))


def color_automorphism_group(rotation: RotationSystem) -> PermGroup:
    """Embedding automorphisms fixing both color classes, each class the
    set of its faces' vertex sets."""
    coloring = two_coloring(rotation)
    classes = [frozenset(frozenset(f.walk) for f in faces)
               for faces in (coloring.class_a, coloring.class_b)]
    return stabilizer(embedding_automorphism_group(rotation), *classes)


def triangular_completions(rho0: Sequence[int]) -> list[RotationSystem]:
    """All triangular rotations of K7 extending the given 6-cycle at
    vertex 0, sorted: exact covers of the 42 darts of K7 by directed
    triangles, where (x, y, z) covers (x, y), (y, z), (z, x) and sets
    rho_y(x) = z, rho_z(y) = x, rho_x(z) = y.  rho_0 fixes the faces
    (y, 0, rho_0(y)), so the search covers the 24 darts they leave with
    the directed triangles on 1..6 avoiding the 18 they take.  Covers
    giving a rho_x that is not a single 6-cycle are skipped.
    """
    cyc = list(rho0)
    if any(type(y) is not int for y in cyc) or sorted(cyc) != [1, 2, 3, 4, 5, 6]:
        raise RotationError(f"rho_0 must be a 6-cycle on 1..6, got {rho0}")
    fixed = [_canonical_face([y, 0, z]) for y, z in zip(cyc, cyc[1:] + cyc[:1])]
    taken = {d for f in fixed for d in f.edges()}
    free = [d for d in permutations(range(7), 2) if d not in taken]
    triangles = [
        f
        for f in map(Face, permutations(range(1, 7), 3))
        if f.walk[0] == min(f.walk) and taken.isdisjoint(f.edges())
    ]
    out: list[RotationSystem] = []
    for cover in exact_covers(free, [f.edges() for f in triangles]):
        succ = [[-1] * 7 for _ in range(7)]
        for face in fixed + [triangles[i] for i in cover]:
            x, y, z = face.walk
            succ[y][x], succ[z][y], succ[x][z] = z, x, y
        walks = RotationSystem(7, tuple(map(tuple, succ)))  # not yet validated
        try:
            rotation = validate_rotation(7, {x: walks.cycle_at(x) for x in range(7)})
        except RotationError:
            continue
        if is_triangular(rotation):
            out.append(rotation)
    return sorted(out, key=lambda r: r.succ)


def classify_triangular(rotation: RotationSystem) -> tuple[Perm, str]:
    """The lexicographically smallest isomorphism onto the classical
    toroidal rotation, with its flag."""
    if rotation.n != 7:
        raise RotationError(f"classification is defined for K7, got K{rotation.n}")
    if not is_triangular(rotation):
        raise NotTriangular()
    return embedding_isomorphisms(rotation, classical_rotation())[0]


def to_dot(rotation: RotationSystem) -> str:
    """DOT export of K_n with the traced faces as comments."""
    lines = ["graph K%d {" % rotation.n]
    for f in trace_faces(rotation):
        lines.append("  // face " + "-".join(str(v) for v in f.walk))
    for x in range(rotation.n):
        for y in range(x + 1, rotation.n):
            lines.append(f"  {x} -- {y};")
    lines.append("}")
    return "\n".join(lines) + "\n"
