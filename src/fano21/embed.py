"""Combinatorial embeddings of K7 as rotation systems.

A rotation system assigns to each vertex a cyclic successor map on its
six neighbors.  Faces are the orbits of (a, b) -> (b, rho_b(a)) on the
42 oriented edges.  The classical toroidal rotation is rho_x(y) = 5y - 4x
(mod 7); every triangular rotation of K7 is isomorphic to it.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from itertools import permutations
from operator import itemgetter
from typing import Iterable, Iterator, Mapping, Sequence

from .perms import Perm, PermGroup, _unchecked
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

    @cached_property
    def faces(self) -> tuple[Face, ...]:
        """Orbits of the successor map (a, b) -> (b, rho_b(a)), sorted, traced
        on first use and kept per rotation.  The darts are taken in order, and
        a face is traced from the first of its darts reached, its least, until
        the walk returns there.  A face holds each dart once, so that walk is
        its least rotation, and the faces come out sorted.  The trace marks
        each dart with its face's index and keeps these as :attr:`face_index`."""
        n, succ, faces = self.n, self.succ, []
        index = [[-1] * n for _ in range(n)]
        for x, y in permutations(range(n), 2):
            walk, i = [], len(faces)
            while index[x][y] < 0:
                index[x][y] = i
                walk.append(x)
                x, y = y, succ[y][x]
            if walk:
                faces.append(Face(tuple(walk)))
        self.__dict__["face_index"] = tuple(map(tuple, index))  # the cached_property's slot
        return tuple(faces)

    @cached_property
    def face_index(self) -> tuple[tuple[int, ...], ...]:
        """face_index[x][y] is the index in :attr:`faces` of the face holding
        the dart (x, y), -1 where x == y; the trace of the faces sets it."""
        self.faces  # the trace sets it
        return self.__dict__["face_index"]


def validate_rotation(n: int, rotation: Mapping[int, Sequence]) -> RotationSystem:
    """Build a RotationSystem from per-vertex cycles (read left-to-right).

    The value at a vertex is either one cycle, e.g. ``[1, 5, 4, 6, 2, 3]``,
    or a list of cycles; more than one cycle is rejected, since the
    rotation at a vertex must be a single cycle on all its neighbors.
    An n < 2 (no edges, so no faces), a rotation that is not a mapping, a
    non-int n or neighbor, and a key that is not a vertex 0..n-1 are
    rejected.
    """
    if type(n) is not int or n < 2:
        raise RotationError(f"K_n needs an integer n >= 2 to have edges, got n={n!r}")
    if not isinstance(rotation, Mapping):
        raise RotationError(f"a rotation maps each vertex to its cycle, got {rotation!r}")
    for key in rotation:
        if type(key) is not int or not 0 <= key < n:
            raise RotationError(f"rotation key {key!r} is not a vertex 0..{n - 1}")
    if len(rotation) < n:  # the keys are distinct vertices, so one is missing
        missing = next(x for x in range(n) if x not in rotation)
        raise RotationError(f"no rotation given for vertex {missing}")
    succ: list[tuple[int, ...]] = []
    for x in range(n):
        value = rotation[x]
        try:
            cycles = value if value and isinstance(value[0], (list, tuple)) else [value]
            flat = [y for c in cycles for y in c]
        except (TypeError, LookupError):
            raise RotationError(f"rotation at vertex {x} must be a list of neighbors "
                                f"or of cycles, got {value!r}") from None
        for y in flat:
            if type(y) is not int:
                raise RotationError(f"neighbor {y!r} at vertex {x} is not an integer")
        present, neighbors = set(flat), set(range(n)) - {x}
        for y in neighbors:
            if y not in present:
                raise MissingNeighbor(x, y)
        if len(cycles) != 1 or len(flat) != n - 1 or present != neighbors:
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
    if not isinstance(cycles, Iterable):
        raise RotationError(f"the cycles of a rotation are a list, got {cycles!r}")
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


def trace_faces(rotation: RotationSystem) -> list[Face]:
    """The faces of :attr:`RotationSystem.faces`, sorted, as a new list."""
    return list(rotation.faces)


def euler_characteristic(rotation: RotationSystem) -> int:
    """F + V - E for the traced faces (0 for the torus)."""
    n = rotation.n
    return len(rotation.faces) + n - n * (n - 1) // 2


def is_triangular(rotation: RotationSystem) -> bool:
    """All faces have length 3, tested locally: rho_z(x) = y for each dart
    (x, y) and z = rho_x(y).  The face walk (y, x) -> (x, z) -> (z, y) then
    steps to (y, rho_y(z)) = (y, x) by the test at (z, x); conversely, a
    face of length 3 through (y, x) gives the test at (x, y).  The darts
    x < y alone do not decide: a rotation of K7 with a 9-face passes them."""
    return all(rotation.rho(rotation.rho(x, y), x) == y
               for x, y in permutations(range(rotation.n), 2))


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
    vertex set is class A.  One search reaches all faces: those at a vertex
    are joined through its rotation, those at the ends of an edge across it.
    The face across the dart (a, b) holds (b, a); the trace of the faces
    recorded its index (:attr:`RotationSystem.face_index`), so no dart list
    is built.
    """
    face_index, faces = rotation.face_index, rotation.faces
    color = {0: 0}
    queue = [0]
    while queue:
        i = queue.pop()
        walk = faces[i].walk
        for a, b in zip(walk, walk[1:] + walk[:1]):
            j = face_index[b][a]
            if j not in color:
                color[j] = 1 - color[i]
                queue.append(j)
            elif color[j] == color[i]:  # also where a face meets itself
                raise NotTwoColorable()
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


def embedding_isomorphisms(r1: RotationSystem, r2: RotationSystem) -> list[tuple[Perm, str]]:
    """All vertex maps carrying r1 onto r2 with their flags, sorted; on K2 and
    K3, where a map both preserves and reverses, it is reported as Preserving."""
    return [(p, flag) for p in map(_unchecked, _candidate_maps(r1, r2))
            if (flag := isomorphism_flag(p, r1, r2))]


def _candidate_maps(r1: RotationSystem, r2: RotationSystem) -> Iterator[tuple[int, ...]]:
    """The image tuples of the vertex maps that can carry r1 onto r2, sorted.

    A map is fixed by its flag and the image (a, b) of the dart (0, 1):
    it carries the rotation at 0 in r1 onto the rotation at a in r2,
    walked from b forward (Preserving) or backward (Reversing).  So there
    are 2n(n-1) candidates, taken in the order of their image tuples, which
    start with a.  On K2 and K3 both walks give the same map, listed once.
    Each is a bijection, 0 -> a and the neighbours of 0 onto those of a, so
    callers wrap it unchecked.  A walk is one of 2(n-1) itemgetters on
    (a, *cycle, *cycle), the cycle at a taken twice, built once per call:
    the walk from a's i-th neighbour sends the point k places after 1
    around 0 to the entry 1 + i + k (forward) or n + i - k (backward).
    """
    if r1.n != r2.n:
        raise RotationError(f"vertex counts differ: {r1.n} vs {r2.n}")
    around0 = r1.cycle_at(0)
    where = [around0.index(y) for y in range(1, r1.n)]  # y's place around 0
    walks = [itemgetter(0, *map(start.__add__, where)) for start in range(1, r1.n)]
    walks += [itemgetter(0, *map(start.__sub__, where)) for start in range(r1.n, 2 * r1.n - 1)]
    for a in range(r1.n):
        cycle = r2.cycle_at(a)
        row = (a, *cycle, *cycle)
        yield from sorted({walk(row) for walk in walks})


def color_automorphism_group(rotation: RotationSystem) -> PermGroup:
    """Embedding automorphisms fixing both color classes, each class the
    set of its faces' vertex sets; a stabilizer, so no closure check.  An
    automorphism carries faces to faces and adjacent ones to adjacent ones,
    so it maps the 2-coloring of the connected face graph to a proper one,
    which keeps both classes or swaps them.  So for a map that
    :func:`isomorphism_flag` accepts, one class-A set outside class B
    decides: keeping the classes sends it into class A, and swapping them
    sends it into class B outside class A, since a swap maps the sets the
    classes share onto themselves.  Where every class-A set is a class-B
    one, a swap makes the classes equal and is kept by any face.  The face
    tested, before the flag, is the last such set in sorted order.  In a
    Fano plane of faces it avoids vertex 0; over the 240 triangular
    rotations of K7 it keeps 21 of the 84 candidates on 168, where any
    face through 0 keeps 42."""
    coloring = two_coloring(rotation)
    class_a = {frozenset(f.walk) for f in coloring.class_a}
    class_b = {frozenset(f.walk) for f in coloring.class_b}
    face = itemgetter(*max(class_a - class_b or class_a, key=sorted))
    # a Perm only for the candidates that keep the tested face in class A
    kept = (_unchecked(images) for images in _candidate_maps(rotation, rotation)
            if frozenset(face(images)) in class_a)
    return PermGroup(rotation.n, tuple(p for p in kept if isomorphism_flag(p, rotation, rotation)))


def triangular_completions(rho0: Sequence[int]) -> list[RotationSystem]:
    """All triangular rotations of K7 extending the given 6-cycle at
    vertex 0, sorted: exact covers of the 42 darts of K7 by directed
    triangles, where (x, y, z) covers (x, y), (y, z), (z, x) and sets
    rho_y(x) = z, rho_z(y) = x, rho_x(z) = y.  rho_0 fixes the faces
    (y, 0, rho_0(y)), so the search covers the 24 darts they leave with
    the directed triangles on 1..6 avoiding the 18 they take.  Each cover
    is triangular, as each dart lies in a triangle that sets its successors,
    and needs no filter: each rho_x is one 6-cycle, by exhaustion over the
    120 cycles (1, ...), which stand for all 720 orderings of 1..6 since the
    fixed faces depend only on the cyclic order of rho_0."""
    cyc = list(rho0)
    if any(type(y) is not int for y in cyc) or sorted(cyc) != [1, 2, 3, 4, 5, 6]:
        raise RotationError(f"rho_0 must be a 6-cycle on 1..6, got {rho0}")
    fixed = [Face((0, z, y)) for y, z in zip(cyc, cyc[1:] + cyc[:1])]
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
        out.append(RotationSystem(7, tuple(map(tuple, succ))))
    return sorted(out, key=lambda r: r.succ)


def classify_triangular(rotation: RotationSystem) -> tuple[Perm, str]:
    """The lexicographically smallest isomorphism onto the classical
    toroidal rotation, with its flag: the candidates are checked in order,
    each only when reached, and the search stops at the first map."""
    if rotation.n != 7:
        raise RotationError(f"classification is defined for K7, got K{rotation.n}")
    if not is_triangular(rotation):
        raise NotTriangular()
    classical = classical_rotation()
    return next((p, flag) for p in map(_unchecked, _candidate_maps(rotation, classical))
                if (flag := isomorphism_flag(p, rotation, classical)))


def to_dot(rotation: RotationSystem) -> str:
    """DOT export of K_n with the traced faces as comments."""
    lines = ["graph K%d {" % rotation.n]
    for f in rotation.faces:
        lines.append("  // face " + "-".join(str(v) for v in f.walk))
    for x in range(rotation.n):
        for y in range(x + 1, rotation.n):
            lines.append(f"  {x} -- {y};")
    lines.append("}")
    return "\n".join(lines) + "\n"
