"""Orientations of the Fano plane, derived orthogonal planes, Fano circuits.

An orientation is a tournament on the 7 points that restricts to a
3-cycle on every block and whose out-neighbor triples are again blocks.
The derived plane of an orientation collects the in-neighbor triples; it
is a Fano plane orthogonal to the carrier plane, and the assignment is a
bijection onto the 8 orthogonal mates.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, permutations
from typing import Iterable, Sequence

from .perms import Perm, PermGroup, stabilizer
from .steiner import (
    StsError,
    Triple,
    TripleSystem,
    are_orthogonal,
    automorphism_group,
    canonical_block,
    exact_covers,
    map_sts,
    validate_sts,
)

Arc = tuple[int, int]


class OrientationError(ValueError):
    """Base class for orientation validation failures."""


class NotTournament(OrientationError):
    def __init__(self, pair: tuple[int, int]):
        self.pair = pair
        super().__init__(f"pair {pair} is not oriented exactly once")


class BlockNotCyclic(OrientationError):
    def __init__(self, block: Triple):
        self.block = block
        super().__init__(f"arcs do not form a 3-cycle on block {block}")


class OutNeighborsNotBlock(OrientationError):
    def __init__(self, point: int, outs: tuple[int, ...]):
        self.point, self.outs = point, outs
        super().__init__(f"out-neighbors {set(outs)} of {point} are not a block")


class CircuitError(ValueError):
    """Base class for Fano-circuit validation failures."""


class RepeatedPoint(CircuitError):
    def __init__(self, seq: Sequence[int]):
        super().__init__(f"sequence {tuple(seq)} does not visit 7 distinct points")


class BlockNotCovered(CircuitError):
    def __init__(self, block: Triple):
        self.block = block
        super().__init__(f"no consecutive pair of the circuit lies in block {block}")


@dataclass(frozen=True)
class OrientedFano:
    """A Fano plane with a valid orientation.  Build via
    :func:`validate_orientation`."""

    plane: TripleSystem
    arcs: frozenset[Arc]

    def out_neighbors(self, x: int) -> tuple[int, ...]:
        return tuple(sorted(y for (a, y) in self.arcs if a == x))

    def in_neighbors(self, x: int) -> tuple[int, ...]:
        return tuple(sorted(a for (a, y) in self.arcs if y == x))

    def sorted_arcs(self) -> tuple[Arc, ...]:
        return tuple(sorted(self.arcs))

    def to_json(self) -> dict:
        return {"points": 7, "arcs": [list(a) for a in self.sorted_arcs()]}


def validate_orientation(plane: TripleSystem, arcs: Iterable[Arc]) -> OrientedFano:
    """Check that every arc is a pair of plain ints in 0..6, then the
    tournament, block-cyclicity and out-closure axioms."""
    if plane.v != 7:
        raise StsError(f"orientations are defined for v=7, got v={plane.v}")
    arc_list = []
    for arc in arcs:
        try:
            x, y = arc
        except (TypeError, ValueError):
            raise OrientationError(f"arc {arc!r} is not a pair of points") from None
        arc_list.append((x, y))
    for x in (x for arc in arc_list for x in arc):
        if type(x) is not int or not 0 <= x <= 6:
            raise OrientationError(f"arc point {x!r} is not an integer in 0..6")
    arc_set = frozenset(arc_list)
    for x in range(7):
        for y in range(x + 1, 7):
            if ((x, y) in arc_set) == ((y, x) in arc_set):
                raise NotTournament((x, y))
    for (a, b, c) in plane.blocks:
        fwd = {(a, b), (b, c), (c, a)}
        bwd = {(b, a), (c, b), (a, c)}
        if not (fwd <= arc_set or bwd <= arc_set):
            raise BlockNotCyclic((a, b, c))
    blocks = plane.block_set()
    for x in range(7):
        outs = tuple(sorted(y for y in range(7) if (x, y) in arc_set))
        if outs not in blocks:
            raise OutNeighborsNotBlock(x, outs)
    return OrientedFano(plane, arc_set)


def qr_orientation() -> OrientedFano:
    """The quadratic-residue orientation of the translates of {0,1,3}:
    x -> y iff y - x in {1,2,4} (mod 7)."""
    from .steiner import fano_b1

    arcs = [(x, (x + d) % 7) for x in range(7) for d in (1, 2, 4)]
    return validate_orientation(fano_b1(), arcs)


def derived_plane(oriented: OrientedFano) -> TripleSystem:
    """The plane of in-neighbor triples; orthogonal to the carrier plane."""
    blocks = {canonical_block(oriented.in_neighbors(v)) for v in range(7)}
    result = validate_sts(7, sorted(blocks))
    if not are_orthogonal(oriented.plane, result)["orthogonal"]:
        raise AssertionError("derived plane is not orthogonal to its carrier")
    return result


def orientation_from_mate(f: TripleSystem, s: TripleSystem) -> OrientedFano:
    """The unique orientation of f whose derived plane is s: the cover of
    :func:`all_orientations` with the in-neighbors drawn from the blocks of
    s.  Orthogonality leaves exactly one cover."""
    if not are_orthogonal(f, s)["orthogonal"]:
        raise StsError("inputs are not orthogonal Fano planes")
    (oriented,) = _orientations(f, frozenset(map(frozenset, s.blocks)))
    if derived_plane(oriented) != s:
        raise AssertionError("mate round trip failed")
    return oriented


def all_orientations(plane: TripleSystem) -> list[OrientedFano]:
    """All 8 orientations, sorted by arcs."""
    return _orientations(plane, frozenset(map(frozenset, combinations(range(7), 3))))


def _orientations(plane: TripleSystem, ins: frozenset[frozenset[int]]) -> list[OrientedFano]:
    """The exact covers of the 7 points and 21 pairs by the choices (x, B)
    of a block B not through x as the out-neighbors of x, with the rest
    {0..6} - {x} - B in ins, each covering x and {x, y} for y in B; sorted
    by arcs.  Each cover is block-cyclic: B meets each block through x in
    one point."""
    if plane.v != 7:
        raise StsError(f"orientations are defined for v=7, got v={plane.v}")
    seven = frozenset(range(7))
    choices = [(x, b) for x in range(7) for b in plane.blocks
               if x not in b and seven - {x, *b} in ins]
    items = list(range(7)) + list(combinations(range(7), 2))
    subsets = [[x] + [(min(x, y), max(x, y)) for y in b] for x, b in choices]
    found = [
        validate_orientation(plane, [(choices[i][0], y) for i in c for y in choices[i][1]])
        for c in exact_covers(items, subsets)
    ]
    return sorted(found, key=lambda o: o.sorted_arcs())


def map_orientation(sigma: Perm, oriented: OrientedFano) -> OrientedFano:
    """Transport the orientation along a plane automorphism."""
    if map_sts(sigma, oriented.plane) != oriented.plane:
        raise StsError(f"{sigma.cycle_string()} is not an automorphism of the plane")
    arcs = frozenset((sigma(x), sigma(y)) for (x, y) in oriented.arcs)
    return validate_orientation(oriented.plane, arcs)


def oriented_automorphism_group(oriented: OrientedFano) -> PermGroup:
    """Plane automorphisms that stabilize the arcs, as ordered pairs."""
    return stabilizer(automorphism_group(oriented.plane), oriented.arcs)


def reverse(oriented: OrientedFano) -> OrientedFano:
    """The inverse orientation, which lives on the derived plane."""
    arcs = frozenset((y, x) for (x, y) in oriented.arcs)
    return validate_orientation(derived_plane(oriented), arcs)


@dataclass(frozen=True)
class FanoCircuit:
    """A Hamiltonian point sequence whose consecutive pairs cover all
    7 blocks, canonicalized up to rotation (start 0) and reversal."""

    seq: tuple[int, ...]


def canonical_circuit(seq: Sequence[int]) -> tuple[int, ...]:
    """Rotate to start at 0; of the sequence and its reversal keep the
    lexicographically smaller."""
    seq = tuple(seq)
    i = seq.index(0)
    fwd = seq[i:] + seq[:i]
    rev = tuple(reversed(seq))
    j = rev.index(0)
    bwd = rev[j:] + rev[:j]
    return min(fwd, bwd)


def validate_circuit(plane: TripleSystem, seq: Sequence[int]) -> FanoCircuit:
    """Check that the points are 7 distinct ints in 0..6 and the covering
    property: one consecutive pair per block."""
    if plane.v != 7:
        raise StsError(f"Fano circuits are defined for v=7, got v={plane.v}")
    seq = tuple(seq)
    for x in seq:
        if type(x) is not int or not 0 <= x <= 6:
            raise CircuitError(f"point {x!r} is not an integer in 0..6")
    if len(seq) != 7 or set(seq) != set(range(7)):
        raise RepeatedPoint(seq)
    third = plane.third_table
    steps = [tuple(sorted((x, y, third[x][y]))) for x, y in zip(seq, seq[1:] + seq[:1])]
    for block in plane.blocks:
        if steps.count(block) != 1:
            raise BlockNotCovered(block)
    return FanoCircuit(canonical_circuit(seq))


def _arcs_from_sequence(plane: TripleSystem, seq: tuple[int, ...]) -> set[Arc]:
    """Extend the consecutive arcs of a circuit cyclically on each block."""
    arcs: set[Arc] = set()
    for i in range(7):
        x, y = seq[i], seq[(i + 1) % 7]
        z = plane.third_point(x, y)
        arcs.update([(x, y), (y, z), (z, x)])
    return arcs


def circuit_to_orientation(plane: TripleSystem, circuit: FanoCircuit) -> OrientedFano:
    """The orientation induced by a circuit; the forward direction is
    tried first and the backward circuit is used if out-closure fails."""
    validate_circuit(plane, circuit.seq)
    try:
        return validate_orientation(plane, _arcs_from_sequence(plane, circuit.seq))
    except OrientationError:
        backward = tuple(reversed(circuit.seq))
        return validate_orientation(plane, _arcs_from_sequence(plane, backward))


def circuits_of_orientation(oriented: OrientedFano) -> list[FanoCircuit]:
    """The three circuits that induce the orientation: the covers of
    :func:`all_circuits` restricted to the darts that are arcs, since a
    circuit induces an orientation exactly when, in one of its two
    directions, every consecutive pair is an arc."""
    out = _circuits(oriented.plane, oriented.arcs)
    for circuit in out:
        if circuit_to_orientation(oriented.plane, circuit).arcs != oriented.arcs:
            raise AssertionError(f"circuit {circuit.seq} does not induce its orientation")
    return out


def all_circuits(plane: TripleSystem) -> list[FanoCircuit]:
    """All Fano circuits up to rotation and reversal (there are 24).  The
    count does not use the orientations."""
    return _circuits(plane, frozenset(permutations(range(7), 2)))


def _circuits(plane: TripleSystem, arcs: frozenset[Arc]) -> list[FanoCircuit]:
    """The circuits of the exact covers of the items i (block i is used),
    7 + x (x has a successor) and 14 + y (y has a predecessor) by the
    darts (x, y) in arcs, sorted.  Each cover is one 7-cycle, as shorter
    cycles would use a block twice."""
    if plane.v != 7:
        raise StsError(f"Fano circuits are defined for v=7, got v={plane.v}")
    darts = [(x, y, i) for i, b in enumerate(plane.blocks) for x in b for y in b if (x, y) in arcs]
    found: dict[tuple[int, ...], FanoCircuit] = {}
    for cover in exact_covers(range(21), [(i, 7 + x, 14 + y) for x, y, i in darts]):
        succ = dict(darts[d][:2] for d in cover)
        seq = [0]
        while len(seq) < 7:
            seq.append(succ[seq[-1]])
        circuit = validate_circuit(plane, seq)
        found[circuit.seq] = circuit
    return [found[seq] for seq in sorted(found)]
