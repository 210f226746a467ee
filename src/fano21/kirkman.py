"""The STS(15) #61 and its Kirkman resolution.

Points are encoded as integers 0..14: the finite point i is i, the
primed point i' is i + 7, and the extra point (rendered "inf") is 14.
Translation by z acts as i -> i+z and i' -> (i+z)' (mod 7), fixing 14.
"""

from __future__ import annotations

from itertools import combinations, islice

from .perms import PermGroup, stabilizer
from .steiner import (
    StsError,
    Triple,
    TripleSystem,
    are_orthogonal,
    automorphism_group,
    closure,
    exact_covers,
    fano_b1,
    fano_b2,
    validate_sts,
)

INFINITY = 14


def point_name(p: int) -> str:
    if p == INFINITY:
        return "inf"
    if p >= 7:
        return f"{p - 7}'"
    return str(p)


def sts15_from_pair(f: TripleSystem, s: TripleSystem) -> TripleSystem:
    """The STS(15) built from an ordered pair (f, s) of orthogonal Fano
    planes, a construction from the pair that reproduces #61 on (b1, b2).
    Its blocks are the 7 lines of f, {n, n', inf} for each n, and three
    blocks {x, y', z'} for each point x.  The lines of f through x pair up
    the other six points, and so do the lines of s.  The two planes share
    no line, so the two pairings share no pair, and their union, a union of
    even cycles each longer than 2, is one hexagon.  Walked from the least
    point other than x, alternating f and s, it has three antipodal pairs:
    these are the {y, z}."""
    if f.v != 7 or s.v != 7 or not are_orthogonal(f, s)["orthogonal"]:
        raise StsError("inputs are not orthogonal Fano planes")
    blocks = [*f.blocks, *((n, n + 7, INFINITY) for n in range(7))]
    for x in range(7):
        hexagon = [0 if x else 1]
        for plane in (f, s, f, s, f):
            hexagon.append(plane.third_table[x][hexagon[-1]])
        blocks += [(x, hexagon[i] + 7, hexagon[i + 3] + 7) for i in range(3)]
    return validate_sts(15, blocks)


def sts15_61() -> TripleSystem:
    """#61, built from the orthogonal pair (b1, b2)."""
    return sts15_from_pair(fano_b1(), fano_b2())


def fano_subplanes(system: TripleSystem) -> list[tuple[tuple[int, ...], TripleSystem]]:
    """All 7-point subsystems (Fano subplanes), sorted by point set, each
    with its blocks relabelled onto 0..6 in point order: the closures of
    the 3-subsets that have 7 points.  Each closure is cut off at its
    eighth point, since a larger one is no subplane."""
    subsets = {
        tuple(sorted(p for p, _ in islice(closure(system, seeds), 8)))
        for seeds in combinations(range(system.v), 3)
    }
    out = []
    for pts in sorted(s for s in subsets if len(s) == 7):
        relabel = {p: i for i, p in enumerate(pts)}
        blocks = [
            [relabel[x] for x in b] for b in system.blocks if set(b) <= relabel.keys()
        ]
        out.append((pts, validate_sts(7, blocks)))
    return out


def parallel_classes(system: TripleSystem) -> list[list[Triple]]:
    """All parallel classes (spanning sets of v/3 disjoint blocks), sorted:
    the exact covers of the v points by the blocks."""
    if system.v % 3 != 0:
        raise StsError(f"v={system.v} is not divisible by 3")
    covers = exact_covers(range(system.v), system.blocks)
    return sorted([system.blocks[i] for i in c] for c in covers)


def sts_automorphism_group15(system: TripleSystem) -> PermGroup:
    """The automorphism group of an STS(15), by the generic search."""
    if system.v != 15:
        raise StsError(f"expected v=15, got v={system.v}")
    return automorphism_group(system)


def kts_automorphism_group(sts: TripleSystem, classes: list[list[Triple]]) -> PermGroup:
    """STS automorphisms that stabilize the set of parallel classes, which
    the caller has checked partition the blocks."""
    structure = frozenset(frozenset(map(frozenset, cls)) for cls in classes)
    return stabilizer(sts_automorphism_group15(sts), structure)
