"""The STS(15) #61 and its Kirkman resolution.

Points are encoded as integers 0..14: the finite point i is i, the
primed point i' is i + 7, and the extra point (rendered "inf") is 14.
Translation by z acts as i -> i+z and i' -> (i+z)' (mod 7), fixing 14.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, islice

from .perms import Perm, PermGroup, stabilizer
from .steiner import (
    StsError,
    Triple,
    TripleSystem,
    automorphism_group,
    canonical_block,
    closure,
    common_automorphism_group,
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


def parse_point(name: str) -> int:
    """Inverse of :func:`point_name`; "oo" and "∞" also name inf."""
    names = {point_name(p): p for p in range(15)} | {"oo": INFINITY, "∞": INFINITY}
    try:
        return names[name.strip()]
    except KeyError:
        raise ValueError(f"{name!r} is not a point name: 0..6, 0'..6' or inf") from None


def _translate(p: int, z: int) -> int:
    if p == INFINITY:
        return p
    if p >= 7:
        return (p - 7 + z) % 7 + 7
    return (p + z) % 7


def translation15(z: int) -> Perm:
    """n -> n+z, n' -> (n+z)', inf -> inf."""
    return Perm(tuple(_translate(p, z) for p in range(15)))


def doubling15() -> Perm:
    """n -> 2n, n' -> (2n)', inf -> inf."""
    return Perm(
        tuple(
            p if p == INFINITY else (2 * p) % 7 if p < 7 else (2 * (p - 7)) % 7 + 7
            for p in range(15)
        )
    )


BASE_BLOCKS_61 = (
    (0, 7, 14),  # 0 0' inf
    (0, 1, 3),
    (0, 8, 13),  # 0 1' 6'
    (0, 9, 12),  # 0 2' 5'
    (0, 10, 11),  # 0 3' 4'
)

BASE_PARALLEL_CLASS_61 = (
    (0, 7, 14),  # 0 0' inf
    (1, 2, 4),
    (3, 8, 12),  # 3 1' 5'
    (5, 11, 13),  # 5 4' 6'
    (6, 9, 10),  # 6 2' 3'
)


def sts15_61() -> TripleSystem:
    """The 35 blocks cyclically generated (mod 7) by the five base blocks."""
    blocks = {
        canonical_block(_translate(p, z) for p in b)
        for b in BASE_BLOCKS_61
        for z in range(7)
    }
    return validate_sts(15, sorted(blocks))


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


@dataclass(frozen=True)
class Resolution:
    """An STS together with a partition of its blocks into parallel
    classes."""

    sts: TripleSystem
    classes: tuple[tuple[Triple, ...], ...]

    def __post_init__(self) -> None:
        flat = [b for cls in self.classes for b in cls]
        if sorted(flat) != sorted(self.sts.blocks):
            raise StsError("classes do not partition the block set")
        for cls in self.classes:
            pts = sorted(x for b in cls for x in b)
            if pts != list(range(self.sts.v)):
                raise StsError(f"class {cls} does not partition the point set")

    def to_json(self) -> dict:
        index = {b: i for i, b in enumerate(self.sts.blocks)}
        return {
            "v": self.sts.v,
            "blocks": [list(b) for b in self.sts.blocks],
            "classes": [sorted(index[b] for b in cls) for cls in self.classes],
        }


def resolution_61() -> Resolution:
    """The 7 translates (mod 7) of the base parallel class of #61."""
    sts = sts15_61()
    classes = tuple(
        tuple(
            sorted(
                canonical_block(_translate(p, z) for p in b)
                for b in BASE_PARALLEL_CLASS_61
            )
        )
        for z in range(7)
    )
    return Resolution(sts, classes)


def sts_automorphism_group15(system: TripleSystem) -> PermGroup:
    """The automorphism group of an STS(15), by the generic search."""
    if system.v != 15:
        raise StsError(f"expected v=15, got v={system.v}")
    return automorphism_group(system)


def structured_automorphism_group61(system: TripleSystem) -> PermGroup:
    """Oracle for #61-shaped systems: fix inf, extend each common automorphism
    of the two inner Fano planes by sigma(n') = sigma(n)', keep those fixing the blocks.
    The lifts are a group: the image of one under an injective homomorphism."""
    lifts = [
        Perm(small.images + tuple(n + 7 for n in small.images) + (INFINITY,))
        for small in common_automorphism_group(fano_b1(), fano_b2())
    ]
    return stabilizer(PermGroup(15, tuple(lifts)), frozenset(map(frozenset, system.blocks)))


def restriction_to_p(group: PermGroup) -> PermGroup:
    """Restrict a group stabilizing {0..6} pointwise-compatibly to degree 7.

    Every element must fix inf and stabilize the Fano point set; the
    restriction map, a homomorphism, must be injective.
    """
    restricted = []
    for sigma in group:
        if sigma(INFINITY) != INFINITY:
            raise StsError(f"{sigma.cycle_string()} moves the infinity point")
        images = tuple(sigma(n) for n in range(7))
        if sorted(images) != list(range(7)):
            raise StsError(f"{sigma.cycle_string()} does not stabilize 0..6")
        restricted.append(Perm(images))
    if len(set(restricted)) != group.order:
        raise StsError("restriction to the Fano point set is not injective")
    return PermGroup(7, tuple(restricted))


def kts_automorphism_group(resolution: Resolution) -> PermGroup:
    """STS automorphisms that stabilize the set of parallel classes."""
    classes = frozenset(frozenset(map(frozenset, cls)) for cls in resolution.classes)
    return stabilizer(sts_automorphism_group15(resolution.sts), classes)
