"""Steiner triple systems: validation, orthogonality, isomorphism search.

Canonical form everywhere: each block is a strictly increasing triple,
and the block list is sorted lexicographically.  Equality of systems is
equality of canonical block lists.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import combinations, permutations
from typing import Callable, Hashable, Iterable, Iterator, Sequence

from .perms import Perm, PermGroup, _unchecked, group_from_chain, stabilizer

Triple = tuple[int, int, int]
ThirdTable = tuple[tuple[int, ...], ...]
Chain = tuple[tuple[int, ...], tuple[tuple[Perm, ...], ...]]  # (base, transversals)


class StsError(ValueError):
    """Base class for triple-system validation failures."""


class BadBlockCount(StsError):
    def __init__(self, v: int, got: int):
        self.v, self.got = v, got
        super().__init__(f"STS({v}) needs {v * (v - 1) // 6} blocks, got {got}")


class PairCoveredTwice(StsError):
    def __init__(self, pair: tuple[int, int]):
        self.pair = pair
        super().__init__(f"pair {pair} covered by more than one block")


class PairUncovered(StsError):
    def __init__(self, pair: tuple[int, int]):
        self.pair = pair
        super().__init__(f"pair {pair} covered by no block")


class PointSetMismatch(StsError):
    def __init__(self, v1: int, v2: int):
        super().__init__(f"point counts differ: {v1} vs {v2}")


def canonical_block(block: Iterable[int]) -> Triple:
    b = tuple(sorted(block))
    if len(b) != 3 or len(set(b)) != 3:
        raise StsError(f"not a triple: {block}")
    return b  # type: ignore[return-value]


@dataclass(frozen=True)
class TripleSystem:
    """An STS(v) in canonical form.  Build via :func:`validate_sts`."""

    v: int
    blocks: tuple[Triple, ...]

    def block_set(self) -> frozenset[Triple]:
        return frozenset(self.blocks)

    @cached_property
    def third_table(self) -> ThirdTable:
        """The v x v third-point table: entry [x][y] is the third point of
        the block through {x, y}, or -1 where no block covers the pair
        (always on the diagonal).  Built on first use, kept per system."""
        v = self.v
        rows = [[-1] * v for _ in range(v)]
        for (a, b, c) in reversed(self.blocks):  # the first block wins
            rows[a][b] = rows[b][a] = c
            rows[a][c] = rows[c][a] = b
            rows[b][c] = rows[c][b] = a
        return tuple(map(tuple, rows))

    def block_through(self, x: int, y: int) -> Triple:
        """The unique block containing the pair {x, y}."""
        z = self.third_point(x, y)
        return tuple(sorted((x, y, z)))  # type: ignore[return-value]

    def third_point(self, x: int, y: int) -> int:
        """The third point of the block containing the pair {x, y}."""
        if 0 <= x < self.v and 0 <= y < self.v:
            z = self.third_table[x][y]
            if z >= 0:
                return z
        raise PairUncovered(tuple(sorted((x, y))))

    def to_json(self) -> dict:
        return {"v": self.v, "blocks": [list(b) for b in self.blocks]}


def validate_sts(v: int, blocks: Sequence[Iterable[int]]) -> TripleSystem:
    """Canonicalize and validate: v and every point are plain ints, v is
    admissible (>= 1 and 1 or 3 mod 6), every pair in exactly one block."""
    if type(v) is not int:
        raise StsError(f"v={v!r} is not an integer")
    if v < 1 or v % 6 not in (1, 3):
        raise StsError(f"no STS({v}) exists: v must be >= 1 and 1 or 3 (mod 6)")
    blocks = [tuple(b) for b in blocks]
    for x in (x for b in blocks for x in b):
        if type(x) is not int:
            raise StsError(f"point {x!r} is not an integer")
    canon = sorted(canonical_block(b) for b in blocks)
    if len(canon) != v * (v - 1) // 6:
        raise BadBlockCount(v, len(canon))
    covered: set[tuple[int, int]] = set()
    for b in canon:
        for p in combinations(b, 2):
            if max(b) >= v or min(b) < 0:
                raise StsError(f"block {b} out of range for v={v}")
            if p in covered:
                raise PairCoveredTwice(p)
            covered.add(p)
    for p in combinations(range(v), 2):
        if p not in covered:
            raise PairUncovered(p)
    return TripleSystem(v, tuple(canon))


def sts_from_json(data: dict) -> TripleSystem:
    """Read {"v": ..., "blocks": [[x, y, z], ...]}; a wrongly shaped
    object is rejected naming the field at fault."""
    if not isinstance(data, dict):
        raise StsError(f"a design must be a JSON object, got {type(data).__name__}")
    for key in ("v", "blocks"):
        if key not in data:
            raise StsError(f"a design needs the key {key!r}")
    blocks = data["blocks"]
    if not isinstance(blocks, list) or not all(isinstance(b, list) for b in blocks):
        raise StsError(f"'blocks' must be a list of lists of points, got {blocks!r}")
    return validate_sts(data["v"], [tuple(b) for b in blocks])


def cyclic_sts(v: int, base_blocks: Sequence[Iterable[int]]) -> TripleSystem:
    """All translates base+z (mod v) of the base blocks, validated."""
    if v < 7:
        raise StsError(f"v={v} too small for an STS")
    blocks = {
        canonical_block((x + z) % v for x in b) for b in base_blocks for z in range(v)
    }
    return validate_sts(v, sorted(blocks))


def fano_b1() -> TripleSystem:
    """The Fano plane of the translates (mod 7) of {0,1,3}."""
    return cyclic_sts(7, [(0, 1, 3)])


def fano_b2() -> TripleSystem:
    """The Fano plane of the translates (mod 7) of {0,1,5}."""
    return cyclic_sts(7, [(0, 1, 5)])


def cyclic_sts13() -> TripleSystem:
    """The cyclic STS(13), generated (mod 13) by {1,3,9} and {2,5,6}."""
    return cyclic_sts(13, [(1, 3, 9), (2, 5, 6)])


def negate_sts(system: TripleSystem) -> TripleSystem:
    """Replace every block {u,v,w} by {-u,-v,-w} (mod v)."""
    v = system.v
    return validate_sts(
        v, [canonical_block((-x) % v for x in b) for b in system.blocks]
    )


def map_sts(sigma: Perm, system: TripleSystem) -> TripleSystem:
    """Image system under a point permutation."""
    return validate_sts(
        system.v, [canonical_block(sigma(x) for x in b) for b in system.blocks]
    )


def are_orthogonal(s1: TripleSystem, s2: TripleSystem) -> dict[str, bool]:
    """Disjointness plus the quadruple condition for orthogonality.

    Returns {"disjoint": ..., "orthogonal": ...}.  Orthogonal means
    disjoint and: whenever {x,y,z},{u,v,z} are blocks of s1 and {x,y,a},
    {u,v,b} are blocks of s2, then a != b.
    """
    if s1.v != s2.v:
        raise PointSetMismatch(s1.v, s2.v)
    disjoint = not (s1.block_set() & s2.block_set())
    orthogonal = disjoint
    if disjoint:
        for b1, b2 in combinations(s1.blocks, 2):
            common = set(b1) & set(b2)
            if len(common) != 1:
                continue
            (z,) = common
            (x, y) = sorted(set(b1) - {z})
            (u, v) = sorted(set(b2) - {z})
            if s2.third_point(x, y) == s2.third_point(u, v):
                orthogonal = False
                break
    return {"disjoint": disjoint, "orthogonal": orthogonal}


def closure(
    system: TripleSystem, seeds: Iterable[int]
) -> Iterator[tuple[int, tuple[int, int] | None]]:
    """The points generated by the seeds under "third point of a pair",
    each yielded once as (point, pair): pair is None for a seed taken as a
    base point, else the pair of earlier points whose third point it is.

    Each seed not yet placed becomes a base point, and the third point of
    each pair of points already placed follows, recording that pair,
    until nothing new appears.  The points form a subsystem, and every
    subsystem holding the seeds holds them (Colbourn & Rosa, *Triple
    Systems*).  Entries are yielded as found, so a caller that stops early
    stops the search; one that walks the order twice needs ``list(...)``.
    """
    table = system.third_table
    placed = [False] * system.v
    points: list[int] = []
    for base in seeds:
        if placed[base]:
            continue
        placed[base] = True
        points.append(base)
        yield base, None
        i = len(points) - 1
        while i < len(points):
            p = points[i]
            for q in points[:i]:
                z = table[q][p]
                if not placed[z]:
                    placed[z] = True
                    points.append(z)
                    yield z, (q, p)
            i += 1


def isomorphisms(s1: TripleSystem, s2: TripleSystem) -> list[Perm]:
    """All block-preserving bijections s1 -> s2, sorted by image tuple.

    Runs the search kernel compiled for s1, a straight-line function built
    on first use and kept for the last 64 source systems (see
    :func:`_isomorphism_kernel`), on the third-point table of s2.  Its
    checks prove each image tuple a bijection, so Perm's own check is skipped.
    """
    if s1.v != s2.v:
        raise PointSetMismatch(s1.v, s2.v)
    return list(map(_unchecked, sorted(_isomorphism_kernel(s1)(s2.third_table))))


@lru_cache(maxsize=64)
def _isomorphism_kernel(s1: TripleSystem, first: bool = False) -> Callable[..., list[tuple]]:
    """The isomorphism search from s1, compiled to one straight-line function
    of the third-point table t2 of a target system, returning the image tuple
    of every isomorphism in the order found, or with ``first`` of the first.

    The points of s1 are placed in their :func:`closure` order, the image
    of point x held in the local ``ix``.  Base point j loops over the images
    in its domain ``dj`` (``range(v)`` unless passed) not yet used; a
    derived point, the third point of an earlier pair {a, b}, takes the one
    image ``t2[ia][ib]``, and the branch dies if that is -1.  Every other
    block {a, b, c} of s1 is checked once, where the last of its points, c,
    is placed: ``t2[ia][ib]`` must be ``ic``.

    These checks prove that a leaf is an isomorphism.  Each block of s1
    either defines a derived point or is checked, so its three images form
    a block of s2 and are distinct.  Any two points of s1 lie in a block,
    so the map is injective, hence a bijection, and it carries the blocks
    of s1 onto blocks of s2.  No check is needed where a base point is
    placed: the points before it are closed, so no block has its last
    point there, nor a test that base point b takes a new image: for each
    earlier point q, the third point of {q, b} is derived right after b as
    ``t2[iq][ib]``, -1 exactly when ib == iq.  The source holds only v and
    the points of s1, which :func:`validate_sts` checks to be ints.
    """
    order = list(closure(s1, range(s1.v)))
    position = {x: k for k, (x, _) in enumerate(order)}
    checks: list[list[str]] = [[] for _ in order]
    for block in s1.blocks:
        a, b, c = sorted(block, key=position.__getitem__)
        pair = order[position[c]][1]
        if pair is None or {a, b} != set(pair):
            checks[position[c]].append(f"if t2[i{a}][i{b}] != i{c}: continue")
    base = [x for x, pair in order if pair is None]
    domains = ", ".join(f"d{j}=range({s1.v})" for j in range(len(base)))
    lines = [f"def kernel(t2, {domains}):", " out = []"]
    pad = " "
    for (x, pair), tests in zip(order, checks):
        if pair is None:
            lines.append(f"{pad}for i{x} in d{base.index(x)}:")
            pad += " "
        else:
            lines.append(f"{pad}i{x} = t2[i{pair[0]}][i{pair[1]}]")
            lines.append(f"{pad}if i{x} < 0: continue")
        lines += [pad + test for test in tests]
    leaf = f"({', '.join(f'i{x}' for x in range(s1.v))},)"
    lines += [pad + (f"return [{leaf}]" if first else f"out.append({leaf})"), " return out"]
    exec("\n".join(lines), namespace := {})
    return namespace["kernel"]


def isomorphisms_bruteforce(s1: TripleSystem, s2: TripleSystem) -> list[Perm]:
    """Oracle: sweep all v! permutations (v=7 only) and keep those that
    carry every block of s1 onto a block of s2.

    A plain sweep that shares no code with :func:`isomorphisms`.  Point x
    is encoded as the bit 2**x, so a permutation is a tuple of bits and a
    block's image is the OR of its three image bits, looked up among the
    bitmasks of the blocks of s2.
    """
    if s1.v != 7 or s2.v != 7:
        raise StsError("brute-force sweep is only tuned for v=7")
    target = {(1 << a) | (1 << b) | (1 << c) for (a, b, c) in s2.blocks}
    blocks = s1.blocks
    out = []
    for bits in permutations((1, 2, 4, 8, 16, 32, 64)):
        for a, b, c in blocks:
            if bits[a] | bits[b] | bits[c] not in target:
                break
        else:
            out.append(Perm(tuple(x.bit_length() - 1 for x in bits)))
    return sorted(out)


def automorphism_chain(system: TripleSystem) -> Chain:
    """Aut(system) as (base, transversals): the base points of :func:`closure`
    and, per base point b_i and point y, the kernel's first map fixing the
    earlier base points and sending b_i to y, if any (the identity if y = b_i)."""
    first, table = _isomorphism_kernel(system, True), system.third_table
    base = tuple(x for x, pair in closure(system, range(system.v)) if pair is None)
    fixed = [[(a,) for a in base[:i]] for i in range(len(base))]
    maps = [[first(table, *f, (y,)) for y in range(system.v)] for f in fixed]
    return base, tuple(tuple(_unchecked(m[0]) for m in level if m) for level in maps)


def automorphism_group(system: TripleSystem) -> PermGroup:
    """Aut(system), listed from :func:`automorphism_chain` as the products
    u_0 * u_1 * ... * u_{k-1}, u_i in transversals[i], with no closure check.
    The products are automorphisms, as the u_i are.  They are pairwise
    distinct and exhaust Aut, by induction down the base: the kernel search
    is exhaustive, so an automorphism g fixing base[:i] sends base[i] where
    exactly one u_i does, and u_i^-1 g fixes base[:i + 1].  An automorphism
    fixing the whole base fixes its closure, every point, so is the
    identity; and |Aut| is the product of the orbit lengths."""
    return group_from_chain(system.v, automorphism_chain(system)[1])


def common_automorphism_group(s1: TripleSystem, s2: TripleSystem) -> PermGroup:
    """Automorphisms of s1 that stabilize the blocks of s2, as point sets."""
    if s1.v != s2.v:
        raise PointSetMismatch(s1.v, s2.v)
    return stabilizer(automorphism_group(s1), frozenset(map(frozenset, s2.blocks)))


def exact_covers(
    items: Sequence[Hashable], subsets: Iterable[Iterable[Hashable]]
) -> list[list[int]]:
    """Every set of subsets that partitions ``items``, each as the sorted
    list of its subset indices, in the order the search finds them.

    Knuth's Algorithm X without the dancing links: branch on the first
    uncovered item, in the order of ``items``, and try in index order each
    subset that holds it and is disjoint from those already chosen.
    Subsets must be non-empty (an empty one lies on no branch) and drawn
    from ``items``.
    """
    sets = [frozenset(s) for s in subsets]
    holding: dict[Hashable, list[int]] = {x: [] for x in items}
    for i, s in enumerate(sets):
        for x in s:
            holding[x].append(i)
    out: list[list[int]] = []

    def search(k: int, chosen: list[int], covered: frozenset) -> None:
        while k < len(items) and items[k] in covered:
            k += 1
        if k == len(items):
            out.append(sorted(chosen))
            return
        for i in holding[items[k]]:
            if covered.isdisjoint(sets[i]):
                search(k + 1, chosen + [i], covered | sets[i])

    search(0, [], frozenset())
    return out


def all_fano_planes() -> list[TripleSystem]:
    """Every labeled STS(7) on points {0..6} (there are 30), sorted: the
    exact covers of the 21 pairs by the 35 triples, each covering its 3
    pairs.  The search runs once per process; each call gets a new list."""
    return list(_fano_planes())


@lru_cache(maxsize=None)
def _fano_planes() -> tuple[TripleSystem, ...]:
    pairs = list(combinations(range(7), 2))
    triples = list(combinations(range(7), 3))
    covers = exact_covers(pairs, [combinations(t, 2) for t in triples])
    planes = [TripleSystem(7, tuple(triples[i] for i in c)) for c in covers]
    return tuple(sorted(planes, key=lambda s: s.blocks))


def orthogonal_mates(plane: TripleSystem) -> list[TripleSystem]:
    """The Fano planes disjoint from (equivalently, orthogonal to) a plane."""
    if plane.v != 7:
        raise StsError(f"orthogonal mates are defined for v=7, got v={plane.v}")
    mine = plane.block_set()
    return [s for s in all_fano_planes() if not (s.block_set() & mine)]
