"""Steiner triple systems: validation, orthogonality, isomorphism search.

Canonical form everywhere: each block is a strictly increasing triple,
and the block list is sorted lexicographically.  Equality of systems is
equality of canonical block lists.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations, permutations
from typing import Callable, Hashable, Iterable, Iterator, Sequence

from .perms import Perm, PermGroup, _unchecked, affine_perm

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
    """An STS(v) in canonical form.  Build via :func:`validate_sts`, which
    also fills the v x v third-point table: entry [x][y] is the third point
    of the block through {x, y}, -1 on the diagonal.  The table is not part
    of the value: equality, hash and repr read v and the blocks only."""

    v: int
    blocks: tuple[Triple, ...]
    third_table: ThirdTable = field(compare=False, repr=False)

    def block_set(self) -> frozenset[Triple]:
        return frozenset(self.blocks)

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
    admissible (>= 1 and 1 or 3 mod 6), every pair in exactly one block.

    One pass fills the system's third-point table; a pair whose entry is
    already set is covered twice.  No pair is left uncovered: v(v-1)/6
    blocks of 3 distinct points in range, no pair twice, cover 3 * v(v-1)/6 =
    v(v-1)/2 distinct pairs, which is every pair."""
    if type(v) is not int:
        raise StsError(f"v={v!r} is not an integer")
    if v < 1 or v % 6 not in (1, 3):
        raise StsError(f"no STS({v}) exists: v must be >= 1 and 1 or 3 (mod 6)")
    try:
        blocks = [tuple(b) for b in blocks]
    except TypeError:
        raise StsError(f"blocks {blocks!r} are not a list of point triples") from None
    for x in (x for b in blocks for x in b):
        if type(x) is not int:
            raise StsError(f"point {x!r} is not an integer")
    canon = sorted(canonical_block(b) for b in blocks)
    if len(canon) != v * (v - 1) // 6:
        raise BadBlockCount(v, len(canon))
    rows = [[-1] * v for _ in range(v)]
    for a, b, c in canon:
        if a < 0 or c >= v:
            raise StsError(f"block {(a, b, c)} out of range for v={v}")
        for x, y, z in ((a, b, c), (a, c, b), (b, c, a)):
            if rows[x][y] >= 0:
                raise PairCoveredTwice((x, y))
            rows[x][y] = rows[y][x] = z
    return TripleSystem(v, tuple(canon), tuple(map(tuple, rows)))


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
    return map_sts(affine_perm(system.v, -1, 0), system)


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


def isomorphisms(s1: TripleSystem, s2: TripleSystem, arcs: frozenset | set | None = None,
                 mate: TripleSystem | None = None) -> list[Perm]:
    """All block-preserving bijections s1 -> s2, sorted by image tuple; with
    ``arcs``, a set of ordered pairs, those carrying arcs onto arcs, and with
    ``mate``, a system on the same points, those carrying its blocks onto its
    blocks.  Runs the search kernel compiled for s1 and mate (see
    :func:`_isomorphism_kernel`), which yields the maps sorted and whose
    checks prove each image tuple a bijection, so Perm's own check is skipped."""
    v, tables = s1.v, [s2.third_table]
    for s in (s2, mate) if mate else (s2,):
        if s.v != v:
            raise PointSetMismatch(v, s.v)
    if arcs:
        tables.append(tuple(tuple((x, y) in arcs for y in range(v)) for x in range(v)))
    kernel = _isomorphism_kernel(s1, bool(arcs), mate)
    return list(map(_unchecked, kernel(*tables)))


def is_isomorphic(s1: TripleSystem, s2: TripleSystem) -> Perm | None:
    """The kernel's first isomorphism s1 -> s2, or None: its search is exhaustive."""
    if s1.v != s2.v:
        raise PointSetMismatch(s1.v, s2.v)
    found = next(_isomorphism_kernel(s1, False, None)(s2.third_table), None)
    return None if found is None else _unchecked(found)


@lru_cache(maxsize=64)
def _isomorphism_kernel(s1: TripleSystem, arcs: bool = False,
                        mate: TripleSystem | None = None) -> Callable[..., Iterator[tuple]]:
    """The isomorphism search from s1, compiled on first use (and kept for the
    last 64 keys) to one straight-line generator of the third-point table t2
    of a target system, yielding the image tuple of every isomorphism in the
    order found.  With ``arcs`` it also takes a v x v table r and keeps the
    maps with ``r[ix][iy] == r[x][y]`` for x != y; with ``mate``, those that
    carry mate's blocks onto blocks of mate, read from its third-point table
    u, which is compiled in, as mate is part of the key.

    The points of s1 are placed in their :func:`closure` order, the image
    of point x held in the local ``ix``.  Base point j loops over the images
    in its domain ``dj`` (``range(v)`` unless passed) not yet used; a
    derived point, the third point of an earlier pair {a, b}, takes the one
    image ``t2[ia][ib]``, and the branch dies if that is -1.  Every other
    block {a, b, c} of s1 is checked once, where the last of its points, c,
    is placed: ``t2[ia][ib]`` must be ``ic``.  So is each block of mate in
    u, and each ordered pair (x, y) in r where the later point is placed.

    These checks prove that a leaf is an isomorphism.  Each block of s1
    either defines a derived point or is checked, so its three images form
    a block of s2 and are distinct.  Any two points of s1 lie in a block,
    so the map is injective, hence a bijection, and it carries the blocks
    of s1 onto blocks of s2.  A leaf carries each block of mate onto a block
    of mate, and each ordered pair onto one that is an arc exactly when it
    is, as each is checked; being a bijection, it carries mate's blocks and
    the arcs onto themselves.  No check of s1 is needed where a base point is
    placed: the points before it are closed, so no block has its last
    point there, nor a test that base point b takes a new image: for each
    earlier point q, the third point of {q, b} is derived right after b as
    ``t2[iq][ib]``, -1 exactly when ib == iq.  The source holds only v and
    the points of s1 and mate, which :func:`validate_sts` checks to be ints.

    With ascending domains, as ``range(v)`` is, the maps come sorted by image
    tuple.  Base point b_i is the least point outside the closure of b_0..b_{i-1},
    so those base images fix every image below b_i.  If g is found before h,
    and b_i is the first base point they map apart, they agree below b_i, and
    the loop over d_i reached g(b_i) first: g(b_i) < h(b_i), so g < h.
    """
    order = list(closure(s1, range(s1.v)))
    position = {x: k for k, (x, _) in enumerate(order)}
    checks: list[list[str]] = [[] for _ in order]
    for block in s1.blocks:
        a, b, c = sorted(block, key=position.__getitem__)
        pair = order[position[c]][1]
        if pair is None or {a, b} != set(pair):
            checks[position[c]].append(f"if t2[i{a}][i{b}] != i{c}: continue")
    for block in mate.blocks if mate else ():
        a, b, c = sorted(block, key=position.__getitem__)
        checks[position[c]].append(f"if u[i{a}][i{b}] != i{c}: continue")
    for x, y in permutations(range(s1.v) if arcs else (), 2):
        checks[max(position[x], position[y])].append(f"if r[i{x}][i{y}] != r[{x}][{y}]: continue")
    base = [x for x, pair in order if pair is None]
    domains = ", ".join(f"d{j}=range({s1.v})" for j in range(len(base)))
    lines = [f"def kernel({'t2, r' if arcs else 't2'}, {domains}):"]
    pad = " "
    for (x, pair), tests in zip(order, checks):
        if pair is None:
            lines.append(f"{pad}for i{x} in d{base.index(x)}:")
            pad += " "
        else:
            lines.append(f"{pad}i{x} = t2[i{pair[0]}][i{pair[1]}]")
            lines.append(f"{pad}if i{x} < 0: continue")
        lines += [pad + test for test in tests]
    lines.append(f"{pad}yield ({', '.join(f'i{x}' for x in range(s1.v))},)")
    exec("\n".join(lines), namespace := {"u": mate and mate.third_table})
    return namespace["kernel"]


def isomorphisms_bruteforce(s1: TripleSystem, s2: TripleSystem) -> list[Perm]:
    """Oracle: sweep all v! permutations (v=7 only) and keep those that
    carry every block of s1 onto a block of s2, sorted.

    A plain sweep that shares no code with :func:`isomorphisms`.  Point x
    is encoded as the bit 2**x, so a permutation is a tuple of bits and a
    block's image is the OR of its three image bits, looked up among the
    bitmasks of the blocks of s2.  The first block of s1 is tested on its
    own: it rejects 4 of 5 permutations, as 7 of the 35 triples are
    blocks.  The bit tuples are in lexicographic order, as
    ``permutations`` yields them from a sorted tuple, and so are the image
    tuples of the maps, which are appended already sorted.
    """
    if s1.v != 7 or s2.v != 7:
        raise StsError("brute-force sweep is only tuned for v=7")
    target = {(1 << a) | (1 << b) | (1 << c) for (a, b, c) in s2.blocks}
    (a0, b0, c0), *blocks = s1.blocks
    out = []
    for bits in _bit_permutations():
        if bits[a0] | bits[b0] | bits[c0] not in target:
            continue
        for a, b, c in blocks:
            if bits[a] | bits[b] | bits[c] not in target:
                break
        else:
            out.append(Perm(tuple(x.bit_length() - 1 for x in bits)))
    return out


@lru_cache(maxsize=None)
def _bit_permutations() -> tuple[tuple[int, ...], ...]:
    """The 5040 permutations of the bits 2**0..2**6, listed once."""
    return tuple(permutations((1, 2, 4, 8, 16, 32, 64)))


def automorphism_bound(system: TripleSystem) -> int:
    """An upper bound on |Aut(system)| read from the base alone, with no search:
    the product over the base points b_i of v - c_i, where c_i is the size of
    C_i, the closure of b_0..b_{i-1}, which is the position of b_i in
    :func:`closure` order.  An automorphism g maps C_i onto the closure of
    g(b_0)..g(b_{i-1}), a set of c_i points, and b_i lies outside C_i, so g(b_i)
    lies outside that set: given the earlier base images, at most v - c_i
    choices.  The base images fix g, as they fix the image of every point of
    their closure, which is every point.  So |Aut| <= the bound."""
    bound = 1
    for c, (_, pair) in enumerate(closure(system, range(system.v))):
        if pair is None:
            bound *= system.v - c
    return bound


def automorphism_chain(system: TripleSystem) -> Chain:
    """Aut(system) as (base, transversals): the base points of :func:`closure`
    and, per base point b_i and point y, the kernel's first map fixing the
    earlier base points and sending b_i to y, if any (the identity if y = b_i).
    |Aut| is the product of the orbit lengths, by induction down the base: the
    search is exhaustive, so an automorphism g fixing base[:i] sends base[i]
    where exactly one u_i in transversals[i] does, and u_i^-1 g fixes
    base[:i + 1]; one fixing the whole base fixes its closure, every point.
    ``aut`` builds it only for a group whose :func:`automorphism_bound` is above
    its listing limit, for the order and, above the limit, the generators."""
    kernel, table = _isomorphism_kernel(system, False, None), system.third_table
    base = tuple(x for x, pair in closure(system, range(system.v)) if pair is None)
    fixed = [[(a,) for a in base[:i]] for i in range(len(base))]
    maps = [[next(kernel(table, *f, (y,)), None) for y in range(system.v)] for f in fixed]
    return base, tuple(tuple(map(_unchecked, filter(None, level))) for level in maps)


def automorphism_images(system: TripleSystem) -> list[tuple[int, ...]]:
    """Every automorphism's image tuple, sorted, from one kernel search."""
    return list(_isomorphism_kernel(system, False, None)(system.third_table))


def automorphism_group(system: TripleSystem) -> PermGroup:
    """Aut(system), listed by one kernel search, with no closure check."""
    return PermGroup(system.v, tuple(map(_unchecked, automorphism_images(system))))


def common_automorphism_group(s1: TripleSystem, s2: TripleSystem) -> PermGroup:
    """Automorphisms of s1 that stabilize the blocks of s2, as point sets: one
    kernel search, with no closure check, as a stabilizer is a subgroup."""
    return PermGroup(s1.v, tuple(isomorphisms(s1, s1, mate=s2)))


def exact_covers(
    items: Sequence[Hashable], subsets: Iterable[Iterable[Hashable]]
) -> list[list[int]]:
    """Every set of subsets that partitions ``items``, each as the sorted
    list of its subset indices, in the order the search finds them.

    Knuth's Algorithm X on bitmasks, without the dancing links: the k-th
    distinct item of ``items`` is bit k.  Branch on the lowest bit not yet
    covered and try, in index order, each subset holding it that is
    disjoint from those chosen.  Subsets must be non-empty (an empty one
    lies on no branch) and drawn from ``items``.
    """
    index = {x: k for k, x in enumerate(dict.fromkeys(items))}
    holding: list[list[tuple[int, int]]] = [[] for _ in index]
    for i, s in enumerate(subsets):
        ks = {index[x] for x in s}
        mask = sum(1 << k for k in ks)
        for k in ks:
            holding[k].append((i, mask))
    full = (1 << len(index)) - 1
    out: list[list[int]] = []

    def search(chosen: list[int], covered: int) -> None:
        if covered == full:
            out.append(sorted(chosen))
            return
        for i, mask in holding[(~covered & (covered + 1)).bit_length() - 1]:
            if not covered & mask:
                search(chosen + [i], covered | mask)

    search([], 0)
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
    planes = [validate_sts(7, [triples[i] for i in c]) for c in covers]
    return tuple(sorted(planes, key=lambda s: s.blocks))


def orthogonal_mates(plane: TripleSystem) -> list[TripleSystem]:
    """The Fano planes disjoint from (equivalently, orthogonal to) a plane."""
    if plane.v != 7:
        raise StsError(f"orthogonal mates are defined for v=7, got v={plane.v}")
    mine = plane.block_set()
    return [s for s in all_fano_planes() if not (s.block_set() & mine)]
