"""Permutations of {0..n-1} and exhaustively stored finite permutation groups.

A :class:`Perm` is applied by calling it and multiplied only through
:func:`compose`, which applies its second argument first:
``compose(p, q)(x) == p(q(x))``.  It has no product operator, inverse or
order; the library needs none of them.  Groups are stored as full element
lists, sorted lexicographically by image tuple so that every enumeration is
deterministic.  Groups come from generators, from an exhaustive search
(:func:`fano21.steiner.automorphism_group`) or from a :func:`stabilizer` in a
group, with no closure check; :func:`group_from_elements`, which proves one,
is an oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, compress
from operator import attrgetter, eq, itemgetter
from typing import Iterable, Iterator, Sequence


class DegreeMismatch(ValueError):
    """Raised when combining permutations of different degrees."""


class NotAPermutation(ValueError):
    """Raised when an image list is not a bijection of {0..n-1}."""


@dataclass(frozen=True, order=True)
class Perm:
    """A permutation of {0..n-1}, stored as the tuple of images."""

    images: tuple[int, ...]

    def __post_init__(self) -> None:
        n = len(self.images)
        if n < 1 or sorted(self.images) != list(range(n)):
            raise NotAPermutation(f"not a bijection of 0..{n - 1}: {self.images}")

    @property
    def degree(self) -> int:
        return len(self.images)

    def __call__(self, x: int) -> int:
        return self.images[x]

    def cycles(self) -> list[tuple[int, ...]]:
        """Cycle decomposition, fixed points omitted, each cycle starting
        at its minimal element, cycles sorted by that element."""
        seen: set[int] = set()
        out = []
        for start in range(self.degree):
            if start in seen or self.images[start] == start:
                seen.add(start)
                continue
            cyc = [start]
            x = self.images[start]
            while x != start:
                cyc.append(x)
                x = self.images[x]
            seen.update(cyc)
            out.append(tuple(cyc))
        return out

    def cycle_string(self) -> str:
        return "".join("(" + " ".join(str(x) for x in c) + ")" for c in self.cycles()) or "()"

    def to_json(self) -> list[int]:
        return list(self.images)


# bound once: per product, looking them up on ``object`` costs about as
# much as the composition itself
_new_object = object.__new__
_set_field = object.__setattr__
# a sort key that reads a Perm's image tuple in C
_images = attrgetter("images")


def _unchecked(images: tuple[int, ...]) -> Perm:
    """A Perm built without the bijection check, for images proved a
    bijection: a product of valid Perms, or an isomorphism kernel's map."""
    p = _new_object(Perm)
    _set_field(p, "images", images)
    return p


def compose(p: Perm, q: Perm) -> Perm:
    """p after q: the result maps x to p(q(x))."""
    images, inner = p.images, q.images
    if len(images) != len(inner):
        raise DegreeMismatch(f"degrees {len(images)} and {len(inner)} differ")
    return _unchecked(tuple([images[y] for y in inner]))


def affine_perm(modulus: int, a: int, b: int) -> Perm:
    """The map x -> a*x + b (mod modulus)."""
    return Perm(tuple((a * x + b) % modulus for x in range(modulus)))


@dataclass(frozen=True)
class PermGroup:
    """A finite permutation group, stored exhaustively and sorted, each element once."""

    degree: int
    elements: tuple[Perm, ...]

    def __post_init__(self) -> None:
        elements = sorted(self.elements, key=_images)
        images = list(map(_images, elements))
        if {len(p) for p in images} - {self.degree}:
            raise DegreeMismatch("mixed degrees in group")
        # after the sort, a repeat is equal to its successor
        if (repeat := next(compress(images, map(eq, images, images[1:])), None)):
            raise ValueError(f"element {repeat} is listed more than once")
        # among permutations of one degree the identity is the least tuple
        if images[:1] != [tuple(range(self.degree))]:
            raise ValueError("group does not contain the identity")
        object.__setattr__(self, "elements", tuple(elements))

    @property
    def order(self) -> int:
        return len(self.elements)

    def __iter__(self) -> Iterator[Perm]:
        return iter(self.elements)

    def is_abelian(self) -> bool:
        return all(compose(p, q) == compose(q, p) for p, q in combinations(self.elements, 2))


def _closure(degree: int, candidates: Iterable[Perm]) -> Iterator[tuple[int, ...]]:
    """Yield the image tuple of each element of the group the candidates
    generate once, the first time it is reached, starting with the
    identity.

    Generators T are picked greedily: each candidate not yet in <T> joins
    T, and <T> is grown by right multiplication with every generator.
    This costs |<T>| * |T| products of image tuples, and builds no Perm:
    generator s is ``itemgetter(*s.images)``, which maps the images of p
    to those of ``compose(p, s)`` in C.  At degree 1, where ``itemgetter``
    would return a bare int, the one candidate is the identity.
    """
    reached = [tuple(range(degree))]
    seen = set(reached)
    yield reached[0]
    gens: list[itemgetter] = []
    for s in candidates:
        if s.images in seen:
            continue
        gen = itemgetter(*s.images)
        gens.append(gen)
        # Old elements are closed under the old generators: apply only
        # the new one to them, then every generator to what that adds.
        old = len(reached)
        k = 0
        while k < len(reached):
            p = reached[k]
            for g in (gen,) if k < old else gens:
                q = g(p)
                if q not in seen:
                    seen.add(q)
                    reached.append(q)
                    yield q
            k += 1


def generate_group(degree: int, generators: Sequence[Perm]) -> PermGroup:
    """Closure of the generators under composition."""
    for g in generators:
        if g.degree != degree:
            raise DegreeMismatch(f"generator degree {g.degree}, expected {degree}")
    return PermGroup(degree, tuple(map(_unchecked, _closure(degree, generators))))


def group_from_elements(degree: int, elements: Iterable[Perm]) -> PermGroup:
    """Oracle for tests and the benchmark tracer: wrap a set S, proved a group.

    S, repeats dropped, must hold the identity, and its closure must stay
    in S: any element the closure reaches outside S raises "not closed
    under composition" at once, also where S lacks an inverse.  Then S <=
    <S> <= S, so S = <S> is a group, proved in about |S| * |T| products
    for the greedy generators T of the closure instead of |S|^2.  The
    proof runs on image tuples and builds no Perm.
    """
    g = PermGroup(degree, tuple(dict.fromkeys(elements)))
    elems = {p.images for p in g.elements}
    for images in _closure(degree, g.elements):
        if images not in elems:
            raise ValueError("not closed under composition")
    return g


def _image(images: tuple[int, ...], x):
    """The image of a point, a point tuple or a nested frozenset under ``images``."""
    if type(x) is int:
        return images[x]
    if type(x) is tuple:
        return tuple([images[y] for y in x])
    # points are mapped in line: a call per point made block sets ~15% slower
    return frozenset([images[y] if type(y) is int else _image(images, y) for y in x])


def stabilizer(group: PermGroup, *structures: frozenset) -> PermGroup:
    """The elements of ``group`` that map every structure onto itself, with no
    closure check: the stabilizer of a set in a group is a subgroup (Seress,
    *Permutation Group Algorithms*, 2003, section 3).  It builds the KTS group;
    a structure the STS kernel reads is pruned in its search.

    A structure is a frozenset of points, of point tuples, or of such sets
    nested to any depth.  A tuple maps pointwise in order, as an arc must;
    a frozenset maps to the set of its members' images, as a block, a face
    or a parallel class does.  Each member's image is looked up in the
    structure, up to the first miss: a bijection that maps a finite set
    into itself maps it onto itself.
    """
    keep = [p for p in group
            if all(_image(p.images, x) in s for s in structures for x in s)]
    return PermGroup(group.degree, tuple(keep))


def affine_group(modulus: int, multipliers: set[int]) -> PermGroup:
    """All maps x -> a*x + b (mod modulus) with a in multipliers.

    The multiplier set must be a multiplicative subgroup mod the (prime)
    modulus, otherwise the element set would not be a group.
    """
    mults = {m % modulus for m in multipliers}
    if 1 not in mults or 0 in mults:
        raise ValueError(f"multipliers {multipliers} must contain 1 and not 0")
    for a in mults:
        for b in mults:
            if (a * b) % modulus not in mults:
                raise ValueError(
                    f"multipliers {multipliers} not closed under multiplication mod {modulus}"
                )
    elems = [affine_perm(modulus, a, b) for a in mults for b in range(modulus)]
    return PermGroup(modulus, tuple(elems))


def classify_order21(group: PermGroup) -> str:
    """Distinguish the two groups of order 21: "Cyclic21" or "Frobenius21"."""
    if group.order != 21:
        raise ValueError(f"group has order {group.order}, expected 21")
    return "Cyclic21" if group.is_abelian() else "Frobenius21"
