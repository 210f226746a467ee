"""Octonions over exact integers, multiplication generated by an
oriented Fano plane.

Basis index 0 is the real unit 1, indices 1..7 are the imaginary units.
The unit e_p corresponds to plane point p for p in 1..6 and e_7 to
point 0.  If {e_i, e_j, e_k} is a block oriented e_i -> e_j -> e_k, then
e_i e_j = e_k and e_j e_i = -e_k; each e_i squares to -1.

The laws are proved on the basis, by full linearisation (Conway and
Smith, *On Quaternions and Octonions*, 2003).  The product is bilinear
and the associator [x, y, z] = (xy)z - x(yz) trilinear, and a
polynomial identity over the rationals holds exactly when its polarised
form does on a basis:

- (xx)y = x(xy) and y(xx) = (yx)x for all x, y exactly when
  [e_i, e_j, e_k] + [e_j, e_i, e_k] = 0 and
  [e_k, e_i, e_j] + [e_k, e_j, e_i] = 0 for all 512 basis triples, i = j
  included (:func:`alternative_law_failure`);
- N(xy) = N(x) N(y), N the sum of squared coefficients, for all x, y
  exactly when <e_a e_b, e_c e_d> + <e_a e_d, e_c e_b> = 2 d_ac d_bd
  for all 4096 basis quadruples, <,> the dot product and d the
  Kronecker delta (:func:`composition_law_failure`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from typing import Callable

from .orient import OrientedFano, qr_orientation
from .perms import Perm
from .steiner import isomorphisms, validate_sts

SignedBasis = tuple[int, int]  # (sign, basis index); (-1, 0) encodes -1
Table = tuple[tuple[SignedBasis, ...], ...]


def unit_to_point(i: int) -> int:
    if type(i) is not int or not 1 <= i <= 7:
        raise ValueError(f"imaginary unit index {i!r} is not an integer in 1..7")
    return i % 7


def point_to_unit(p: int) -> int:
    if type(p) is not int or not 0 <= p <= 6:
        raise ValueError(f"plane point {p!r} is not an integer in 0..6")
    return 7 if p == 0 else p


def basis_product(i: int, j: int, oriented: OrientedFano | None = None) -> SignedBasis:
    """Product e_i e_j of imaginary units, as (sign, index)."""
    if i == j:
        unit_to_point(i)  # range check
        return (-1, 0)
    pi, pj = unit_to_point(i), unit_to_point(j)
    if oriented is None:
        return _default_table()[i - 1][j - 1]
    pk = oriented.plane.third_point(pi, pj)
    sign = 1 if (pi, pj) in oriented.arcs else -1
    return (sign, point_to_unit(pk))


def cartan_table(oriented: OrientedFano | None = None) -> Table:
    """The 7x7 table of products e_i e_j, i, j in 1..7.

    Without an argument this is the table of the quadratic-residue
    orientation, built once and shared: it is a tuple of tuples, so no
    caller can change it.
    """
    if oriented is None:
        return _default_table()
    return tuple(
        tuple(basis_product(i, j, oriented) for j in range(1, 8)) for i in range(1, 8)
    )


@lru_cache(maxsize=None)
def _default_table() -> Table:
    return cartan_table(qr_orientation())


@lru_cache(maxsize=None)
def _default_product() -> Callable[[tuple, tuple], tuple]:
    return _product(_default_table())


@dataclass(frozen=True)
class Octonion:
    """8 exact integer coordinates over the basis (1, e1..e7)."""

    coeffs: tuple[int, int, int, int, int, int, int, int]

    def __post_init__(self) -> None:
        if len(self.coeffs) != 8 or not all(type(c) is int for c in self.coeffs):
            raise ValueError(f"need 8 integer coefficients, got {self.coeffs}")


def multiply(a: Octonion, b: Octonion, table: Table | None = None) -> Octonion:
    """Bilinear extension of the basis table; 1 is a two-sided identity."""
    if table is None or table is _default_table():  # no hash of the table
        return _unchecked(_default_product()(a.coeffs, b.coeffs))
    try:  # a table given as lists cannot be a cache key
        product = _product(table if isinstance(table, tuple) else _as_tuples(table))
    except TypeError:  # nor can a tuple holding lists
        product = _product(_as_tuples(table))
    return _unchecked(product(a.coeffs, b.coeffs))


@lru_cache(maxsize=64)
def _product(table: Table) -> Callable[[tuple, tuple], tuple]:
    """The table's product compiled to one straight-line function of two
    coefficient 8-tuples: coordinate k sums the signed terms a_i b_j with
    e_i e_j = +-e_k.  It computes a product in 2.3 us, where sums over
    precomputed signed index rows take 10-15 us; `multiply` went from 13 us
    (a double loop over the 64 pairs) to 3.8 us (timeit, Python 3.11, 2-vCPU
    Xeon).  The source holds only indices from range(8) and signs."""
    _check_shape(table)
    terms = [["+a0*b0"]] + [[f"+a0*b{k}", f"+a{k}*b0"] for k in range(1, 8)]
    for i, row in enumerate(table, start=1):
        for j, entry in enumerate(row, start=1):
            if not _is_signed_unit(entry):
                raise ValueError(f"table entry e{i}e{j} = {entry!r} is not (+-1, k), k in 0..7")
            terms[entry[1]].append(f"{'-' if entry[0] < 0 else '+'}a{i}*b{j}")
    a, b = (", ".join(f"{x}{i}" for i in range(8)) for x in "ab")
    coords = ", ".join("".join(t).lstrip("+") for t in terms)
    exec(f"def product(a, b):\n {a} = a\n {b} = b\n return ({coords})", namespace := {})
    return namespace["product"]


def _check_shape(table) -> None:
    if not (isinstance(table, (tuple, list)) and len(table) == 7
            and all(isinstance(row, (tuple, list)) and len(row) == 7 for row in table)):
        raise ValueError(f"a multiplication table needs 7 rows of 7 entries, got {table!r}")


def _is_signed_unit(entry, low: int = 0) -> bool:
    """Is the entry a pair (+-1, k), k an int in low..7, as a tuple or a list?"""
    return (isinstance(entry, (tuple, list)) and len(entry) == 2 and entry[0] in (1, -1)
            and type(entry[1]) is int and low <= entry[1] <= 7)


def _as_tuples(table) -> Table:
    try:  # rows and list entries as tuples; _product checks the shape
        table = tuple(tuple(tuple(e) if isinstance(e, list) else e for e in row) for row in table)
        hash(table)
    except TypeError:  # not iterable, or an entry that cannot be a key
        raise ValueError(f"a multiplication table needs 7 rows of 7 (sign, k) pairs, got {table!r}") from None
    return table


def _unchecked(coeffs: tuple[int, ...]) -> Octonion:
    """An Octonion built without the check, for a product of valid ones."""
    x = object.__new__(Octonion)
    object.__setattr__(x, "coeffs", coeffs)
    return x


def unit_table(table: Table) -> list[tuple[SignedBasis, ...]]:
    """The 8x8 table of products e_a e_b, a, b in 0..7, e_0 = 1 being the
    identity: the table's rows with row and column 0 added."""
    return [tuple((1, b) for b in range(8)),
            *(((1, a), *row) for a, row in enumerate(table, start=1))]


def alternative_law_failure(table: Table) -> tuple[int, int, int] | None:
    """The first basis triple (i, j, k) in 0..7 at which
    [e_i, e_j, e_k] + [e_j, e_i, e_k] or [e_k, e_i, e_j] + [e_k, e_j, e_i]
    is not 0, or None: the linearised left and right alternative laws."""
    units = unit_table(table)

    def add_associator(out: list[int], i: int, j: int, k: int) -> None:
        (s, p), (t, q) = units[i][j], units[j][k]
        (s2, p2), (t2, q2) = units[p][k], units[i][q]
        out[p2] += s * s2
        out[q2] -= t * t2

    for i, j, k in product(range(8), repeat=3):
        left, right = [0] * 8, [0] * 8
        add_associator(left, i, j, k)
        add_associator(left, j, i, k)
        add_associator(right, k, i, j)
        add_associator(right, k, j, i)
        if any(left) or any(right):
            return i, j, k
    return None


def composition_law_failure(table: Table) -> tuple[int, int, int, int] | None:
    """The first basis quadruple (a, b, c, d) in 0..7 at which
    <e_a e_b, e_c e_d> + <e_a e_d, e_c e_b> != 2 d_ac d_bd, or None: the
    composition law N(xy) = N(x) N(y) polarised in x and in y."""
    units = unit_table(table)

    def inner(a: int, b: int, c: int, d: int) -> int:
        (s, p), (t, q) = units[a][b], units[c][d]
        return s * t if p == q else 0

    for a, b, c, d in product(range(8), repeat=4):
        if inner(a, b, c, d) + inner(a, d, c, b) != 2 * (a == c and b == d):
            return a, b, c, d
    return None


def is_algebra_automorphism(sigma: Perm, table: Table) -> bool:
    """Does e_i -> e_{sigma(i)} (fixing 1) preserve all 49 basis
    products with signs?

    The permutation is given on {0..6} and read as acting on unit
    indices 1..7 with 7 = 0 + 7, i.e. through the point-unit mapping.
    As for :func:`multiply`, the table may be given as lists.
    """
    if sigma.degree != 7:
        raise ValueError(f"expected a permutation of 7 symbols, got degree {sigma.degree}")
    # image[i] is the unit index of e_i's image, unit 7 being point 0; 1 is fixed
    image = (0, *(sigma.images[i % 7] or 7 for i in range(1, 8)))
    for i in range(1, 8):
        row, image_row = table[i - 1], table[image[i] - 1]
        for j in range(1, 8):
            (sign, k), (image_sign, image_k) = row[j - 1], image_row[image[j] - 1]
            if image_sign != sign or image_k != image[k]:
                return False
    return True


def algebra_automorphism_perms(table: Table) -> list[Perm]:
    """All basis permutations (as degree-7 point permutations) that are
    algebra automorphisms, sorted; the table may be given as lists.  The
    table's Fano plane has the lines {e_i, e_j, e_k} with e_i e_j = +-e_k,
    and an automorphism permuting the basis carries lines to lines and keeps
    every sign, so the candidates are the collineations that carry the pairs
    (x, y) with e_x e_y = +e_k onto themselves, one kernel search.  Each of
    them is an automorphism, with no check per map: it preserves every entry
    off the diagonal, the third point of the line and, as each sign there is
    +1 or -1, the sign; and it preserves the diagonal once every square is
    -1, which is checked here, as are the shape and each entry off the diagonal,
    (+-1, k) with k in 1..7; an error names the shape or the entry, in the
    words of :func:`multiply`."""
    _check_shape(table)
    units = range(1, 8)
    for i, j in product(units, repeat=2):
        entry = table[i - 1][j - 1]
        if i == j and entry not in ((-1, 0), [-1, 0]):
            raise ValueError(f"table entry e{i}e{j} = {entry!r} is not (-1, 0)")
        if i != j and not _is_signed_unit(entry, 1):
            raise ValueError(f"table entry e{i}e{j} = {entry!r} is not (+-1, k), k in 1..7")
    pairs = [(i % 7, j % 7, table[i - 1][j - 1]) for i in units for j in units if i != j]
    plane = validate_sts(7, {tuple(sorted((x, y, unit_to_point(k)))) for x, y, (_, k) in pairs})
    plus = {(x, y) for x, y, (sign, _) in pairs if sign == 1}
    return isomorphisms(plane, plane, arcs=plus)


def table_to_json(table: Table) -> dict:
    """7x7 signed-index matrix: entry for e_i e_j is sign * index, with
    index 0 meaning the real unit (so -1 encodes the product -1)."""
    return {"matrix": [[sign * k if k else -1 for (sign, k) in row] for row in table]}


def table_to_text(table: Table) -> str:
    """Aligned text rendering of the multiplication table."""

    def cell(sign: int, k: int) -> str:
        if k == 0:
            return "-1" if sign < 0 else "+1"
        return f"{'-' if sign < 0 else '+'}e{k}"

    header = "     " + " ".join(f"  e{j}" for j in range(1, 8))
    lines = [header]
    for i, row in enumerate(table, start=1):
        lines.append(f"  e{i} " + " ".join(f" {cell(s, k)}" for (s, k) in row))
    return "\n".join(lines) + "\n"
