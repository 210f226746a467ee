import os
import re
import subprocess
import sys
from itertools import product
from pathlib import Path
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

import fano21
from fano21 import octonion, steiner
from fano21.orient import all_orientations, oriented_automorphism_group
from fano21.perms import Perm, group_from_elements
from fano21.octonion import (
    Octonion,
    algebra_automorphism_perms,
    alternative_law_failure,
    basis_product,
    cartan_table,
    composition_law_failure,
    is_algebra_automorphism,
    multiply,
    point_to_unit,
    table_to_json,
    table_to_text,
    unit_table,
    unit_to_point,
    _product,
)
from fano21.steiner import fano_b1, map_sts

ONE = Octonion((1, 0, 0, 0, 0, 0, 0, 0))


def basis(i):
    """The basis octonion e_i, e_0 being the real unit."""
    return Octonion(tuple(int(k == i) for k in range(8)))


def random_octonions(count, seed=21):
    """Seeded samples with coefficients in -9..9, for exact property checks."""
    rng = Random(seed)
    return [Octonion(tuple(rng.randint(-9, 9) for _ in range(8))) for _ in range(count)]


def norm(a):
    """Sum of squared coefficients (the exact squared Euclidean norm)."""
    return sum(c * c for c in a.coeffs)


def multiply_by_definition(a, b, table=None):
    """Oracle for ``multiply``: the bilinear extension of the basis table,
    summed term by term over the 64 coefficient pairs."""
    if table is None:
        table = cartan_table()
    out = [0] * 8
    for i, ai in enumerate(a.coeffs):
        if ai == 0:
            continue
        for j, bj in enumerate(b.coeffs):
            if bj == 0:
                continue
            if i == 0:
                out[j] += ai * bj
            elif j == 0:
                out[i] += ai * bj
            else:
                sign, k = table[i - 1][j - 1]
                out[k] += sign * ai * bj
    return Octonion(tuple(out))


def test_unit_point_mapping():
    assert unit_to_point(7) == 0
    assert point_to_unit(0) == 7
    for i in range(1, 8):
        assert point_to_unit(unit_to_point(i)) == i
    with pytest.raises(ValueError):
        unit_to_point(8)
    with pytest.raises(ValueError):
        point_to_unit(7)


def test_unit_point_mapping_rejects_non_integers():
    # 1.5 and True were returned as points, False as the unit 7
    for bad in (1.5, True, 7.0):
        with pytest.raises(ValueError, match=f"imaginary unit index {bad!r} is not"):
            unit_to_point(bad)
    for bad in (2.0, False):
        with pytest.raises(ValueError, match=f"plane point {bad!r} is not"):
            point_to_unit(bad)
    # basis_product(1.5, 2) escaped as a TypeError
    with pytest.raises(ValueError, match="imaginary unit index 1.5 is not"):
        basis_product(1.5, 2)


def test_coefficients_are_exact_integers():
    # 1.9 was truncated to 1, and True was kept as a coefficient
    for bad in (1.9, True):
        with pytest.raises(ValueError, match="integer coefficients"):
            Octonion((bad, 0, 0, 0, 0, 0, 0, 0))
    with pytest.raises(ValueError, match="8 integer coefficients"):
        Octonion((1, 0, 0))


def test_basis_products():
    assert basis_product(1, 2) == (1, 4)
    assert basis_product(2, 1) == (-1, 4)
    assert basis_product(1, 4) == (-1, 2)
    assert basis_product(2, 3) == (1, 5)
    for i in range(1, 8):
        assert basis_product(i, i) == (-1, 0)


def test_cartan_table_antisymmetry():
    table = cartan_table()
    for i in range(1, 8):
        for j in range(1, 8):
            sign, k = table[i - 1][j - 1]
            sign2, k2 = table[j - 1][i - 1]
            assert k2 == k
            assert sign2 == (sign if i == j else -sign)


def test_identity_and_linearity():
    a = Octonion((3, -1, 4, 1, -5, 9, 2, -6))
    assert multiply(ONE, a) == a
    assert multiply(a, ONE) == a
    zero = Octonion((0,) * 8)
    assert multiply(a, zero) == multiply(zero, a) == zero


def test_sample_product():
    # (1 + e1)(e2 + e4) = 2 e4
    a = Octonion((1, 1, 0, 0, 0, 0, 0, 0))
    b = Octonion((0, 0, 1, 0, 1, 0, 0, 0))
    assert multiply(a, b) == Octonion((0, 0, 0, 0, 2, 0, 0, 0))


def test_not_associative():
    e1, e2, e3 = basis(1), basis(2), basis(3)
    left = multiply(multiply(e1, e2), e3)
    right = multiply(e1, multiply(e2, e3))
    assert left == Octonion((0, 0, 0, 0, 0, 0, -1, 0)) and right == basis(6)


def test_alternative_on_samples():
    samples = random_octonions(60, seed=17)
    for a, b in zip(samples[::2], samples[1::2]):
        aa = multiply(a, a)
        assert multiply(aa, b) == multiply(a, multiply(a, b))
        assert multiply(a, multiply(b, b)) == multiply(multiply(a, b), b)


def test_norm_multiplicative_on_samples():
    samples = random_octonions(60, seed=23)
    for a, b in zip(samples[::2], samples[1::2]):
        assert norm(multiply(a, b)) == norm(a) * norm(b)


def transpose(table):
    return tuple(zip(*table))


def with_sign_flipped(table, i, j):
    """The table with the sign of e_i e_j flipped."""
    rows = [list(row) for row in table]
    sign, k = rows[i - 1][j - 1]
    rows[i - 1][j - 1] = (-sign, k)
    return tuple(map(tuple, rows))


def test_laws_hold_on_the_basis():
    for table in cartan_table(), transpose(cartan_table()):
        assert alternative_law_failure(table) is None
        assert composition_law_failure(table) is None


def test_laws_fail_on_every_single_sign_flip():
    # each of the 42 off-diagonal entries, its sign flipped, breaks both laws
    flips = [(i, j) for i, j in product(range(1, 8), repeat=2) if i != j]
    assert len(flips) == 42
    for i, j in flips:
        table = with_sign_flipped(cartan_table(), i, j)
        assert alternative_law_failure(table) is not None, (i, j)
        assert composition_law_failure(table) is not None, (i, j)


def test_law_failures_name_the_first_basis_tuple():
    # e1 e2 = -e4 and e2 e1 = -e4: (e1 e1) e2 = -e2 but e1 (e1 e2) = -e1 e4 = e2,
    # and <e2, e1 e4> + <e4, e1 e2> = <e2, -e2> + <e4, -e4> = -2, not 0
    table = with_sign_flipped(cartan_table(), 1, 2)
    assert alternative_law_failure(table) == (1, 1, 2)
    assert composition_law_failure(table) == (0, 2, 1, 4)


def test_sixteen_of_the_128_line_orientations_of_b1_are_octonions(b1):
    # orient each of the 7 lines cyclically one of 2 ways: exactly the tables of
    # the 8 orientations of b1 and their transposes (every line turned) give
    # alternative composition algebras
    unit = point_to_unit
    passing = set()
    for turns in product((False, True), repeat=7):
        rows = [[(-1, 0)] * 7 for _ in range(7)]
        for (x, y, z), turn in zip(b1.blocks, turns):
            cycle = (x, z, y) if turn else (x, y, z)
            for p, q, r in (cycle, cycle[1:] + cycle[:1], cycle[2:] + cycle[:2]):
                rows[unit(p) - 1][unit(q) - 1] = (1, unit(r))
                rows[unit(q) - 1][unit(p) - 1] = (-1, unit(r))
        table = tuple(map(tuple, rows))
        if alternative_law_failure(table) is None and composition_law_failure(table) is None:
            passing.add(table)
    classical = {cartan_table(o) for o in all_orientations(b1)}
    assert len(passing) == 16
    assert passing == classical | {transpose(table) for table in classical}


_octonions = st.tuples(*[st.integers(-9, 9)] * 8).map(Octonion)


@given(_octonions, _octonions, _octonions)
def test_moufang_identities_and_norm(x, y, z):
    m = multiply  # with the default table
    assert m(z, m(x, m(z, y))) == m(m(m(z, x), z), y)
    assert m(x, m(z, m(y, z))) == m(m(m(x, z), y), z)
    assert m(m(z, x), m(y, z)) == m(m(z, m(x, y)), z)
    assert norm(m(x, y)) == norm(x) * norm(y)


def test_conjugate_norm():
    # a times its conjugate (the imaginary part negated) is N(a) times 1
    for a in random_octonions(10, seed=5):
        n, bar = norm(a), Octonion((a.coeffs[0], *(-c for c in a.coeffs[1:])))
        assert multiply(a, bar) == multiply(bar, a) == Octonion((n, 0, 0, 0, 0, 0, 0, 0))


def test_automorphism_perms(qr):
    perms = algebra_automorphism_perms(cartan_table())
    assert len(perms) == 21
    group = group_from_elements(7, perms)
    assert group.elements == oriented_automorphism_group(qr).elements


def test_automorphism_perms_match_sweep(b1):
    # oracle: filter all 7! basis permutations, for every orientation of b1
    from itertools import permutations

    from fano21.orient import all_orientations

    for oriented in all_orientations(b1):
        table = cartan_table(oriented)
        swept = [p for images in permutations(range(7))
                 if is_algebra_automorphism(p := Perm(images), table)]
        assert algebra_automorphism_perms(table) == swept


def test_orientations_and_tables_share_one_kernel_per_plane(all_planes):
    # the arcs and the + signs reach the kernel as data, so the 240 oriented
    # groups and the 240 tables compile one kernel for each of the 30 planes
    oriented = [o for plane in all_planes for o in all_orientations(plane)]
    tables = [cartan_table(o) for o in oriented]
    steiner._isomorphism_kernel.cache_clear()
    for o, table in zip(oriented, tables):
        oriented_automorphism_group(o)
        algebra_automorphism_perms(table)
    assert steiner._isomorphism_kernel.cache_info().misses == 30


def _maps_products(sigma, table):
    """Oracle for ``is_algebra_automorphism`` from the definition: the
    linear map phi(e_i) = e_{sigma(i)} satisfies phi(e_i e_j) = phi(e_i) phi(e_j)."""
    images = [0] + [point_to_unit(sigma(unit_to_point(i))) for i in range(1, 8)]

    def phi(x):
        coeffs = [0] * 8
        for i, c in enumerate(x.coeffs):
            coeffs[images[i]] += c
        return Octonion(tuple(coeffs))

    return all(
        phi(multiply(basis(i), basis(j), table)) == multiply(basis(images[i]), basis(images[j]), table)
        for i in range(1, 8)
        for j in range(1, 8)
    )


def test_is_algebra_automorphism_matches_definition_on_collineations(b1):
    from fano21.orient import all_orientations
    from fano21.steiner import isomorphisms

    tables = [cartan_table()] + [cartan_table(o) for o in all_orientations(b1)]
    for table in tables:
        for sigma in isomorphisms(b1, b1):
            assert is_algebra_automorphism(sigma, table) == _maps_products(sigma, table)


@settings(max_examples=50, deadline=None)
@given(st.permutations(range(7)))
def test_is_algebra_automorphism_matches_definition(images):
    sigma = Perm(tuple(images))
    assert is_algebra_automorphism(sigma, cartan_table()) == _maps_products(sigma, cartan_table())


def test_non_automorphism_detected():
    # swapping two points of a block breaks at least one signed product
    assert not is_algebra_automorphism(Perm((1, 0, 2, 3, 4, 5, 6)), cartan_table())


def test_is_algebra_automorphism_checks_degree():
    with pytest.raises(ValueError):
        is_algebra_automorphism(Perm((0, 1, 2)), cartan_table())


def test_random_octonions_deterministic():
    assert random_octonions(5) == random_octonions(5)
    assert random_octonions(5, seed=1) != random_octonions(5, seed=2)


def test_table_serializations():
    data = table_to_json(cartan_table())
    assert len(data["matrix"]) == 7
    assert data["matrix"][0][0] == -1  # e1 e1 = -1
    assert data["matrix"][0][1] == 4  # e1 e2 = e4
    assert data["matrix"][1][0] == -4
    text = table_to_text(cartan_table())
    assert "e7" in text and "+e4" in text and "-1" in text
    assert len(text.splitlines()) == 8


def test_default_cartan_table_is_shared_and_immutable(qr):
    table = cartan_table()
    assert table == cartan_table(qr)
    assert cartan_table() is table
    assert isinstance(table, tuple)
    assert all(isinstance(row, tuple) for row in table)
    assert all(isinstance(cell, tuple) for row in table for cell in row)
    with pytest.raises(TypeError):
        table[0] = table[1]  # type: ignore[index]


def test_default_table_products_match_explicit_table(qr):
    table = cartan_table(qr)
    samples = random_octonions(200)
    for a, b in zip(samples, samples[1:] + samples[:1]):
        assert multiply(a, b) == multiply(a, b, table)
    for i in range(1, 8):
        for j in range(1, 8):
            assert basis_product(i, j) == basis_product(i, j, qr)


def test_default_table_products_skip_the_table_lookup(qr):
    # the default table, given or not, is recognised without hashing it;
    # an equal table that is another object, or lists, still gets its own
    a, b = random_octonions(2, seed=5)
    multiply(a, b), multiply(a, b, cartan_table())
    before = _product.cache_info()
    for _ in range(1000):
        multiply(a, b), multiply(a, b, cartan_table())
    assert _product.cache_info() == before
    equal = cartan_table(qr)
    assert equal == cartan_table() and equal is not cartan_table()
    for table in (equal, [[list(entry) for entry in row] for row in equal]):
        assert multiply(a, b, table) == multiply_by_definition(a, b, table) == multiply(a, b)


# 0, small values and values far beyond any machine word, so that the
# products are shown exact
_exact_octonions = st.lists(
    st.integers(-9, 9) | st.sampled_from((2**70, -(2**70))), min_size=8, max_size=8
).map(tuple).map(Octonion)
_B1_TABLES = [cartan_table(o) for o in all_orientations(fano_b1())]


@given(_exact_octonions, _exact_octonions, st.sampled_from([None] + _B1_TABLES))
def test_multiply_matches_definition(a, b, table):
    assert multiply(a, b, table) == multiply_by_definition(a, b, table)


@settings(max_examples=30, deadline=None)
@given(_exact_octonions, _exact_octonions, st.permutations(range(7)), st.integers(0, 7))
def test_multiply_matches_definition_on_relabelled_tables(a, b, images, index):
    plane = map_sts(Perm(tuple(images)), fano_b1())
    table = cartan_table(all_orientations(plane)[index])
    assert multiply(a, b, table) == multiply_by_definition(a, b, table)


def _with_entry(entry):
    """The default table with the entry for e2 e3 replaced."""
    rows = [list(row) for row in cartan_table()]
    rows[1][2] = entry
    return tuple(map(tuple, rows))


@pytest.mark.parametrize(
    "table, message",
    [
        (_with_entry((2, 5)), r"entry e2e3 = \(2, 5\)"),
        (_with_entry((1, 8)), r"entry e2e3 = \(1, 8\)"),
        (_with_entry((-1, 1.0)), r"entry e2e3 = \(-1, 1.0\)"),
        (_with_entry(5), r"entry e2e3 = 5 "),
        (cartan_table()[:6], "7 rows of 7 entries"),
        (cartan_table()[:6] + (cartan_table()[6][:6],), "7 rows of 7 entries"),
    ],
    ids=["bad-sign", "k-out-of-range", "float-k", "not-a-pair", "six-rows", "short-row"],
)
def test_multiply_rejects_a_bad_table(table, message):
    with pytest.raises(ValueError, match=message):
        multiply(ONE, ONE, table)
    with pytest.raises(ValueError, match=message):  # and the same table given as lists
        multiply(ONE, ONE, [list(row) for row in table])


def test_multiply_accepts_a_table_of_lists(qr):
    table = cartan_table(qr)
    as_lists = [[list(entry) for entry in row] for row in table]
    samples = random_octonions(40, seed=3)
    for a, b in zip(samples, samples[1:]):
        assert multiply(a, b, as_lists) == multiply(a, b, table) == multiply_by_definition(a, b, table)


@pytest.mark.parametrize("shape", [
    lambda table: list(table),
    lambda table: tuple(map(list, table)),
    lambda table: [tuple(map(list, row)) for row in table],
], ids=["list-of-rows", "tuple-of-list-rows", "list-entries"])
def test_list_and_tuple_tables_give_equal_products(qr, shape):
    table = cartan_table(qr)
    samples = random_octonions(20, seed=5)
    for a, b in zip(samples, samples[1:]):
        assert multiply(a, b, shape(table)) == multiply(a, b, table)


@pytest.mark.parametrize("table", [5, [5] * 7, [[([1], 2)] * 7] * 7, [[{1: 2}] * 7] * 7],
                         ids=["number", "rows-of-numbers", "list-in-an-entry", "dict-entry"])
def test_multiply_rejects_a_table_it_cannot_read(table):
    with pytest.raises(ValueError):
        multiply(ONE, ONE, table)


def test_automorphisms_of_a_table_of_lists(qr):
    table = cartan_table(qr)
    as_lists = [[list(entry) for entry in row] for row in table]
    perms = algebra_automorphism_perms(table)
    assert len(perms) == 21
    assert algebra_automorphism_perms(as_lists) == perms
    assert is_algebra_automorphism(Perm(tuple(range(7))), as_lists)
    assert [p for p in perms if is_algebra_automorphism(p, as_lists)] == perms


@pytest.mark.parametrize("i, j, entry", [(1, 1, (1, 0)), (3, 3, (1, 5)), (2, 3, (2, 5)),
                                         (4, 4, (-1.0, 0))],
                         ids=["e1e1-is-plus-one", "e3e3-is-e5", "sign-two", "e4e4-float-sign"])
def test_automorphisms_reject_a_wrong_square_or_sign(i, j, entry):
    # the kernel proves neither the squares nor that each sign is +-1, so a
    # table that fails either is refused, naming the entry, and not searched
    rows = [list(row) for row in cartan_table()]
    rows[i - 1][j - 1] = entry
    message = rf"table entry e{i}e{j} = .{entry[0]}, {entry[1]}. is not"
    for table in tuple(map(tuple, rows)), [[list(e) for e in row] for row in rows]:
        with pytest.raises(ValueError, match=message):
            algebra_automorphism_perms(table)


def test_product_kernel_is_not_built_at_import():
    env = dict(os.environ, PYTHONPATH=str(Path(fano21.__file__).parents[1]))
    probe = ("import fano21.cli, fano21.octonion as o; "
             "print(o._product.cache_info().currsize); one = o.Octonion((1,) + (0,) * 7); "
             "o.multiply(one, one); "
             "print(o._product.cache_info().currsize)")
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.split() == ["0", "1"]


def _as_lists(table):
    """The table as a list, with its tuple rows and tuple entries as lists."""
    return [[list(e) if isinstance(e, tuple) else e for e in row] if isinstance(row, tuple) else row
            for row in table]


@pytest.mark.parametrize(
    "table, message",
    [
        (_with_entry(5), r"^table entry e2e3 = 5 is not \(\+-1, k\), k in 1\.\.7$"),
        (_with_entry((-1, 0)), r"^table entry e2e3 = .-1, 0. is not \(\+-1, k\), k in 1\.\.7$"),
        (_with_entry((1, 8)), r"^table entry e2e3 = .1, 8. is not \(\+-1, k\), k in 1\.\.7$"),
        (_with_entry((-1, 1.0)), r"^table entry e2e3 = .-1, 1\.0. is not \(\+-1, k\)"),
        (_with_entry((1, 2, 3)), r"^table entry e2e3 = .1, 2, 3. is not \(\+-1, k\)"),
        (cartan_table()[:6], "^a multiplication table needs 7 rows of 7 entries, got"),
        (cartan_table()[:6] + (cartan_table()[6][:6],), "^a multiplication table needs 7 rows of 7"),
        (cartan_table() + (cartan_table()[0],), "^a multiplication table needs 7 rows of 7"),
        ((5,) * 7, "^a multiplication table needs 7 rows of 7"),
    ],
    ids=["int-entry", "real-off-the-diagonal", "k-out-of-range", "float-k", "triple",
         "six-rows", "short-row", "eight-rows", "rows-of-numbers"],
)
def test_automorphisms_reject_a_table_of_the_wrong_shape_or_entry(table, message):
    # a ValueError naming the shape or the entry, as multiply's, and not a
    # TypeError, an IndexError or an error about a unit index derived from it
    for given_as in table, _as_lists(table):
        with pytest.raises(ValueError, match=message) as raised:
            algebra_automorphism_perms(given_as)
        assert type(raised.value) is ValueError


_IDENTITY = Perm(tuple(range(7)))


@pytest.mark.parametrize(
    "read",
    [lambda table: multiply(ONE, ONE, table), unit_table, alternative_law_failure,
     composition_law_failure, lambda table: is_algebra_automorphism(_IDENTITY, table)],
    ids=["multiply", "unit_table", "alternative_law", "composition_law", "is_automorphism"],
)
@pytest.mark.parametrize(
    "table, message",
    [
        (_with_entry(5), r"^table entry e2e3 = 5 is not \(\+-1, k\), k in 0\.\.7$"),
        (_with_entry((1, 8)), r"^table entry e2e3 = .1, 8. is not \(\+-1, k\), k in 0\.\.7$"),
        (_with_entry((-1, 1.0)), r"^table entry e2e3 = .-1, 1\.0. is not \(\+-1, k\)"),
        (_with_entry((1, 2, 3)), r"^table entry e2e3 = .1, 2, 3. is not \(\+-1, k\)"),
        (_with_entry((2, 5)), r"^table entry e2e3 = .2, 5. is not \(\+-1, k\), k in 0\.\.7$"),
        (cartan_table()[:6], "^a multiplication table needs 7 rows of 7 entries, got"),
        (cartan_table()[:6] + (cartan_table()[6][:6],), "^a multiplication table needs 7 rows of 7"),
        (cartan_table() + (cartan_table()[0],), "^a multiplication table needs 7 rows of 7"),
        ((5,) * 7, "^a multiplication table needs 7 rows of 7"),
    ],
    ids=["int-entry", "k-out-of-range", "float-k", "triple", "sign-two", "six-rows",
         "short-row", "eight-rows", "rows-of-numbers"],
)
def test_every_table_reader_names_the_shape_or_the_entry(read, table, message):
    # the same ValueError, naming the shape or the entry, from each function
    # that reads a table, and not a TypeError, an IndexError or a wrong unit
    # table; is_algebra_automorphism reads every table but the default one
    # before its loop, which on an eighth row or a sign of 2 would answer True
    for given_as in table, _as_lists(table):
        with pytest.raises(ValueError, match=message) as raised:
            read(given_as)
        assert type(raised.value) is ValueError


@pytest.mark.parametrize("sign", [True, 1.0, 1 + 0j, -1.0],
                         ids=["bool", "float", "complex", "minus-float"])
def test_a_sign_is_a_plain_int(sign):
    # a sign equal to +-1 that is no int is refused, naming the entry, as a
    # float k is: multiply once raised an untyped TypeError on (1+0j, 5) from
    # its compile, and algebra_automorphism_perms returned 21 maps.  Save for
    # -1.0 the table equals the default one, whose product is compiled first,
    # so multiply is refused also where the cache holds the table it equals
    multiply(ONE, ONE)
    table = _with_entry((sign, 5))
    for read, low in ((lambda t: multiply(ONE, ONE, t), 0), (unit_table, 0),
                      (algebra_automorphism_perms, 1)):
        for given_as in table, _as_lists(table):
            message = (rf"^table entry e2e3 = .{re.escape(repr(sign))}, 5. "
                       rf"is not \(\+-1, k\), k in {low}\.\.7$")
            with pytest.raises(ValueError, match=message) as raised:
                read(given_as)
            assert type(raised.value) is ValueError


def test_a_table_of_lists_is_read_once_across_its_products(monkeypatch, qr):
    # deterministic work count: a table's marshal bytes are the cache key,
    # so 100 products read a table of lists once, where the compile misses
    as_lists = [[list(entry) for entry in row] for row in cartan_table(qr)]
    reads, read = [], octonion._read_table
    monkeypatch.setattr(octonion, "_read_table", lambda *a: reads.append(1) or read(*a))
    _product.cache_clear()
    samples = random_octonions(101, seed=11)
    for a, b in zip(samples, samples[1:]):
        assert multiply(a, b, as_lists) == multiply_by_definition(a, b, cartan_table(qr))
    assert len(reads) == 1
    as_lists[1][2] = [2, 5]  # the same list object, now malformed, is read again
    with pytest.raises(ValueError, match=r"^table entry e2e3 = \[2, 5\] is not"):
        multiply(ONE, ONE, as_lists)


def test_the_default_table_is_not_read_by_is_algebra_automorphism(monkeypatch, qr):
    # deterministic work count: the 168 checks of octonion-f21 pass the
    # default table, which is well formed by construction
    reads, read = [], octonion._read_table
    monkeypatch.setattr(octonion, "_read_table", lambda *a: reads.append(1) or read(*a))
    assert is_algebra_automorphism(_IDENTITY, cartan_table()) and reads == []
    assert is_algebra_automorphism(_IDENTITY, cartan_table(qr)) and len(reads) == 1


def test_cartan_table_is_the_table_of_basis_products(all_planes):
    # the table read off the third-point table and the arcs in one pass, on
    # all 240 labelled orientations, against its definition entry by entry
    oriented = [o for plane in all_planes for o in all_orientations(plane)]
    assert len(oriented) == 240
    for o in oriented:
        expected = tuple(tuple(basis_product(i, j, o) for j in range(1, 8)) for i in range(1, 8))
        table = cartan_table(o)
        assert table == expected
        assert {type(x) for row in table for entry in row for x in entry} == {int}
