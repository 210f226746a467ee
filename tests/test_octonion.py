import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import fano21
from fano21.orient import all_orientations, oriented_automorphism_group
from fano21.perms import Perm, group_from_elements
from fano21.octonion import (
    ONE,
    ZERO,
    Octonion,
    algebra_automorphism_perms,
    basis_product,
    cartan_table,
    conjugate,
    is_algebra_automorphism,
    multiply,
    norm,
    octonion,
    point_to_unit,
    random_octonions,
    table_to_json,
    table_to_text,
    unit,
    unit_to_point,
)
from fano21.steiner import fano_b1, map_sts


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


def test_coefficients_are_exact_integers():
    assert octonion([1, 0, 0, 0, 0, 0, 0, 0]) == ONE
    # 1.9 was truncated to 1, and True was kept as a coefficient
    for bad in (1.9, True):
        with pytest.raises(ValueError, match="integer coefficients"):
            octonion([bad, 0, 0, 0, 0, 0, 0, 0])


def test_unit_index_range():
    assert [unit(i).coeffs.index(1) for i in range(8)] == list(range(8))
    # -1 gave e7 and 8 a bare IndexError
    for i in (-1, 8, 1.0):
        with pytest.raises(ValueError, match=f"basis index {i!r}"):
            unit(i)


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
    a = octonion([3, -1, 4, 1, -5, 9, 2, -6])
    assert multiply(ONE, a) == a
    assert multiply(a, ONE) == a
    assert multiply(a, ZERO) == ZERO
    assert a + ZERO == a and a - a == ZERO and -(-a) == a


def test_sample_product():
    # (1 + e1)(e2 + e4) = 2 e4
    a = ONE + unit(1)
    b = unit(2) + unit(4)
    assert multiply(a, b) == octonion([0, 0, 0, 0, 2, 0, 0, 0])


def test_not_associative():
    e1, e2, e3 = unit(1), unit(2), unit(3)
    left = multiply(multiply(e1, e2), e3)
    right = multiply(e1, multiply(e2, e3))
    assert left == -unit(6) and right == unit(6)


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


_octonions = st.lists(st.integers(-9, 9), min_size=8, max_size=8).map(octonion)


@given(_octonions, _octonions, _octonions)
def test_moufang_identities_and_norm(x, y, z):
    m = multiply  # with the default table
    assert m(z, m(x, m(z, y))) == m(m(m(z, x), z), y)
    assert m(x, m(z, m(y, z))) == m(m(m(x, z), y), z)
    assert m(m(z, x), m(y, z)) == m(m(z, m(x, y)), z)
    assert norm(m(x, y)) == norm(x) * norm(y)


def test_conjugate_norm():
    for a in random_octonions(10, seed=5):
        n = norm(a)
        assert multiply(a, conjugate(a)) == octonion([n, 0, 0, 0, 0, 0, 0, 0])
        assert multiply(conjugate(a), a) == octonion([n, 0, 0, 0, 0, 0, 0, 0])


def test_automorphism_perms(qr):
    perms = algebra_automorphism_perms()
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


def _maps_products(sigma, table):
    """Oracle for ``is_algebra_automorphism`` from the definition: the
    linear map phi(e_i) = e_{sigma(i)} satisfies phi(e_i e_j) = phi(e_i) phi(e_j)."""
    images = [0] + [point_to_unit(sigma(unit_to_point(i))) for i in range(1, 8)]

    def phi(x):
        coeffs = [0] * 8
        for i, c in enumerate(x.coeffs):
            coeffs[images[i]] += c
        return octonion(coeffs)

    return all(
        phi(multiply(unit(i), unit(j), table)) == multiply(unit(images[i]), unit(images[j]), table)
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
    assert is_algebra_automorphism(sigma) == _maps_products(sigma, cartan_table())


def test_non_automorphism_detected():
    # swapping two points of a block breaks at least one signed product
    assert not is_algebra_automorphism(Perm((1, 0, 2, 3, 4, 5, 6)))


def test_is_algebra_automorphism_checks_degree():
    with pytest.raises(ValueError):
        is_algebra_automorphism(Perm((0, 1, 2)))


def test_random_octonions_deterministic():
    assert random_octonions(5) == random_octonions(5)
    assert random_octonions(5, seed=1) != random_octonions(5, seed=2)


def test_table_serializations():
    data = table_to_json()
    assert len(data["matrix"]) == 7
    assert data["matrix"][0][0] == -1  # e1 e1 = -1
    assert data["matrix"][0][1] == 4  # e1 e2 = e4
    assert data["matrix"][1][0] == -4
    text = table_to_text()
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


# 0, small values and values far beyond any machine word, so that the
# products are shown exact
_exact_octonions = st.lists(
    st.integers(-9, 9) | st.sampled_from((2**70, -(2**70))), min_size=8, max_size=8
).map(octonion)
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


def test_product_kernel_is_not_built_at_import():
    env = dict(os.environ, PYTHONPATH=str(Path(fano21.__file__).parents[1]))
    probe = ("import fano21.cli, fano21.octonion as o; "
             "print(o._product.cache_info().currsize); o.multiply(o.ONE, o.ONE); "
             "print(o._product.cache_info().currsize)")
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.split() == ["0", "1"]
