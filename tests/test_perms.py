import math
import re
from itertools import permutations
from operator import itemgetter

import pytest
from hypothesis import given, settings, strategies as st

from fano21 import embed, kirkman, octonion, orient, steiner
from fano21.perms import (
    DegreeMismatch,
    NotAPermutation,
    Perm,
    PermGroup,
    affine_group,
    affine_perm,
    classify_order21,
    compose,
    generate_group,
    group_from_elements,
    stabilizer,
)

LAMBDA2 = affine_perm(7, 2, 0)
TAU1 = affine_perm(7, 1, 1)
E7 = Perm(tuple(range(7)))


def test_images_must_be_bijection():
    with pytest.raises(NotAPermutation):
        Perm((0, 0, 1))


def test_compose_applies_right_first():
    # lambda2 tau1 maps 0 to 2; tau1 lambda2 maps 0 to 1
    assert compose(LAMBDA2, TAU1)(0) == 2
    assert compose(TAU1, LAMBDA2)(0) == 1


def test_compose_identity():
    p = Perm((0, 5, 3, 1, 6, 4, 2))  # (1 5 4 6 2 3)
    assert compose(p, E7) == p
    assert compose(E7, p) == p


def test_compose_degree_mismatch():
    with pytest.raises(DegreeMismatch):
        compose(E7, Perm(tuple(range(6))))


def test_cycle_string_round_trip():
    # the string lists the cycles, and the cycles rebuild the permutation
    for images, text in [((0, 5, 3, 1, 6, 4, 2), "(1 5 4 6 2 3)"),
                         ((0, 1, 4, 5, 2, 3, 6), "(2 4)(3 5)"), (tuple(range(7)), "()")]:
        p = Perm(images)
        assert p.cycle_string() == text
        rebuilt = list(range(7))
        for cycle in p.cycles():
            for a, b in zip(cycle, cycle[1:] + cycle[:1]):
                rebuilt[a] = b
        assert tuple(rebuilt) == images


def test_generate_group_lambda_tau_is_f21():
    g = generate_group(7, [LAMBDA2, TAU1])
    assert g.order == 21


def test_generate_group_cyclic_and_trivial():
    assert generate_group(7, [TAU1]).order == 7
    assert generate_group(7, []).order == 1


def test_generate_group_degree_mismatch():
    with pytest.raises(DegreeMismatch):
        generate_group(7, [Perm(tuple(range(6)))])


def test_generate_group_idempotent():
    g = generate_group(7, [LAMBDA2, TAU1])
    again = generate_group(7, list(g))
    assert again.elements == g.elements


def test_affine_group_orders():
    assert affine_group(7, {1, 2, 4}).order == 21
    assert affine_group(13, {1, 3, 9}).order == 39
    assert affine_group(7, {1}).order == 7


def test_affine_group_equals_generated():
    assert affine_group(7, {1, 2, 4}).elements == generate_group(7, [LAMBDA2, TAU1]).elements


def test_affine_group_rejects_bad_multipliers():
    with pytest.raises(ValueError):
        affine_group(7, {1, 2})  # 2*2=4 not in the set
    with pytest.raises(ValueError):
        affine_group(7, {2, 4})  # missing 1


def test_affine_translations_are_cyclic():
    g = affine_group(7, {1})
    assert g.order == 7 and g.is_abelian()


def test_affine_fixed_points():
    # a != 1: exactly one fixed point; a = 1, b != 0: none
    for a in (1, 2, 4):
        for b in range(7):
            p = affine_perm(7, a, b)
            fixed = [x for x in range(7) if p(x) == x]
            if a == 1:
                assert len(fixed) == (7 if b == 0 else 0)
            else:
                assert len(fixed) == 1


def test_classify_order21():
    assert classify_order21(affine_group(7, {1, 2, 4})) == "Frobenius21"
    c21 = generate_group(21, [Perm(tuple((i + 1) % 21 for i in range(21)))])
    assert classify_order21(c21) == "Cyclic21"
    with pytest.raises(ValueError):
        classify_order21(affine_group(7, {1}))


def test_lagrange_sanity():
    for g in (affine_group(7, {1, 2, 4}), generate_group(7, [TAU1])):
        assert math.factorial(g.degree) % g.order == 0


def test_group_from_elements_rejects_non_groups():
    # the missing inverse of TAU1 shows as the closure leaving the set
    with pytest.raises(ValueError, match="not closed under composition"):
        group_from_elements(7, [E7, TAU1])  # not closed


def test_json_serialization():
    assert TAU1.to_json() == [1, 2, 3, 4, 5, 6, 0]


def test_group_from_elements_rejects_inverse_closed_non_groups():
    from fano21.steiner import automorphism_group, fano_b1

    aut = automorphism_group(fano_b1())
    involution = next(p for p in aut if p != E7 and compose(p, p) == E7)
    for elements in (
        [p for p in aut if p != involution],
        [E7, Perm((1, 0, 2, 3, 4, 5, 6)), Perm((0, 2, 1, 3, 4, 5, 6))],
    ):
        with pytest.raises(ValueError, match="not closed under composition"):
            group_from_elements(7, elements)


def test_group_from_elements_proof_is_linear_in_the_group(monkeypatch):
    # Aut(b1) has order 168: an all-pairs closure check would make 168^2
    # = 28,224 compositions.  The closure multiplies image tuples through
    # one itemgetter per generator, so each call of one is a product.
    import fano21.perms as perms
    from fano21.steiner import fano_b1, isomorphisms

    calls = [0]

    def counting_itemgetter(*images):
        product = itemgetter(*images)

        def counted(p):
            calls[0] += 1
            return product(p)

        return counted

    elements = isomorphisms(fano_b1(), fano_b1())
    monkeypatch.setattr(perms, "itemgetter", counting_itemgetter)
    assert group_from_elements(7, elements).order == 168
    assert 0 < calls[0] <= 2000


def test_group_from_elements_matches_generated_groups():
    for gens in ([LAMBDA2, TAU1], [TAU1], [], [Perm((1, 0, 2, 3, 4, 5, 6)), TAU1]):
        g = generate_group(7, gens)
        assert group_from_elements(7, reversed(g.elements)).elements == g.elements


@st.composite
def _element_sets(draw):
    """(degree, elements): a generated group, or a random set that
    contains the identity, on at most 5 points."""
    n = draw(st.integers(1, 5))
    perm = st.permutations(range(n)).map(lambda images: Perm(tuple(images)))
    picked = draw(st.lists(perm, max_size=4))
    if draw(st.booleans()):
        return n, list(generate_group(n, picked))
    return n, [Perm(tuple(range(n)))] + picked


def _all_pairs_closure(elements):
    """Add every product of two elements until nothing new appears."""
    closed = set(elements)
    while True:
        products = {compose(p, q) for p in closed for q in closed}
        if products <= closed:
            return closed
        closed |= products


@settings(deadline=None)
@given(_element_sets())
def test_group_from_elements_matches_all_pairs_closure(case):
    n, elements = case
    distinct = set(elements)
    if all(compose(p, q) in distinct for p in distinct for q in distinct):
        assert group_from_elements(n, elements).elements == tuple(sorted(distinct))
    else:
        with pytest.raises(ValueError):
            group_from_elements(n, elements)
    generated = generate_group(n, elements).elements
    assert generated == tuple(sorted(_all_pairs_closure(distinct)))


def _assert_group_axioms(group):
    ident, elements = Perm(tuple(range(group.degree))), set(group.elements)
    assert ident in elements
    for p in group:
        inverse = Perm(tuple(sorted(range(group.degree), key=p.images.__getitem__)))
        assert inverse in elements and compose(p, inverse) == ident
        for q in group:
            assert compose(p, q) in elements


@settings(max_examples=20, deadline=None)
@given(st.permutations(range(7)))
def test_returned_groups_satisfy_the_axioms(images):
    sigma = Perm(tuple(images))
    plane = steiner.map_sts(sigma, steiner.fano_b1())
    classical = embed.classical_rotation()
    rotation = embed.validate_rotation(
        7, {sigma(x): [sigma(y) for y in classical.cycle_at(x)] for x in range(7)}
    )
    qr = orient.qr_orientation()
    oriented = orient.validate_orientation(
        steiner.map_sts(sigma, qr.plane), {(sigma(x), sigma(y)) for x, y in qr.arcs}
    )
    for group, order in [
        (steiner.automorphism_group(plane), 168),
        (embed.color_automorphism_group(rotation), 21),
        (orient.oriented_automorphism_group(oriented), 21),
    ]:
        assert group.order == order
        _assert_group_axioms(group)


def test_stabilizer_of_the_mate_blocks_is_f21(b1, b2):
    aut = steiner.automorphism_group(b1)
    blocks = frozenset(map(frozenset, b2.blocks))
    assert stabilizer(aut, blocks).elements == affine_group(7, {1, 2, 4}).elements


def test_stabilizer_reads_tuples_in_order(b1, qr):
    # an arc keeps its direction; read as a set it is an edge of K7, and
    # every automorphism of the plane permutes the 21 edges
    aut = steiner.automorphism_group(b1)
    assert stabilizer(aut, qr.arcs).order == 21
    assert stabilizer(aut, frozenset(map(frozenset, qr.arcs))).order == 168


def test_stabilizer_of_nested_classes(sts61, ag23):
    classes = frozenset(frozenset(map(frozenset, cls)) for cls in kirkman.parallel_classes(sts61))
    assert stabilizer(steiner.automorphism_group(sts61), classes).order == 21
    # Aut(AG(2,3)) permutes its 4 parallel classes as S4; only the
    # translations and x -> -x fix each class
    aut = steiner.automorphism_group(ag23)
    classes = [frozenset(map(frozenset, cls)) for cls in kirkman.parallel_classes(ag23)]
    assert stabilizer(aut, frozenset(classes)).order == 432
    assert stabilizer(aut, *classes).order == 18


# The structured groups are pruned searches; the stabilizer in the full
# group is their oracle, element for element and in order.

def _all_orientations(planes):
    return [o for plane in planes for o in orient.all_orientations(plane)]


def test_common_group_is_the_stabilizer_on_every_pair(all_planes, b1):
    # the 240 ordered orthogonal pairs, (b1, b1) and STS(13) with its negation
    sts13 = steiner.cyclic_sts13()
    pairs = [(plane, mate) for plane in all_planes for mate in steiner.orthogonal_mates(plane)]
    pairs += [(b1, b1), (sts13, steiner.negate_sts(sts13))]
    for s1, s2 in pairs:
        blocks = frozenset(map(frozenset, s2.blocks))
        expected = stabilizer(steiner.automorphism_group(s1), blocks).elements
        assert steiner.common_automorphism_group(s1, s2).elements == expected
    assert len(pairs) == 242
    assert steiner.common_automorphism_group(b1, b1).order == 168


def test_oriented_group_is_the_stabilizer_on_every_orientation(all_planes):
    oriented = _all_orientations(all_planes)
    for o in oriented:
        expected = stabilizer(steiner.automorphism_group(o.plane), o.arcs).elements
        assert orient.oriented_automorphism_group(o).elements == expected
    assert len(oriented) == 240


def test_algebra_automorphisms_are_the_definition_on_every_table(all_planes, monkeypatch):
    # the table of each of the 240 orientations and its transpose, the table
    # of the opposite algebra, against the definition on all 168 collineations;
    # the kernel keeps the signs and the squares are checked once, so the
    # definition checks none of the 21 maps it finds
    definition, checked = octonion.is_algebra_automorphism, []
    monkeypatch.setattr(octonion, "is_algebra_automorphism",
                        lambda p, t: checked.append(p) or definition(p, t))
    for o in _all_orientations(all_planes):
        table = octonion.cartan_table(o)
        for t in (table, tuple(zip(*table))):
            expected = [p for p in steiner.automorphism_group(o.plane) if definition(p, t)]
            assert octonion.algebra_automorphism_perms(t) == expected
            assert len(expected) == 21
    assert checked == []


def test_color_group_is_the_stabilizer_of_both_classes():
    # the 240 triangular rotations of K7, and K3, whose two faces share one
    # vertex set: both classes are {0, 1, 2}, and all 6 maps are kept
    rotations = [r for rest in permutations(range(2, 7))
                 for r in embed.triangular_completions((1, *rest))]
    rotations.append(embed.rotation_from_cycles(3, [(1, 2), (2, 0), (0, 1)]))
    for r in rotations:
        coloring = embed.two_coloring(r)
        classes = [frozenset(frozenset(f.walk) for f in faces)
                   for faces in (coloring.class_a, coloring.class_b)]
        automorphisms = PermGroup(r.n, tuple(p for p, _ in embed.embedding_isomorphisms(r, r)))
        expected = stabilizer(automorphisms, *classes).elements
        assert embed.color_automorphism_group(r).elements == expected
    assert len(rotations) == 241 and len(expected) == 6


def test_groups_reject_a_repeated_element(b1):
    with pytest.raises(ValueError, match=r"element \(0, 1, 2, 3, 4, 5, 6\) is listed more"):
        PermGroup(7, (E7, E7))
    group = steiner.automorphism_group(b1).elements
    with pytest.raises(ValueError, match=re.escape(f"element {group[-1].images} is listed more")):
        PermGroup(7, group + group[-1:])
    with pytest.raises(ValueError, match="does not contain the identity"):
        PermGroup(7, group[1:])
    with pytest.raises(DegreeMismatch, match="mixed degrees"):
        PermGroup(7, (E7, Perm(tuple(range(6)))))
    # the checks run in this order: degrees, repeats, the identity
    with pytest.raises(DegreeMismatch, match="mixed degrees"):
        PermGroup(7, (LAMBDA2, LAMBDA2, Perm(tuple(range(8)))))
    with pytest.raises(ValueError, match="is listed more than once"):
        PermGroup(7, (LAMBDA2, LAMBDA2))
