import math
from operator import itemgetter

import pytest
from hypothesis import given, settings, strategies as st

from fano21 import embed, kirkman, orient, steiner
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
    group_from_chain,
    group_from_elements,
    identity,
    perm_from_cycles,
    stabilizer,
)

LAMBDA2 = affine_perm(7, 2, 0)
TAU1 = affine_perm(7, 1, 1)


def test_images_must_be_bijection():
    with pytest.raises(NotAPermutation):
        Perm((0, 0, 1))


def test_compose_applies_right_first():
    # lambda2 tau1 maps 0 to 2; tau1 lambda2 maps 0 to 1
    assert compose(LAMBDA2, TAU1)(0) == 2
    assert compose(TAU1, LAMBDA2)(0) == 1


def test_compose_identity():
    p = perm_from_cycles("(1 5 4 6 2 3)", 7)
    assert compose(p, identity(7)) == p
    assert compose(identity(7), p) == p


def test_compose_degree_mismatch():
    with pytest.raises(DegreeMismatch):
        compose(identity(7), identity(6))


def test_inverse_and_order():
    p = perm_from_cycles("(0 1 2)(3 4)", 7)
    assert compose(p, p.inverse()) == identity(7)
    assert p.order() == 6


def test_cycle_string_round_trip():
    for s in ["(1 5 4 6 2 3)", "(2 4)(3 5)", "()"]:
        p = perm_from_cycles(s, 7)
        assert perm_from_cycles(p.cycle_string(), 7) == p


def test_cycle_parse_rejects_garbage():
    with pytest.raises(ValueError):
        perm_from_cycles("(1 1)", 7)
    with pytest.raises(ValueError):
        perm_from_cycles("1 2 3", 7)


def test_generate_group_lambda_tau_is_f21():
    g = generate_group(7, [LAMBDA2, TAU1])
    assert g.order == 21


def test_generate_group_cyclic_and_trivial():
    assert generate_group(7, [TAU1]).order == 7
    assert generate_group(7, []).order == 1


def test_generate_group_degree_mismatch():
    with pytest.raises(DegreeMismatch):
        generate_group(7, [identity(6)])


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
        group_from_elements(7, [identity(7), TAU1])  # not closed


def test_json_serialization():
    assert TAU1.to_json() == [1, 2, 3, 4, 5, 6, 0]


def test_group_from_elements_rejects_inverse_closed_non_groups():
    from fano21.steiner import automorphism_group, fano_b1

    aut = automorphism_group(fano_b1())
    involution = next(p for p in aut if p.order() == 2)
    for elements in (
        [p for p in aut if p != involution],
        [identity(7), perm_from_cycles("(0 1)", 7), perm_from_cycles("(1 2)", 7)],
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
    for gens in ([LAMBDA2, TAU1], [TAU1], [], [perm_from_cycles("(0 1)", 7),
                                             perm_from_cycles("(0 1 2 3 4 5 6)", 7)]):
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
    return n, [identity(n)] + picked


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
    ident = identity(group.degree)
    assert ident in group
    for p in group:
        assert p.inverse() in group and compose(p, p.inverse()) == ident
        for q in group:
            assert compose(p, q) in group


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
    res = kirkman.resolution_61()
    classes = frozenset(frozenset(map(frozenset, cls)) for cls in res.classes)
    assert stabilizer(steiner.automorphism_group(sts61), classes).order == 21
    # Aut(AG(2,3)) permutes its 4 parallel classes as S4; only the
    # translations and x -> -x fix each class
    aut = steiner.automorphism_group(ag23)
    classes = [frozenset(map(frozenset, cls)) for cls in kirkman.parallel_classes(ag23)]
    assert stabilizer(aut, frozenset(classes)).order == 432
    assert stabilizer(aut, *classes).order == 18


def test_groups_reject_a_repeated_element(b1):
    e = identity(7)
    with pytest.raises(ValueError, match=r"element \(0, 1, 2, 3, 4, 5, 6\) is listed more"):
        PermGroup(7, (e, e))
    # two transversal elements for one coset list each product twice
    _, (first, *rest) = steiner.automorphism_chain(b1)
    with pytest.raises(ValueError, match="is listed more than once"):
        group_from_chain(7, [first + first[-1:], *rest])
