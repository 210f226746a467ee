from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from fano21.perms import Perm, generate_group
from fano21.steiner import (
    StsError,
    all_fano_planes,
    common_automorphism_group,
    cyclic_sts13,
    is_isomorphic,
    map_sts,
    negate_sts,
    orthogonal_mates,
    validate_sts,
)
from fano21.kirkman import (
    INFINITY,
    fano_subplanes,
    kts_automorphism_group,
    parallel_classes,
    point_name,
    sts15_from_pair,
    sts_automorphism_group15,
)

# Oracle: #61 as the translates (mod 7) of five base blocks, and its
# resolution as the translates of one base parallel class.
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


def lift(sigma):
    """n -> sigma(n), n' -> sigma(n)', inf -> inf."""
    return Perm(sigma.images + tuple(n + 7 for n in sigma.images) + (INFINITY,))


def affine15(a, b):
    """The lift of n -> an + b (mod 7)."""
    return lift(Perm(tuple((a * n + b) % 7 for n in range(7))))


def translate(block, z):
    return tuple(sorted(affine15(1, z)(p) for p in block))


def test_point_names_round_trip():
    assert point_name(3) == "3"
    assert point_name(10) == "3'"
    assert point_name(INFINITY) == "inf"
    assert len({point_name(p) for p in range(15)}) == 15


def test_sts15_61_basics(sts61):
    assert sts61.v == 15 and len(sts61.blocks) == 35
    # sample translates of the base blocks: 1 1' inf and 2 3 5
    assert (1, 8, 14) in sts61.block_set()
    assert (2, 3, 5) in sts61.block_set()


def test_sts15_61_is_the_translates_of_the_base_blocks(sts61, b1, b2):
    assert sts15_from_pair(b1, b2) == sts61
    assert {translate(b, z) for b in BASE_BLOCKS_61 for z in range(7)} == sts61.block_set()
    classes = {frozenset(translate(b, z) for b in BASE_PARALLEL_CLASS_61) for z in range(7)}
    assert set(map(frozenset, parallel_classes(sts61))) == classes


def test_sts15_from_every_orthogonal_pair_is_61(sts61):
    # each of the 240 ordered pairs gives #61, with Aut the lift of the
    # common group, a forced resolution and f as its only Fano subplane
    count = 0
    for f in all_fano_planes():
        for s in orthogonal_mates(f):
            system = sts15_from_pair(f, s)
            assert is_isomorphic(system, sts61) is not None
            aut = sts_automorphism_group15(system)
            assert set(aut.elements) == set(map(lift, common_automorphism_group(f, s)))
            classes = parallel_classes(system)
            assert len(classes) == 7
            assert sorted(b for cls in classes for b in cls) == list(system.blocks)
            assert fano_subplanes(system) == [(tuple(range(7)), f)]
            count += 1
    assert count == 240


@pytest.mark.parametrize("pair", ["b1-b1", "b1-sts13", "sts13-negated"])
def test_sts15_from_pair_rejects_other_inputs(pair, b1):
    sts13 = cyclic_sts13()
    f, s = {"b1-b1": (b1, b1), "b1-sts13": (b1, sts13),
            "sts13-negated": (sts13, negate_sts(sts13))}[pair]
    with pytest.raises(StsError, match="inputs are not orthogonal Fano planes") as info:
        sts15_from_pair(f, s)
    assert info.type is StsError


def test_sts15_61_translation_invariant(sts61):
    for z in range(7):
        assert {translate(b, z) for b in sts61.blocks} == sts61.block_set()


def test_unique_fano_subplane(sts61, b1):
    planes = fano_subplanes(sts61)
    assert len(planes) == 1
    points, inner = planes[0]
    assert points == tuple(range(7))
    assert inner == b1


def fano_subplanes_by_sweep(system):
    """Oracle: every 7-subset of the points whose induced blocks are 7,
    which then cover its 21 pairs and form a Fano plane."""
    out = []
    for pts in combinations(range(system.v), 7):
        relabel = {p: i for i, p in enumerate(pts)}
        induced = [b for b in system.blocks if set(b) <= set(pts)]
        if len(induced) == 7:
            inner = validate_sts(7, [[relabel[x] for x in b] for b in induced])
            out.append((pts, inner))
    return out


def test_fano_subplanes_match_sweep(sts61, pg32):
    assert fano_subplanes(sts61) == fano_subplanes_by_sweep(sts61)
    planes = fano_subplanes(pg32)
    assert len(planes) == 15  # the planes of PG(3,2)
    assert planes == fano_subplanes_by_sweep(pg32)


@settings(max_examples=10, deadline=None)
@given(st.booleans(), st.permutations(range(15)))
def test_fano_subplanes_match_sweep_on_relabellings(sts61, pg32, on_pg32, images):
    system = map_sts(Perm(tuple(images)), pg32 if on_pg32 else sts61)
    assert fano_subplanes(system) == fano_subplanes_by_sweep(system)


def test_fano_subplanes_of_other_systems(ag23, b1):
    assert fano_subplanes(cyclic_sts13()) == []
    assert fano_subplanes(ag23) == []
    assert fano_subplanes(b1) == [(tuple(range(7)), b1)]


def test_parallel_classes(sts61, ag23):
    classes = parallel_classes(sts61)
    assert len(classes) == 7
    assert sorted(tuple(sorted(b)) for b in BASE_PARALLEL_CLASS_61) in [
        [tuple(b) for b in cls] for cls in classes
    ]
    # AG(2,3): the four classes of parallel lines partition its 12 blocks
    classes = parallel_classes(ag23)
    assert len(classes) == 4
    assert sorted(b for cls in classes for b in cls) == list(ag23.blocks)
    for cls in classes:
        assert sorted(x for b in cls for x in b) == list(range(9))


def test_automorphism_group_order(sts61):
    g = sts_automorphism_group15(sts61)
    assert g.order == 21
    assert affine15(1, 1) in g
    assert affine15(2, 0) in g
    assert g.elements == generate_group(15, [affine15(1, 1), affine15(2, 0)]).elements


def test_automorphisms_act_diagonally(sts61):
    # every automorphism fixes inf, stabilizes 0..6 and acts the same way
    # on the primed copy
    for sigma in sts_automorphism_group15(sts61):
        assert sigma(INFINITY) == INFINITY
        for n in range(7):
            assert sigma(n) < 7
            assert sigma(n + 7) == sigma(n) + 7


def test_kts_automorphism_group(sts61):
    classes = parallel_classes(sts61)
    g = kts_automorphism_group(sts61, classes)
    # every STS automorphism already permutes the seven classes
    assert g.elements == sts_automorphism_group15(sts61).elements
    # translation by one permutes the classes in a single 7-cycle
    t = affine15(1, 1)
    classes = [frozenset(c) for c in classes]
    image = {
        cls: frozenset(tuple(sorted(t(x) for x in b)) for b in cls)
        for cls in classes
    }
    seen, cls = [], classes[0]
    while cls not in seen:
        seen.append(cls)
        cls = image[cls]
    assert len(seen) == 7

