import re
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from fano21.perms import Perm, generate_group
from fano21.steiner import (
    StsError,
    common_automorphism_group,
    cyclic_sts13,
    fano_b1,
    fano_b2,
    map_sts,
    validate_sts,
)
from fano21.kirkman import (
    BASE_PARALLEL_CLASS_61,
    INFINITY,
    Resolution,
    doubling15,
    fano_subplanes,
    kts_automorphism_group,
    parallel_classes,
    parse_point,
    point_name,
    resolution_61,
    restriction_to_p,
    sts15_61,
    sts_automorphism_group15,
    structured_automorphism_group61,
    translation15,
)


def test_point_names_round_trip():
    assert point_name(3) == "3"
    assert point_name(10) == "3'"
    assert point_name(INFINITY) == "inf"
    for p in range(15):
        assert parse_point(point_name(p)) == p
    assert parse_point("oo") == INFINITY


@pytest.mark.parametrize("name", ["7'", "9", "15", "-1'"])
def test_parse_point_rejects_names_outside_the_points(name):
    # these once parsed as 14 (inf), 2', 8' and the point 6
    with pytest.raises(ValueError, match=re.escape(repr(name))):
        parse_point(name)


def test_sts15_61_basics(sts61):
    assert sts61.v == 15 and len(sts61.blocks) == 35
    # sample translates of the base blocks: 1 1' inf and 2 3 5
    assert (1, 8, 14) in sts61.block_set()
    assert (2, 3, 5) in sts61.block_set()


def test_sts15_61_translation_invariant(sts61):
    for z in range(7):
        t = translation15(z)
        mapped = {tuple(sorted(t(x) for x in b)) for b in sts61.blocks}
        assert mapped == sts61.block_set()


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


def test_resolution_61(sts61):
    res = resolution_61()
    assert res.sts == sts61
    assert len(res.classes) == 7
    # the classes are exactly the seven parallel classes of the system
    assert sorted(map(frozenset, res.classes), key=sorted) == sorted(
        (frozenset(map(tuple, c)) for c in parallel_classes(sts61)), key=sorted
    )


def test_resolution_validation(sts61):
    res = resolution_61()
    with pytest.raises(StsError):
        Resolution(sts61, res.classes[:6])
    broken = (res.classes[0][:4] + (res.classes[1][0],),) + res.classes[1:]
    with pytest.raises(StsError):
        Resolution(sts61, broken)


def test_automorphism_group_order(sts61):
    g = sts_automorphism_group15(sts61)
    assert g.order == 21
    assert translation15(1) in g
    assert doubling15() in g
    assert g.elements == generate_group(15, [translation15(1), doubling15()]).elements


def test_structured_oracle_agrees(sts61):
    generic = sts_automorphism_group15(sts61)
    structured = structured_automorphism_group61(sts61)
    assert generic.elements == structured.elements


def test_automorphisms_act_diagonally(sts61):
    # every automorphism fixes inf, stabilizes 0..6 and acts the same way
    # on the primed copy
    for sigma in sts_automorphism_group15(sts61):
        assert sigma(INFINITY) == INFINITY
        for n in range(7):
            assert sigma(n) < 7
            assert sigma(n + 7) == sigma(n) + 7


def test_restriction_to_p(sts61, b1, b2):
    g = sts_automorphism_group15(sts61)
    small = restriction_to_p(g)
    assert small.order == 21
    assert small.elements == common_automorphism_group(b1, b2).elements


def test_restriction_rejects_moving_infinity():
    bad = generate_group(15, [Perm(tuple((p + 1) % 15 for p in range(15)))])
    with pytest.raises(StsError):
        restriction_to_p(bad)


def test_kts_automorphism_group(sts61):
    res = resolution_61()
    g = kts_automorphism_group(res)
    # every STS automorphism already permutes the seven classes
    assert g.elements == sts_automorphism_group15(sts61).elements
    # translation by one permutes the classes in a single 7-cycle
    t = translation15(1)
    classes = [frozenset(c) for c in res.classes]
    image = {
        cls: frozenset(tuple(sorted(t(x) for x in b)) for b in cls)
        for cls in classes
    }
    seen, cls = [], classes[0]
    while cls not in seen:
        seen.append(cls)
        cls = image[cls]
    assert len(seen) == 7


def test_resolution_json(sts61):
    data = resolution_61().to_json()
    assert data["v"] == 15 and len(data["blocks"]) == 35
    assert sorted(i for cls in data["classes"] for i in cls) == list(range(35))
