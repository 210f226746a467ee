import math
import os
import random
import subprocess
import sys
from itertools import combinations, permutations
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from fano21 import orient, steiner
from fano21.kirkman import sts15_61
from fano21.perms import (
    Perm,
    affine_group,
    affine_perm,
    compose,
    generate_group,
    group_from_elements,
)
from fano21.steiner import (
    BadBlockCount,
    PairCoveredTwice,
    PairUncovered,
    PointSetMismatch,
    StsError,
    all_fano_planes,
    are_orthogonal,
    automorphism_bound,
    automorphism_chain,
    automorphism_group,
    closure,
    common_automorphism_group,
    cyclic_sts,
    cyclic_sts13,
    exact_covers,
    fano_b1,
    fano_b2,
    is_isomorphic,
    isomorphisms,
    isomorphisms_bruteforce,
    map_sts,
    negate_sts,
    orthogonal_mates,
    sts_from_json,
    validate_sts,
)

B1_BLOCKS = [(0, 1, 3), (1, 2, 4), (2, 3, 5), (3, 4, 6), (0, 4, 5), (1, 5, 6), (0, 2, 6)]


def test_validate_sts_accepts_b1():
    s = validate_sts(7, B1_BLOCKS)
    assert s == fano_b1()
    assert s.blocks == tuple(sorted(B1_BLOCKS))


def test_validate_sts_double_cover():
    bad = [b for b in B1_BLOCKS if b != (0, 1, 3)] + [(0, 1, 4)]
    with pytest.raises(PairCoveredTwice) as exc:
        validate_sts(7, bad)
    assert exc.value.pair in {(0, 4), (1, 4)}  # both pairs are doubled


def test_validate_sts_block_count():
    with pytest.raises(BadBlockCount):
        validate_sts(7, B1_BLOCKS[:6])


def test_validate_sts_uncovered_pair():
    # right count, but a pair repeated elsewhere leaves another uncovered
    blocks = B1_BLOCKS[:5] + [(1, 5, 6), (2, 5, 6)]
    with pytest.raises((PairUncovered, PairCoveredTwice)):
        validate_sts(7, blocks)


@pytest.mark.parametrize("v", [0, -5, 2, 5, 8, 10, 12])
def test_validate_sts_rejects_inadmissible_order(v):
    with pytest.raises(StsError) as exc:
        validate_sts(v, [])
    assert f"STS({v})" in str(exc.value)


@pytest.mark.parametrize("point", [3.5, True, "3"])
def test_validate_sts_rejects_non_int_point(point):
    blocks = [list(b) for b in B1_BLOCKS]
    blocks[2][1] = point
    with pytest.raises(StsError) as exc:
        validate_sts(7, blocks)
    assert repr(point) in str(exc.value)


def test_cyclic_sts_b1_b2():
    assert cyclic_sts(7, [(0, 1, 3)]) == fano_b1()
    assert cyclic_sts(7, [(0, 1, 5)]) == fano_b2()


def test_cyclic_sts13_block_count():
    assert len(cyclic_sts13().blocks) == 26


def test_are_orthogonal_b1_b2(b1, b2):
    assert are_orthogonal(b1, b2) == {"disjoint": True, "orthogonal": True}
    assert are_orthogonal(b1, b1) == {"disjoint": False, "orthogonal": False}


def test_are_orthogonal_sts13():
    sts = cyclic_sts13()
    assert are_orthogonal(sts, negate_sts(sts)) == {
        "disjoint": True,
        "orthogonal": True,
    }


def _orthogonal_by_block_pairs(s1, s2):
    """The quadruple condition as it reads, over every pair of blocks of s1
    that meet in a point z: the oracle for are_orthogonal."""
    if s1.block_set() & s2.block_set():
        return False
    for b1, b2 in combinations(s1.blocks, 2):
        common = set(b1) & set(b2)
        if len(common) == 1 and (s2.third_point(*sorted(set(b1) - common))
                                 == s2.third_point(*sorted(set(b2) - common))):
            return False
    return True


def test_are_orthogonal_is_the_quadruple_condition(all_planes, sts61):
    # every pair of labelled Fano planes, and seeded relabellings of STS(13)
    # and #61 against themselves, among which some disjoint pairs are not
    # orthogonal, so a test of disjointness alone fails here
    sts13, rng = cyclic_sts13(), random.Random(1)
    families = {"fano": [(p, q) for p in all_planes for q in all_planes],
                "sts13-negated": [(sts13, negate_sts(sts13))]}
    for name, s in ("sts13", sts13), ("sts61", sts61):
        families[name] = [(map_sts(Perm(tuple(rng.sample(range(s.v), s.v))), s), s)
                          for _ in range(300)]
    counts = {}
    for name, pairs in families.items():
        for s1, s2 in pairs:
            flags = are_orthogonal(s1, s2)
            assert flags == {"disjoint": not (s1.block_set() & s2.block_set()),
                             "orthogonal": _orthogonal_by_block_pairs(s1, s2)}
            key = (name, flags["disjoint"], flags["orthogonal"])
            counts[key] = counts.get(key, 0) + 1
    assert counts == {("fano", False, False): 660, ("fano", True, True): 240,
                      ("sts13-negated", True, True): 1,
                      ("sts13", False, False): 272, ("sts13", True, False): 28,
                      ("sts61", False, False): 276, ("sts61", True, False): 24}


def test_are_orthogonal_mismatch(b1):
    with pytest.raises(PointSetMismatch):
        are_orthogonal(b1, cyclic_sts13())


def test_negate_sts(b1):
    assert negate_sts(b1) == cyclic_sts(7, [(0, 4, 6)])
    assert negate_sts(negate_sts(cyclic_sts13())) == cyclic_sts13()


def test_isomorphisms_aut_order(b1, b2):
    assert len(isomorphisms(b1, b1)) == 168
    lam2 = affine_perm(7, 2, 0)
    assert lam2 in isomorphisms(b2, b2)
    assert len(isomorphisms(b1, b2)) == 168  # all Fano planes isomorphic


def test_automorphism_group_of_ag23(ag23):
    # the collineations of AG(2,3) are AGL(2,3), of order 9 * 48 = 432
    assert automorphism_group(ag23).order == 432


def test_automorphism_group_of_pg32(pg32):
    # the collineations of PG(3,2) are GL(4,2), of order 20160
    group = automorphism_group(pg32)
    assert group.order == 20160
    blocks = pg32.block_set()
    for p in group:
        assert {tuple(sorted(map(p, b))) for b in pg32.blocks} == blocks


@pytest.mark.parametrize("name, base, lengths", [
    ("b1", (0, 1, 2), (7, 6, 4)),
    ("ag23", (0, 1, 3), (9, 8, 6)),
    ("sts13", (0, 1, 2), (13, 3, 1)),
    ("sts61", (0, 1, 2, 7), (7, 3, 1, 1)),
    ("pg32", (0, 1, 3, 7), (15, 14, 12, 8)),
    ("ag33", (0, 1, 3, 9), (27, 26, 24, 18)),
    ("pg42", (0, 1, 3, 7, 15), (31, 30, 28, 24, 16)),
])
def test_automorphism_chain(request, name, base, lengths):
    system = cyclic_sts13() if name == "sts13" else request.getfixturevalue(name)
    got_base, transversals = automorphism_chain(system)
    assert got_base == base
    assert tuple(map(len, transversals)) == lengths
    blocks = system.block_set()
    for i, (b, transversal) in enumerate(zip(base, transversals)):
        images = [u(b) for u in transversal]
        assert images == sorted(set(images))
        assert transversal[images.index(b)] == Perm(tuple(range(system.v)))
        for u in transversal:
            assert all(u(a) == a for a in base[:i])
            assert {tuple(sorted(map(u, block))) for block in system.blocks} == blocks


@pytest.mark.parametrize("name, bound", [
    ("sts1", 1), ("sts3", 6), ("b1", 168), ("ag23", 432), ("sts13", 1_560),
    ("sts61", 20_160), ("pg32", 20_160), ("pg42", 9_999_360), ("ag33", 303_264),
    ("sts31", 26_040),
])
def test_automorphism_bound(request, name, bound):
    # the bound holds on each system and on seeded relabellings, whose base
    # points, and so closure sizes and bound, may differ; it is the order on
    # the projective and affine spaces
    system = {"sts1": lambda: validate_sts(1, []), "sts3": lambda: validate_sts(3, [(0, 1, 2)]),
              "sts13": cyclic_sts13}.get(name, lambda: request.getfixturevalue(name))()
    assert automorphism_bound(system) == bound
    rng = random.Random(name)
    sigmas = [tuple(range(system.v))] + [tuple(rng.sample(range(system.v), system.v))
                                         for _ in range(10)]
    orders = []
    for sigma in sigmas:
        relabelled = map_sts(Perm(sigma), system)
        orders.append(math.prod(map(len, automorphism_chain(relabelled)[1])))
        assert automorphism_bound(relabelled) >= orders[-1]
    if name in ("b1", "ag23", "pg32", "pg42", "ag33"):
        assert orders[0] == bound


@pytest.mark.parametrize("name", ["b1", "ag23", "sts13", "sts61", "pg32"])
def test_automorphism_group_equals_the_listed_isomorphisms(request, name):
    system = cyclic_sts13() if name == "sts13" else request.getfixturevalue(name)
    listed = group_from_elements(system.v, isomorphisms(system, system))
    assert automorphism_group(system).elements == listed.elements
    # the transversal elements that move their base point generate the group
    base, transversals = automorphism_chain(system)
    generators = [u for b, t in zip(base, transversals) for u in t if u(b) != b]
    assert generate_group(system.v, generators).elements == listed.elements


@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_automorphism_group_of_relabellings(b1, ag23, sts61, data):
    system = data.draw(st.sampled_from([b1, ag23, sts61]))
    system = map_sts(Perm(tuple(data.draw(st.permutations(range(system.v))))), system)
    listed = group_from_elements(system.v, isomorphisms(system, system))
    assert automorphism_group(system).elements == listed.elements


@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_kernel_with_domains_yields_the_isomorphisms_with_those_base_images(
        all_planes, ag23, data):
    # domains restrict the images of the first base points and nothing else
    s1, s2 = data.draw(st.sampled_from([
        (all_planes[data.draw(st.integers(0, 29))], all_planes[data.draw(st.integers(0, 29))]),
        (ag23, ag23),
    ]))
    base = [x for x, pair in closure(s1, range(s1.v)) if pair is None]
    domains = [data.draw(st.lists(st.integers(0, s1.v - 1), max_size=3, unique=True))
               for _ in range(data.draw(st.integers(0, len(base))))]
    found = sorted(steiner._isomorphism_kernel(s1)(s2.third_table, *domains))
    assert found == [p.images for p in isomorphisms(s1, s2)
                     if all(p(b) in d for b, d in zip(base, domains))]


@pytest.mark.parametrize("name", ["b1", "ag23", "sts13", "sts61", "pg32"])
def test_kernel_never_repeats_an_image(request, name):
    # each base point after the first, forced onto the image of an earlier
    # point while the earlier base points keep their own images
    system = cyclic_sts13() if name == "sts13" else request.getfixturevalue(name)
    order = list(closure(system, range(system.v)))
    base = [x for x, pair in order if pair is None]
    for j, b in enumerate(base[1:], 1):
        for q, _ in order[:order.index((b, None))]:
            domains = [(a,) for a in base[:j]] + [(q,)]
            kernel = steiner._isomorphism_kernel(system)
            assert list(kernel(system.third_table, *domains)) == []


@settings(max_examples=5, deadline=None)
@given(data=st.data())
def test_isomorphisms_onto_relabellings_are_the_coset(ag23, pg32, data):
    # the isomorphisms S -> tau(S) are the maps tau o g, g in Aut(S)
    for system in (ag23, pg32):
        tau = Perm(tuple(data.draw(st.permutations(range(system.v)))))
        target = map_sts(tau, system)
        coset = sorted(compose(tau, g) for g in isomorphisms(system, system))
        assert isomorphisms(system, target) == coset


def test_the_kernel_yields_the_isomorphisms_sorted(all_planes, ag23, sts61, pg32):
    # isomorphisms sorts nothing: on the 900 ordered pairs of labelled Fano
    # planes, each plane's 8 arc sets and 8 mates, and relabellings of larger
    # systems, the kernel's own order is the sorted one
    calls = [(p, q, {}) for p in all_planes for q in all_planes]
    for plane in all_planes:
        calls += [(plane, plane, {"arcs": o.arcs}) for o in orient.all_orientations(plane)]
        calls += [(plane, plane, {"mate": m}) for m in orthogonal_mates(plane)]
    rng = random.Random(5)
    for system in (ag23, cyclic_sts13(), sts61, pg32):
        target = map_sts(Perm(tuple(rng.sample(range(system.v), system.v))), system)
        calls += [(system, target, {}), (target, system, {}), (target, target, {})]
    for s1, s2, structures in calls:
        maps = isomorphisms(s1, s2, **structures)
        assert maps and maps == sorted(maps)
    assert len(calls) == 900 + 30 * 16 + 4 * 3


def test_every_search_from_a_system_shares_one_kernel(b1, b2):
    steiner._isomorphism_kernel.cache_clear()
    isomorphisms(b1, b1)
    is_isomorphic(b1, b2)
    automorphism_chain(b1)
    assert steiner._isomorphism_kernel.cache_info().misses == 1


@pytest.mark.parametrize("name", ["b1", "ag23", "sts13", "sts61"])
def test_one_sided_arcs_and_mate_filter_the_isomorphisms(request, name):
    # the arcs and the mate live on the points of the relabelled target, and
    # a kept map carries each onto itself; tau keeps both, so some map passes
    system = cyclic_sts13() if name == "sts13" else request.getfixturevalue(name)
    v, rng = system.v, random.Random(system.v)
    mate = map_sts(Perm(tuple(rng.sample(range(v), v))), system)
    tau = rng.choice([p for p in isomorphisms(mate, mate) if map_sts(p, system) != system])
    target = map_sts(tau, system)
    arcs: set[tuple[int, int]] = set()
    for x, y in rng.sample(list(permutations(range(v), 2)), v):
        while (x, y) not in arcs:  # the orbit of (x, y) under tau
            arcs.add((x, y))
            x, y = tau(x), tau(y)
    every = isomorphisms(system, target)
    kept = [p for p in every if all(((p(x), p(y)) in arcs) == ((x, y) in arcs)
                                    for x, y in permutations(range(v), 2))]
    assert tau in kept and len(kept) < len(every)
    assert isomorphisms(system, target, arcs=arcs) == kept
    blocks = mate.block_set()
    kept = [p for p in every if all(tuple(sorted(map(p, b))) in blocks for b in blocks)]
    assert tau in kept and len(kept) < len(every)
    assert isomorphisms(system, target, mate=mate) == kept


def test_isomorphism_kernel_is_not_built_at_import():
    env = dict(os.environ, PYTHONPATH=str(Path(steiner.__file__).parents[1]))
    probe = ("import fano21.cli, fano21.steiner as s; "
             "print(s._isomorphism_kernel.cache_info().currsize); "
             "s.automorphism_group(s.fano_b1()); "
             "print(s._isomorphism_kernel.cache_info().currsize)")
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.split() == ["0", "1"]


def test_bruteforce_oracle_agrees(b1, all_planes):
    # b2 is among the planes; the maps come out of the sweep in order, unsorted
    for s1, s2 in [(p, p) for p in all_planes] + [(b1, p) for p in all_planes]:
        maps = isomorphisms_bruteforce(s1, s2)
        assert maps == sorted(maps) == isomorphisms(s1, s2)


def test_bruteforce_oracle_onto_every_plane(b1, all_planes):
    # each of the 7! permutations carries b1 onto exactly one labelled plane
    found = set()
    for q in all_planes:
        maps = isomorphisms_bruteforce(b1, q)
        assert len(maps) == 168
        for p in maps:
            assert sorted(tuple(sorted(map(p, b))) for b in b1.blocks) == list(q.blocks)
        found.update(maps)
    assert len(found) == 5040


def test_bruteforce_oracle_is_for_fano_planes_only(b1):
    for s1, s2 in (cyclic_sts13(), b1), (b1, cyclic_sts13()), (sts15_61(), sts15_61()):
        with pytest.raises(StsError, match="only tuned for v=7"):
            isomorphisms_bruteforce(s1, s2)


@given(st.permutations(range(7)), st.permutations(range(7)))
def test_isomorphisms_match_oracle_on_relabellings(b1, sigma, tau):
    s1, s2 = map_sts(Perm(tuple(sigma)), b1), map_sts(Perm(tuple(tau)), b1)
    assert isomorphisms(s1, s2) == isomorphisms_bruteforce(s1, s2)


@pytest.mark.parametrize(
    "make, count", [(cyclic_sts13, 39), (sts15_61, 21)], ids=["sts13", "sts61"]
)
@given(data=st.data())
def test_isomorphisms_onto_relabelling(make, count, data):
    system = make()
    sigma = data.draw(st.permutations(range(system.v)))
    target = map_sts(Perm(tuple(sigma)), system)
    maps = isomorphisms(system, target)
    assert len(maps) == count
    for p in maps:
        assert sorted(p.images) == list(range(system.v))
        image = {tuple(sorted(map(p, b))) for b in system.blocks}
        assert image == target.block_set()


@pytest.mark.parametrize("make", [fano_b1, cyclic_sts13, sts15_61], ids=["b1", "sts13", "sts61"])
@pytest.mark.parametrize("seed", range(4))
def test_is_isomorphic_onto_seeded_relabelling(make, seed):
    # the kernel's first map, which carries the blocks onto the target's
    system = make()
    images = list(range(system.v))
    random.Random(seed).shuffle(images)
    target = map_sts(Perm(tuple(images)), system)
    sigma = is_isomorphic(system, target)
    assert map_sts(sigma, system) == target
    assert sigma in isomorphisms(system, target)


def test_is_isomorphic_without_a_map(sts61, pg32, b1):
    assert is_isomorphic(sts61, pg32) is None
    assert is_isomorphic(pg32, sts61) is None
    with pytest.raises(PointSetMismatch):
        is_isomorphic(b1, cyclic_sts13())


def test_generating_order(ag23):
    # base-point counts: 1 and 2 for STS(1) and STS(3); any larger STS needs
    # at least 3, since two points generate only their block
    systems = [
        (validate_sts(1, []), {1}),
        (validate_sts(3, [(0, 1, 2)]), {2}),
        (fano_b1(), {3}),
        (ag23, {3}),
        (cyclic_sts13(), {3}),
        (sts15_61(), {3, 4}),
    ]
    for system, base_counts in systems:
        order = list(closure(system, range(system.v)))
        points = [x for x, _ in order]
        assert sorted(points) == list(range(system.v))
        bases = [x for x, pair in order if pair is None]
        assert bases[0] == 0 and len(bases) in base_counts, system.v
        for k, (x, pair) in enumerate(order):
            if pair is not None:
                a, b = pair
                assert {a, b} <= set(points[:k])
                assert system.third_point(a, b) == x


@pytest.mark.parametrize(
    "make", [fano_b1, cyclic_sts13, sts15_61], ids=["b1", "sts13", "sts61"]
)
@given(data=st.data())
def test_closure_holds_seeds_and_is_closed(make, data):
    system = make()
    seeds = data.draw(st.lists(st.integers(0, system.v - 1), max_size=4))
    order = list(closure(system, seeds))
    points = [x for x, _ in order]
    assert len(set(points)) == len(points)
    assert set(seeds) <= set(points)
    for a, b in combinations(points, 2):
        assert system.third_point(a, b) in points
    for k, (x, pair) in enumerate(order):
        if pair is None:
            assert x in seeds
        else:
            assert set(pair) <= set(points[:k])
            assert system.third_point(*pair) == x


def test_isomorphisms_of_small_systems():
    sts1, sts3 = validate_sts(1, []), validate_sts(3, [(0, 1, 2)])
    assert isomorphisms(sts1, sts1) == [Perm((0,))]
    assert len(isomorphisms(sts3, sts3)) == 6


def test_common_automorphism_group(b1, b2):
    g = common_automorphism_group(b1, b2)
    assert g.order == 21 and not g.is_abelian()
    assert g.elements == affine_group(7, {1, 2, 4}).elements
    assert common_automorphism_group(b1, b1).order == 168


@settings(max_examples=20, deadline=None)
@given(st.permutations(range(7)), st.integers(0, 7))
def test_common_automorphism_group_matches_a_filter(b1, tau, index):
    tau = Perm(tuple(tau))
    s1, s2 = map_sts(tau, b1), map_sts(tau, orthogonal_mates(b1)[index])
    keep = [p for p in isomorphisms(s1, s1) if map_sts(p, s2) == s2]
    assert common_automorphism_group(s1, s2).elements == group_from_elements(7, keep).elements


def test_common_automorphism_group_sts13():
    sts = cyclic_sts13()
    g = common_automorphism_group(sts, negate_sts(sts))
    assert g.order == 39
    assert g.elements == automorphism_group(sts).elements


def test_orthogonal_mates_count(b1, b2):
    mates = orthogonal_mates(b1)
    assert len(mates) == 8
    assert b2 in mates


def test_orthogonal_mates_rejects_non_fano():
    with pytest.raises(StsError):
        orthogonal_mates(cyclic_sts13())


def test_mate_from_proof_construction(b1):
    # the mate containing 015 and 356 is forced block by block
    expected = {(0, 1, 5), (3, 5, 6), (2, 4, 5), (0, 4, 6), (0, 2, 3), (1, 2, 6), (1, 3, 4)}
    found = [m for m in orthogonal_mates(b1) if {(0, 1, 5), (3, 5, 6)} <= m.block_set()]
    assert len(found) == 1
    assert found[0].block_set() == frozenset(expected)


def test_mate_symmetry(all_planes):
    for f in all_planes:
        for m in orthogonal_mates(f):
            assert f in orthogonal_mates(m)


def test_disjoint_iff_orthogonal_for_fano(all_planes):
    for s1 in all_planes:
        for s2 in all_planes:
            flags = are_orthogonal(s1, s2)
            assert flags["disjoint"] == flags["orthogonal"]


def test_all_fano_planes(all_planes):
    assert len(all_planes) == 30
    assert len({p.block_set() for p in all_planes}) == 30
    assert 168 * 30 == 5040
    for p in all_planes:
        assert validate_sts(7, p.blocks) == p


def test_all_fano_planes_returns_a_new_list_each_call():
    planes = all_fano_planes()
    planes.pop()
    planes[0] = None
    again = all_fano_planes()
    assert len(again) == 30 and again[0] is not None
    assert again == sorted(again, key=lambda s: s.blocks)
    assert again is not all_fano_planes()


def test_exact_covers_knuth_example():
    # Knuth, "Dancing Links" (2000): items A..G, one exact cover
    subsets = ["CEF", "ADG", "BCF", "AD", "BG", "DEG"]
    assert exact_covers("ABCDEFG", subsets) == [[0, 3, 4]]


def test_exact_covers_item_held_by_no_subset():
    assert exact_covers(range(4), [{0, 1}, {2}, {0}, {1, 2}]) == []


@st.composite
def _cover_problems(draw):
    n = draw(st.integers(0, 7))
    if not n:
        return [], []
    subset = st.sets(st.integers(0, n - 1), min_size=1)
    return list(range(n)), draw(st.lists(subset, max_size=10))


@given(_cover_problems())
def test_exact_covers_match_bruteforce(problem):
    items, subsets = problem
    brute = [
        list(chosen)
        for r in range(len(subsets) + 1)
        for chosen in combinations(range(len(subsets)), r)
        if sorted(x for i in chosen for x in subsets[i]) == items
    ]
    assert sorted(exact_covers(items, subsets)) == sorted(brute)


def _exact_covers_reference(items, subsets):
    """Order oracle for ``exact_covers``: Algorithm X on frozensets,
    branching on the first uncovered item in the order of ``items``."""
    sets = [frozenset(s) for s in subsets]
    holding = {x: [] for x in items}
    for i, s in enumerate(sets):
        for x in s:
            holding[x].append(i)
    out = []

    def search(k, chosen, covered):
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


@st.composite
def _letter_cover_problems(draw):
    # items with one item repeated, as a list or as a string of letters;
    # subsets with repeated items, repeated subsets and empty subsets
    letters = draw(st.lists(st.sampled_from("ABCDEFGH"), min_size=1, max_size=8, unique=True))
    letters.insert(draw(st.integers(0, len(letters))), draw(st.sampled_from(letters)))
    subsets = draw(st.lists(st.lists(st.sampled_from(letters), max_size=4), max_size=10))
    if subsets:
        subsets += draw(st.lists(st.sampled_from(subsets), max_size=3))
    return draw(st.sampled_from(["".join(letters), letters])), subsets


@given(_letter_cover_problems())
@example(("AAB", [["A", "B"]]))
def test_exact_covers_match_the_order_oracle(problem):
    items, subsets = problem
    assert exact_covers(items, subsets) == _exact_covers_reference(items, subsets)


def test_aut_transitive_on_mates(b1):
    autos = isomorphisms(b1, b1)
    mates = orthogonal_mates(b1)
    for s1 in mates:
        for s2 in mates:
            assert any(map_sts(a, s1) == s2 for a in autos)


def test_common_aut_is_subgroup_of_aut(b1, b2):
    common, full = common_automorphism_group(b1, b2), automorphism_group(b1)
    assert set(common.elements) < set(full.elements)


def test_json_round_trip(b1):
    data = b1.to_json()
    assert data == {"v": 7, "blocks": [list(b) for b in b1.blocks]}
    # reader accepts any order and canonicalizes
    shuffled = {"v": 7, "blocks": [[3, 1, 0]] + data["blocks"][:0:-1]}
    assert sts_from_json(shuffled) == b1


def _scan_block(system, x, y):
    (block,) = [b for b in system.blocks if x in b and y in b]
    return block


def test_third_point_table_agrees_with_block_scan(all_planes, sts61):
    for system in [*all_planes, cyclic_sts13(), sts61]:
        for x in range(system.v):
            for y in range(system.v):
                if x == y:
                    continue
                block = _scan_block(system, x, y)
                assert system.block_through(x, y) == block
                (z,) = set(block) - {x, y}
                assert system.third_point(x, y) == z


def test_third_point_rejects_bad_pairs(b1):
    # -1 would wrap to the last row of the table if it were not range-checked
    for x, y in [(0, 0), (3, 3), (-1, 0), (0, -1), (-7, 1), (7, 0), (0, 7), (2, 99)]:
        with pytest.raises(PairUncovered):
            b1.third_point(x, y)
        with pytest.raises(PairUncovered):
            b1.block_through(x, y)


def test_third_point_table_leaves_value_semantics_alone():
    fresh, touched = fano_b1(), fano_b1()
    before = (repr(touched), hash(touched), touched.to_json())
    assert touched.third_table[0][1] == 3
    assert (repr(touched), hash(touched), touched.to_json()) == before
    assert touched == fresh and hash(touched) == hash(fresh)


def _validate_by_pair_set(v, blocks):
    # oracle: the validator as a set of covered pairs, with a closing sweep
    # for an uncovered pair, returning (v, canonical blocks)
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
    canon = sorted(steiner.canonical_block(b) for b in blocks)
    if len(canon) != v * (v - 1) // 6:
        raise BadBlockCount(v, len(canon))
    covered = set()
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
    return v, tuple(canon)


AG23_BLOCKS = [(0, 1, 2), (3, 4, 5), (6, 7, 8), (0, 3, 6), (1, 4, 7), (2, 5, 8),
               (0, 4, 8), (2, 4, 6), (1, 5, 6), (2, 3, 7), (0, 5, 7), (1, 3, 8)]
NOT_INTS = st.sampled_from([3.5, True, "3", None])


@st.composite
def block_lists(draw):
    """A relabelled STS(1), STS(3), Fano plane or AG(2,3), or no blocks for an
    inadmissible or non-int v, with up to three faults: a point replaced by
    an int in -1..v or by one that is not an int, a block dropped, a block of
    2 to 4 such ints added, or a block repeated."""
    v = draw(st.sampled_from([1, 3, 7, 9, 7, 9] if draw(st.integers(0, 3)) else [0, 2, 5, 8, 7.0, "7"]))
    base = {1: [], 3: [(0, 1, 2)], 7: B1_BLOCKS, 9: AG23_BLOCKS}.get(v, []) if type(v) is int else []
    images = draw(st.permutations(range(v))) if base else []
    blocks = [[images[x] for x in b] for b in base]
    points = st.integers(-1, v if type(v) is int else 9)  # in range but for -1 and v
    for _ in range(draw(st.integers(0, 3))):
        fault = draw(st.sampled_from(["point", "not-int", "drop", "add", "repeat"]))
        if fault == "add":
            blocks.append(draw(st.lists(points, min_size=2, max_size=4)))
        elif blocks:
            i = draw(st.integers(0, len(blocks) - 1))
            if fault in ("point", "not-int"):
                point = draw(points if fault == "point" else NOT_INTS)
                blocks[i][draw(st.integers(0, len(blocks[i]) - 1))] = point
            elif fault == "drop":
                del blocks[i]
            else:
                blocks.append(list(blocks[i]))
    return v, draw(st.permutations(blocks))


@settings(max_examples=400, deadline=None)
@given(block_lists())
@example((7, [list(b) for b in B1_BLOCKS]))
@example((7, [list(b) for b in B1_BLOCKS[:5]] + [[1, 5, 6], [2, 5, 6]]))
@example((7, [list(b) for b in B1_BLOCKS[:6]] + [[0, 2, 7]]))
@example((7, [list(b) for b in B1_BLOCKS[:6]] + [[-1, 2, 6]]))
@example((7, [list(b) for b in B1_BLOCKS[:6]] + [[0, 1, 6]]))
@example((9, [list(b) for b in AG23_BLOCKS[1:]] + [[3, 4, 5]]))
def test_validate_sts_matches_the_pair_set_oracle(case):
    # the same exception type and message, or equal blocks and an equal
    # third-point table, read off the blocks by a scan
    v, blocks = case
    try:
        expected = _validate_by_pair_set(v, blocks)
    except StsError as error:
        with pytest.raises(type(error)) as raised:
            validate_sts(v, blocks)
        assert type(raised.value) is type(error) and str(raised.value) == str(error)
        return
    system = validate_sts(v, blocks)
    assert (system.v, system.blocks) == expected
    thirds = {(x, y): z for b in system.blocks for x, y, z in permutations(b)}
    assert system.third_table == tuple(
        tuple(thirds.get((x, y), -1) for y in range(v)) for x in range(v))


def test_a_validated_system_carries_its_third_point_table(b1):
    # one table per validated system, filled in the pass that checks the
    # pairs and kept as a field: it is there before any search reads it, and
    # every read and search returns that same table
    systems = [sts_from_json(b1.to_json()), validate_sts(9, AG23_BLOCKS), cyclic_sts13(),
               map_sts(affine_perm(7, 3, 1), b1), validate_sts(1, []), *all_fano_planes()[:3]]
    for system in systems:
        table = vars(system)["third_table"]
        thirds = {(x, y): z for b in system.blocks for x, y, z in permutations(b)}
        assert table == tuple(tuple(thirds.get((x, y), -1) for y in range(system.v))
                              for x in range(system.v))
        assert len(isomorphisms(system, system)) >= 1 and system.third_table is table
