import json
import re
from itertools import permutations, product

import pytest
from hypothesis import given, settings, strategies as st

from fano21.cli import main
from fano21.perms import Perm, affine_perm, group_from_elements, identity
from fano21.steiner import (
    StsError,
    common_automorphism_group,
    cyclic_sts13,
    isomorphisms,
    map_sts,
    negate_sts,
    orthogonal_mates,
    validate_sts,
)
from fano21.orient import (
    BlockNotCovered,
    BlockNotCyclic,
    CircuitError,
    OrientationError,
    OutNeighborsNotBlock,
    RepeatedPoint,
    all_circuits,
    all_orientations,
    canonical_circuit,
    circuit_to_orientation,
    circuits_of_orientation,
    derived_plane,
    map_orientation,
    orientation_from_mate,
    oriented_automorphism_group,
    reverse,
    validate_circuit,
    validate_orientation,
)

QR_ARCS = [(x, (x + d) % 7) for x in range(7) for d in (1, 2, 4)]


def all_orientations_by_sweep(plane):
    """Oracle for ``all_orientations``: the 128 choices of a 3-cycle
    direction per block, filtered by ``validate_orientation``."""
    found = []
    for signs in product((False, True), repeat=7):
        arcs = []
        for (a, b, c), flip in zip(plane.blocks, signs):
            arcs += [(a, c), (c, b), (b, a)] if flip else [(a, b), (b, c), (c, a)]
        try:
            found.append(validate_orientation(plane, arcs))
        except OrientationError:
            continue
    return sorted(found, key=lambda o: o.sorted_arcs())


def all_circuits_by_sweep(plane):
    """Oracle for ``all_circuits``: the 720 sequences starting at 0,
    filtered by ``validate_circuit`` and deduplicated."""
    found = {}
    for rest in permutations(range(1, 7)):
        try:
            circuit = validate_circuit(plane, (0,) + rest)
        except CircuitError:
            continue
        found[circuit.seq] = circuit
    return [found[seq] for seq in sorted(found)]


def test_validate_orientation_qr(b1):
    o = validate_orientation(b1, QR_ARCS)
    assert o.out_neighbors(0) == (1, 2, 4)


def test_validate_orientation_flipped_arc(b1):
    arcs = [(a, b) for (a, b) in QR_ARCS if (a, b) != (0, 1)] + [(1, 0)]
    with pytest.raises(BlockNotCyclic) as exc:
        validate_orientation(b1, arcs)
    assert exc.value.block == (0, 1, 3)


def test_validate_orientation_out_closure(b1):
    # reversing a single block's 3-cycle keeps the tournament and
    # block-cyclicity but breaks out-closure
    flipped = {(0, 1): (1, 0), (1, 3): (3, 1), (3, 0): (0, 3)}
    arcs = [flipped.get(a, a) for a in QR_ARCS]
    with pytest.raises(OutNeighborsNotBlock):
        validate_orientation(b1, arcs)


def test_validate_orientation_not_tournament(b1):
    from fano21.orient import NotTournament

    with pytest.raises(NotTournament):
        validate_orientation(b1, QR_ARCS + [(1, 0)])


def test_block_cyclic_assignments_with_out_closure(b1):
    # of the 128 per-block 3-cycle choices, exactly 8 are orientations
    assert len(all_orientations_by_sweep(b1)) == 8


def test_qr_orientation_matches_example(qr):
    assert qr.out_neighbors(0) == (1, 2, 4)
    assert {(2, 3), (3, 5), (5, 2)} <= qr.arcs
    assert qr.arcs == frozenset(QR_ARCS)


def test_derived_plane_is_b2(qr, b2):
    assert derived_plane(qr) == b2


def test_derived_plane_in_neighbors(qr):
    assert qr.in_neighbors(0) == (3, 5, 6)


def test_derived_plane_lettered_example():
    # plane abc, ade, afg, bdf, beg, cdg, cef with a..g as 0..6 and the
    # orientation a->b->c->a, a->d->e->a, a->f->g->a, d->c->g->d,
    # c->f->e->c, f->b->d->f, g->e->b->g
    plane = validate_sts(
        7,
        [(0, 1, 2), (0, 3, 4), (0, 5, 6), (1, 3, 5), (1, 4, 6), (2, 3, 6), (2, 4, 5)],
    )
    arcs = []
    for cyc in [(0, 1, 2), (0, 3, 4), (0, 5, 6), (3, 2, 6), (2, 5, 4), (5, 1, 3), (6, 4, 1)]:
        a, b, c = cyc
        arcs += [(a, b), (b, c), (c, a)]
    o = validate_orientation(plane, arcs)
    # B-> = {ceg, aef, bde, abg, dfg, acd, bcf}
    expected = validate_sts(
        7,
        [(2, 4, 6), (0, 4, 5), (1, 3, 4), (0, 1, 6), (3, 5, 6), (0, 2, 3), (1, 2, 5)],
    )
    assert derived_plane(o) == expected


def test_orientation_from_mate_partitions_each_point(b1, b2):
    o = orientation_from_mate(b1, b2)
    assert (o.out_neighbors(0), o.in_neighbors(0)) == ((1, 2, 4), (3, 5, 6))
    for v in range(7):
        outs, ins = o.out_neighbors(v), o.in_neighbors(v)
        assert sorted((v, *outs, *ins)) == list(range(7))
        assert outs in b1.block_set() and ins in b2.block_set()


def test_orientation_from_mate_requires_orthogonality(b1):
    with pytest.raises(StsError, match="^inputs are not orthogonal Fano planes$"):
        orientation_from_mate(b1, b1)
    sts = cyclic_sts13()
    with pytest.raises(StsError, match="defined for v=7, got v=13"):
        orientation_from_mate(sts, negate_sts(sts))


def test_orientation_from_mate_round_trips(b1, b2, qr, all_planes):
    assert orientation_from_mate(b1, b2).arcs == qr.arcs
    for s in orthogonal_mates(b1):
        o = orientation_from_mate(b1, s)
        assert derived_plane(o) == s
    for plane in all_planes:
        for o in all_orientations(plane):
            assert orientation_from_mate(plane, derived_plane(o)) == o


def test_all_orientations(b1, qr):
    orientations = all_orientations(b1)
    assert len(orientations) == 8
    assert qr.arcs in [o.arcs for o in orientations]
    images = sorted(derived_plane(o).blocks for o in orientations)
    assert images == sorted(s.blocks for s in orthogonal_mates(b1))


def test_map_orientation(qr):
    lam2 = affine_perm(7, 2, 0)
    tau1 = affine_perm(7, 1, 1)
    assert map_orientation(lam2, qr).arcs == qr.arcs
    assert map_orientation(tau1, qr).arcs == qr.arcs
    assert map_orientation(identity(7), qr).arcs == qr.arcs


def test_map_orientation_requires_automorphism(qr):
    with pytest.raises(Exception):
        map_orientation(affine_perm(7, 3, 0), qr)


def test_map_orientation_equivariance(b1):
    for o in all_orientations(b1):
        for sigma in isomorphisms(b1, b1)[:20]:
            assert derived_plane(map_orientation(sigma, o)) == map_sts(
                sigma, derived_plane(o)
            )


def test_oriented_automorphism_group(b1, qr):
    g = oriented_automorphism_group(qr)
    assert g.order == 21
    assert g.elements == common_automorphism_group(b1, derived_plane(qr)).elements
    for o in all_orientations(b1):
        go = oriented_automorphism_group(o)
        assert go.order == 21
        assert go.elements == common_automorphism_group(b1, derived_plane(o)).elements


def test_every_pair_and_orientation_has_a_group_of_order_21(all_planes):
    # 30 planes x 8 mates and their 240 orientations, each group equal to
    # the filtered isomorphisms, proved a group by the oracle
    for plane in all_planes:
        aut = isomorphisms(plane, plane)
        for mate in orthogonal_mates(plane):
            common = common_automorphism_group(plane, mate)
            keep = [p for p in aut
                    if {tuple(sorted(map(p, b))) for b in mate.blocks} == mate.block_set()]
            assert common.order == 21
            assert common.elements == group_from_elements(7, keep).elements
        for o in all_orientations(plane):
            group = oriented_automorphism_group(o)
            keep = [p for p in aut if {(p(x), p(y)) for x, y in o.arcs} == o.arcs]
            assert group.order == 21
            assert group.elements == group_from_elements(7, keep).elements


def test_reverse(b1, b2, qr):
    rev = reverse(qr)
    assert rev.plane == b2
    assert reverse(rev).plane == b1
    assert reverse(rev).arcs == qr.arcs
    # the reversed arcs are not an orientation of the original plane
    with pytest.raises(OrientationError):
        validate_orientation(b1, rev.arcs)


def test_cyclic_on_derived_only(b1, qr):
    # the arcs induce 3-cycles on the blocks of the derived plane, and on
    # no other mate
    def cyclic_on(plane):
        for (a, b, c) in plane.blocks:
            fwd = {(a, b), (b, c), (c, a)}
            bwd = {(b, a), (c, b), (a, c)}
            if not (fwd <= qr.arcs or bwd <= qr.arcs):
                return False
        return True

    derived = derived_plane(qr)
    for mate in orthogonal_mates(b1):
        assert cyclic_on(mate) == (mate == derived)


def test_validate_circuit(b1):
    c = validate_circuit(b1, (0, 1, 2, 3, 4, 5, 6))
    assert c.seq == (0, 1, 2, 3, 4, 5, 6)
    with pytest.raises(BlockNotCovered):
        validate_circuit(b1, (0, 1, 3, 2, 4, 5, 6))
    with pytest.raises(RepeatedPoint):
        validate_circuit(b1, (0, 1, 2, 3, 4, 5, 5))


def test_canonical_circuit_reversal():
    assert canonical_circuit((1, 2, 3, 4, 5, 6, 0)) == (0, 1, 2, 3, 4, 5, 6)
    assert canonical_circuit((6, 5, 4, 3, 2, 1, 0)) == (0, 1, 2, 3, 4, 5, 6)


def test_circuit_to_orientation_ring(b1, qr):
    ring = validate_circuit(b1, (0, 1, 2, 3, 4, 5, 6))
    assert circuit_to_orientation(b1, ring).arcs == qr.arcs


def test_all_circuits(b1):
    circuits = all_circuits(b1)
    assert len(circuits) == 24
    for c in circuits:
        assert validate_circuit(b1, c.seq).seq == c.seq
    fibers = {}
    for c in circuits:
        arcs = tuple(sorted(circuit_to_orientation(b1, c).arcs))
        fibers.setdefault(arcs, []).append(c)
    assert sorted(len(v) for v in fibers.values()) == [3] * 8


def test_circuit_window_not_a_block(b1):
    for c in all_circuits(b1):
        o = circuit_to_orientation(b1, c)
        blocked = derived_plane(o).block_set() | b1.block_set()
        seq = c.seq
        for i in range(7):
            window = tuple(sorted((seq[i], seq[(i + 1) % 7], seq[(i + 2) % 7])))
            assert window not in blocked


def test_circuits_of_orientation(b1, qr, all_planes):
    three = circuits_of_orientation(qr)
    assert len(three) == 3
    assert (0, 1, 2, 3, 4, 5, 6) in [c.seq for c in three]
    for c in three:
        assert circuit_to_orientation(b1, c).arcs == qr.arcs
    for plane in all_planes:
        circuits = all_circuits(plane)
        for o in all_orientations(plane):
            induced = [c for c in circuits if circuit_to_orientation(plane, c) == o]
            assert circuits_of_orientation(o) == induced


def test_three_block_determination_oracle(b1):
    # fixing 3-cycle directions on three well-chosen blocks determines
    # the orientation: each of the 8 sign patterns on those blocks is hit
    # by exactly one orientation
    orientations = all_orientations(b1)
    probe = [(0, 1, 3), (0, 2, 6), (2, 3, 5)]

    def signature(o):
        sig = []
        for (a, b, c) in probe:
            sig.append((a, b) in o.arcs)
        return tuple(sig)

    signatures = [signature(o) for o in orientations]
    assert len(set(signatures)) == 8


def test_orientation_json_round_trip(b1, qr):
    data = qr.to_json()
    assert data["points"] == 7 and len(data["arcs"]) == 21
    assert validate_orientation(b1, [tuple(a) for a in data["arcs"]]).arcs == qr.arcs


def test_enumerations_match_sweeps_on_all_planes(all_planes):
    for plane in all_planes:
        assert all_orientations(plane) == all_orientations_by_sweep(plane)
        assert all_circuits(plane) == all_circuits_by_sweep(plane)


@settings(max_examples=10, deadline=None)
@given(st.permutations(range(7)))
def test_enumerations_match_sweeps_on_relabellings(b1, images):
    plane = map_sts(Perm(tuple(images)), b1)
    assert all_orientations(plane) == all_orientations_by_sweep(plane)
    assert all_circuits(plane) == all_circuits_by_sweep(plane)


# Each orientation as the out-neighbors of 0..6, in output order.
PINNED_ORIENTATIONS = {
    "b1": [
        "124 235 346 045 156 026 013",
        "124 346 156 026 235 013 045",
        "156 235 045 026 013 346 124",
        "156 346 013 045 026 124 235",
        "235 026 346 156 013 124 045",
        "235 045 156 124 026 346 013",
        "346 026 045 124 156 013 235",
        "346 045 013 156 235 026 124",
    ],
    "b2": [
        "126 245 356 015 023 046 134",
        "126 356 134 046 015 023 245",
        "134 245 046 126 356 023 015",
        "134 356 015 245 126 046 023",
        "245 023 356 046 126 134 015",
        "245 046 134 015 356 126 023",
        "356 023 046 245 015 126 134",
        "356 046 015 126 023 134 245",
    ],
}
PINNED_CIRCUITS = {
    "b1": "0123456 0126534 0143265 0145632 0153624 0154236 0162435 0163542 "
          "0213564 0216453 0231465 0246135 0254163 0256314 0321546 0326415 "
          "0341625 0345216 0351264 0362514 0425136 0431256 0513246 0524316",
    "b2": "0123456 0125643 0132654 0135462 0145326 0146253 0164352 0165234 "
          "0213645 0215436 0243516 0246135 0251634 0263154 0312465 0315624 "
          "0342156 0351426 0362514 0364125 0416325 0423165 0532416 0541236",
}


@pytest.mark.parametrize("builtin", ["b1", "b2"])
def test_enumerate_output_is_pinned(builtin, capsys):
    orientations = [
        {"points": 7, "arcs": [[x, int(y)] for x, outs in enumerate(o.split()) for y in outs]}
        for o in PINNED_ORIENTATIONS[builtin]
    ]
    circuits = [[int(x) for x in c] for c in PINNED_CIRCUITS[builtin].split()]
    for kind, items in (("orientations", orientations), ("circuits", circuits)):
        code = main(["enumerate", kind, "--builtin", builtin, "--format", "json"])
        assert code == 0
        assert capsys.readouterr().out == json.dumps(items, indent=2) + "\n"


@pytest.mark.parametrize("bad", [0.5, 1.0, True, "1", -1, 7])
def test_validate_orientation_rejects_bad_points(b1, bad):
    arcs = [(bad, 1) if arc == (0, 1) else arc for arc in QR_ARCS]
    with pytest.raises(OrientationError, match=f"arc point {bad!r} is not"):
        validate_orientation(b1, arcs)


@pytest.mark.parametrize("bad", [(0, 1, 0), 5, (0,)])
def test_validate_orientation_rejects_malformed_arcs(b1, bad):
    with pytest.raises(OrientationError, match=re.escape(f"arc {bad!r} is not a pair")):
        validate_orientation(b1, QR_ARCS[:-1] + [bad])


def test_validate_orientation_rejects_a_stray_arc(b1):
    # the axioms look only at pairs in 0..6, so only the point check sees (0, 7)
    with pytest.raises(OrientationError, match="arc point 7 is not"):
        validate_orientation(b1, QR_ARCS + [(0, 7)])


@pytest.mark.parametrize("bad", [1.7, 1.0, True, "1", -1, 7])
def test_validate_circuit_rejects_bad_points(b1, bad):
    with pytest.raises(CircuitError, match=f"point {bad!r} is not"):
        validate_circuit(b1, (0, bad, 2, 3, 4, 5, 6))
