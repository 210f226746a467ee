"""Acceptance gate: every headline claim, one pass/fail line per check.

Each test runs one certificate end to end and prints its verdict, so a
verbose run reads as a checklist of the fourteen machine-verified
theorems.
"""

import pytest

from fano21 import embed, kirkman, octonion, orient, steiner
from fano21.certificates import ALL_CHECKS, run_check
from fano21.perms import Perm, affine_group, affine_perm

CHECK_NAMES = [name for name, _func in ALL_CHECKS]


def test_exactly_fourteen_checks():
    assert len(CHECK_NAMES) == 14


@pytest.mark.parametrize("name", CHECK_NAMES)
def test_certificate(name, capsys):
    report = run_check(name)
    with capsys.disabled():
        print(f"{report.status} {name} [{report.seconds:.3f}s]")
    assert report.status == "PASS", report.witness


@pytest.mark.parametrize("name", ["oracle-agreement", "fano-aut-168"])
def test_certificate_fails_when_a_map_is_dropped(name, monkeypatch):
    search = steiner.isomorphisms
    monkeypatch.setattr(steiner, "isomorphisms", lambda s1, s2: search(s1, s2)[1:])
    report = run_check(name)
    assert report.status == "FAIL"
    if name == "oracle-agreement":
        # the first query is (b1, b2)
        b1, b2 = steiner.fano_b1().to_json(), steiner.fano_b2().to_json()
        assert report.witness == {"s1": b1, "s2": b2, "fast": 167, "slow": 168}
    else:
        first = steiner.all_fano_planes()[0].to_json()
        assert report.witness == {"plane": first, "order": 167}


def test_certificate_fails_without_a_subplane(monkeypatch):
    monkeypatch.setattr(kirkman, "fano_subplanes", lambda system: [])
    report = run_check("sts15-61")
    assert report.status == "FAIL"
    assert report.witness == {"subplane_count": 0}


def test_certificate_fails_when_the_classes_do_not_partition_the_blocks(monkeypatch):
    first = kirkman.parallel_classes(kirkman.sts15_61())[0]
    monkeypatch.setattr(kirkman, "parallel_classes", lambda system: [first] * 7)
    report = run_check("sts15-61")
    assert report.status == "FAIL"
    assert report.witness == {"classes": [first] * 7}


def test_certificate_fails_when_aut_is_not_the_lift_of_the_common_group(monkeypatch):
    # the translations alone lift to 7 automorphisms of #61, not all 21
    monkeypatch.setattr(
        steiner, "common_automorphism_group", lambda s1, s2: affine_group(7, {1})
    )
    report = run_check("sts15-61")
    assert report.status == "FAIL"
    translations = [[(n + b) % 7 for n in range(7)] for b in range(7)]
    assert report.witness == {"lifts": sorted(t + [x + 7 for x in t] + [14] for t in translations)}


def test_certificate_fails_when_an_orientation_is_dropped(monkeypatch):
    search = orient.all_orientations
    monkeypatch.setattr(orient, "all_orientations", lambda plane: search(plane)[1:])
    report = run_check("orientation-bijection-8")
    assert report.status == "FAIL"
    assert report.witness == {"count": 7}


def test_certificate_fails_on_an_invalid_orientation(monkeypatch, b1):
    def reject(plane, arcs):
        raise orient.OrientationError("rejected")

    monkeypatch.setattr(orient, "validate_orientation", reject)
    report = run_check("orientation-bijection-8")
    assert report.status == "FAIL"
    first = orient.all_orientations(b1)[0]
    assert report.witness == {"arcs": sorted(first.arcs), "error": "rejected"}


def test_certificate_fails_on_a_derived_plane_not_orthogonal(monkeypatch, b1):
    third = orient.all_orientations(b1)[2]
    image = orient.derived_plane(third)
    flags = steiner.are_orthogonal
    monkeypatch.setattr(
        steiner, "are_orthogonal",
        lambda s1, s2: {**flags(s1, s2), "orthogonal": False} if s2 == image else flags(s1, s2),
    )
    report = run_check("orientation-bijection-8")
    assert report.status == "FAIL"
    assert report.witness == {"arcs": sorted(third.arcs), "image": image.to_json()}


def test_certificate_fails_when_circuits_induce_another_orientation(monkeypatch, b1, qr):
    # each circuit is sent to the image of its orientation under x -> x + 1,
    # which fixes qr and permutes the other 7: the fibers stay 8 of size 3
    induce, shift = orient.circuit_to_orientation, affine_perm(7, 1, 1)
    monkeypatch.setattr(orient, "circuit_to_orientation", lambda plane, c: orient.OrientedFano(
        plane, frozenset((shift(x), shift(y)) for x, y in induce(plane, c).arcs)))
    report = run_check("fano-circuits-24")
    assert report.status == "FAIL"
    second = orient.all_orientations(b1)[1]
    assert orient.all_orientations(b1)[0] == qr
    assert report.witness == {"arcs": sorted(second.arcs),
                              "circuit": orient.circuits_of_orientation(second)[0].seq}


def test_certificate_fails_when_a_circuit_is_dropped(monkeypatch):
    search = orient.all_circuits
    monkeypatch.setattr(orient, "all_circuits", lambda plane: search(plane)[1:])
    report = run_check("fano-circuits-24")
    assert report.status == "FAIL"
    assert report.witness == {"count": 23}


def test_certificate_fails_when_an_automorphism_is_rejected(monkeypatch):
    check = octonion.is_algebra_automorphism
    monkeypatch.setattr(
        octonion,
        "is_algebra_automorphism",
        lambda sigma, table: sigma != Perm(tuple(range(7))) and check(sigma, table),
    )
    report = run_check("octonion-f21")
    assert report.status == "FAIL"
    assert report.witness == {"automorphisms": 21, "defined": 20}


def test_certificate_fails_when_a_product_is_wrong(monkeypatch):
    product = octonion.multiply

    def plus_one(a, b, table=None):
        real, *imaginary = product(a, b, table).coeffs
        return octonion.Octonion((real + 1, *imaginary))

    monkeypatch.setattr(octonion, "multiply", plus_one)
    report = run_check("octonion-f21")
    assert report.status == "FAIL"
    assert report.witness == {"product": [0, 0]}


def test_certificate_fails_when_a_sign_of_the_table_is_wrong(monkeypatch):
    # e1 e2 = -e4, so e1 (e1 e2) = e2 while (e1 e1) e2 = -e2
    rows = [list(row) for row in octonion.cartan_table()]
    rows[0][1] = (-1, 4)
    monkeypatch.setattr(octonion, "cartan_table", lambda: tuple(map(tuple, rows)))
    report = run_check("octonion-f21")
    assert report.status == "FAIL"
    assert report.witness == {"triple": (1, 1, 2)}


def test_certificate_fails_when_a_mate_is_dropped(monkeypatch):
    mates = steiner.orthogonal_mates
    monkeypatch.setattr(steiner, "orthogonal_mates", lambda plane: mates(plane)[1:])
    report = run_check("mate-count-8")
    assert report.status == "FAIL"
    assert report.witness == {"plane": steiner.all_fano_planes()[0].to_json(), "mates": 7}


def test_certificate_fails_on_a_common_group_of_order_7(monkeypatch):
    monkeypatch.setattr(
        steiner, "common_automorphism_group", lambda s1, s2: affine_group(7, {1})
    )
    report = run_check("orthogonal-aut-order-21")
    assert report.status == "FAIL"
    assert report.witness == {"order": 7}


def test_certificate_fails_on_another_oriented_group(monkeypatch, b1, qr):
    # every orientation is given the group of the quadratic-residue one
    group = orient.oriented_automorphism_group
    monkeypatch.setattr(orient, "oriented_automorphism_group", lambda o: group(qr))
    report = run_check("oriented-aut-equals-common")
    assert report.status == "FAIL"
    first = next(o for o in orient.all_orientations(b1) if o.arcs != qr.arcs)
    assert report.witness == {"arcs": sorted(first.arcs)}


def test_certificate_fails_when_reverse_is_the_identity(monkeypatch, b1):
    monkeypatch.setattr(orient, "reverse", lambda oriented: oriented)
    report = run_check("reverse-involution")
    assert report.status == "FAIL"
    assert report.witness == {"arcs": sorted(orient.all_orientations(b1)[0].arcs)}


def test_certificate_fails_when_a_face_is_dropped(monkeypatch):
    faces = embed.trace_faces
    monkeypatch.setattr(embed, "trace_faces", lambda rotation: faces(rotation)[1:])
    report = run_check("classical-embedding")
    assert report.status == "FAIL"
    assert report.witness == {"face_count": 13}


def test_certificate_fails_with_one_completion(monkeypatch):
    completions = embed.triangular_completions
    monkeypatch.setattr(embed, "triangular_completions", lambda rho0: completions(rho0)[:1])
    report = run_check("triangular-completions-2")
    assert report.status == "FAIL"
    assert report.witness == {"count": 1}


def test_certificate_fails_when_an_affine_map_reverses(monkeypatch):
    monkeypatch.setattr(embed, "isomorphism_flag", lambda sigma, r1, r2: embed.REVERSING)
    report = run_check("affine-maps-preserve-rotation")
    assert report.status == "FAIL"
    assert report.witness == {"map": "x -> 1x+0"}


def test_certificate_fails_when_sts13_is_not_orthogonal(monkeypatch):
    flags = steiner.are_orthogonal
    monkeypatch.setattr(
        steiner, "are_orthogonal", lambda s1, s2: {**flags(s1, s2), "orthogonal": False}
    )
    report = run_check("sts13-orthogonal-39")
    assert report.status == "FAIL"
    assert report.witness == {"flags": {"disjoint": True, "orthogonal": False}}
