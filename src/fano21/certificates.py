"""Machine checks for every theorem-level claim the library covers.

Each certificate re-derives one result by exhaustive computation and
returns a report with witness data; a failing check carries a minimal
counterexample payload.  ``run_all`` drives the CLI ``verify-all``
command and mirrors the acceptance suite.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from itertools import product
from random import Random

from . import embed, kirkman, octonion, orient, steiner
from .perms import Perm, affine_group, affine_perm, classify_order21


@dataclass
class CertificateReport:
    name: str
    status: str  # "PASS" | "FAIL" | "ERROR"
    witness: dict = field(default_factory=dict)
    seconds: float = 0.0

    def to_json(self) -> dict:
        return {"name": self.name, "status": self.status, "witness": self.witness,
                "seconds": round(self.seconds, 4)}


class CheckFailure(Exception):
    def __init__(self, payload: dict):
        self.payload = payload
        super().__init__(str(payload))


def _require(condition: bool, **payload) -> None:
    if not condition:
        raise CheckFailure(payload)


def check_mate_count() -> dict:
    planes = steiner.all_fano_planes()
    _require(len(planes) == 30, plane_count=len(planes))
    mates_of = {p.blocks: steiner.orthogonal_mates(p) for p in planes}
    for p in planes:
        _require(len(mates_of[p.blocks]) == 8, plane=p.to_json(),
                 mates=len(mates_of[p.blocks]))
        for m in mates_of[p.blocks]:
            _require(
                any(q.blocks == p.blocks for q in mates_of[m.blocks]),
                asymmetric_pair=[p.to_json(), m.to_json()],
            )
    return {"planes": 30, "mates_each": 8}


def check_orthogonal_aut() -> dict:
    b1, b2 = steiner.fano_b1(), steiner.fano_b2()
    group = steiner.common_automorphism_group(b1, b2)
    _require(group.order == 21, order=group.order)
    _require(not group.is_abelian(), abelian=True)
    _require(classify_order21(group) == "Frobenius21", tag=classify_order21(group))
    affine = affine_group(7, {1, 2, 4})
    _require(group.elements == affine.elements,
             group=[p.to_json() for p in group],
             affine=[p.to_json() for p in affine])
    return {"order": 21, "classification": "Frobenius21", "equals_affine_7_124": True}


def check_fano_aut_168() -> dict:
    for p in steiner.all_fano_planes():
        autos = steiner.isomorphisms(p, p)
        _require(len(autos) == 168, plane=p.to_json(), order=len(autos))
    _require(168 * 30 == 5040)
    return {"aut_order": 168, "planes": 30, "product": 5040}


def check_orientation_bijection() -> dict:
    b1 = steiner.fano_b1()
    orientations = orient.all_orientations(b1)
    _require(len(orientations) == 8, count=len(orientations))
    for o in orientations:
        try:
            orient.validate_orientation(b1, o.arcs)
        except orient.OrientationError as exc:
            _require(False, arcs=sorted(o.arcs), error=str(exc))
    mates = steiner.orthogonal_mates(b1)
    images = [orient.derived_plane(o) for o in orientations]
    _require(
        sorted(s.blocks for s in images) == sorted(s.blocks for s in mates),
        images=[s.to_json() for s in images],
    )
    _require(len({s.blocks for s in images}) == 8, injective=False)
    for o, s in zip(orientations, images):
        _require(steiner.are_orthogonal(b1, s)["orthogonal"],
                 arcs=sorted(o.arcs), image=s.to_json())
        back = orient.orientation_from_mate(b1, s)
        _require(back.arcs == o.arcs, arcs=sorted(o.arcs))
    for s in mates:
        o = orient.orientation_from_mate(b1, s)
        _require(orient.derived_plane(o) == s, mate=s.to_json())
    return {"orientations": 8, "bijection_onto_mates": True}


def check_oriented_aut() -> dict:
    b1 = steiner.fano_b1()
    for o in orient.all_orientations(b1):
        group = orient.oriented_automorphism_group(o)
        common = steiner.common_automorphism_group(b1, orient.derived_plane(o))
        _require(group.order == 21, order=group.order, arcs=sorted(o.arcs))
        _require(group.elements == common.elements, arcs=sorted(o.arcs))
        _require(classify_order21(group) == "Frobenius21")
    return {"orientations": 8, "order": 21, "equals_common_aut": True}


def check_reverse_involution() -> dict:
    b1 = steiner.fano_b1()
    for o in orient.all_orientations(b1):
        rev = orient.reverse(o)
        _require(rev.plane == orient.derived_plane(o), arcs=sorted(o.arcs))
        _require(orient.derived_plane(rev) == o.plane, arcs=sorted(o.arcs))
        back = orient.reverse(rev)
        _require(back.plane == o.plane and back.arcs == o.arcs,
                 arcs=sorted(o.arcs))
    return {"orientations": 8, "carrier_involution": True}


def check_circuits() -> dict:
    b1 = steiner.fano_b1()
    circuits = orient.all_circuits(b1)
    _require(len(circuits) == 24, count=len(circuits))
    fibers: dict[tuple, list] = {}
    for c in circuits:
        o = orient.circuit_to_orientation(b1, c)
        fibers.setdefault(tuple(sorted(o.arcs)), []).append(c.seq)
    _require(len(fibers) == 8, fiber_count=len(fibers))
    _require(all(len(v) == 3 for v in fibers.values()),
             fiber_sizes=[[list(k), len(v)] for k, v in fibers.items()])
    ring = orient.validate_circuit(b1, (0, 1, 2, 3, 4, 5, 6))
    induced = orient.circuit_to_orientation(b1, ring)
    _require(induced.arcs == orient.qr_orientation().arcs,
             induced=sorted(induced.arcs))
    for o in orient.all_orientations(b1):
        three = orient.circuits_of_orientation(o)
        _require(len(three) == 3, arcs=sorted(o.arcs), circuits=len(three))
        for c in three:
            _require(orient.circuit_to_orientation(b1, c).arcs == o.arcs,
                     arcs=sorted(o.arcs), circuit=c.seq)
    return {"circuits": 24, "fibers": 8, "fiber_size": 3}


def check_classical_embedding() -> dict:
    rot = embed.classical_rotation()
    faces = embed.trace_faces(rot)
    _require(len(faces) == 14, face_count=len(faces))
    _require(all(len(f) == 3 for f in faces),
             lengths=sorted(len(f) for f in faces))
    b1, b2 = steiner.fano_b1(), steiner.fano_b2()
    face_sets = sorted(f.vertex_set() for f in faces)
    _require(face_sets == sorted(b1.blocks + b2.blocks), faces=face_sets)
    _require(embed.euler_characteristic(rot) == 0,
             chi=embed.euler_characteristic(rot))
    coloring = embed.two_coloring(rot)
    _require(coloring.class_a_sets() == list(b1.blocks),
             class_a=coloring.class_a_sets())
    _require(coloring.class_b_sets() == list(b2.blocks),
             class_b=coloring.class_b_sets())
    group = embed.color_automorphism_group(rot)
    _require(group.order == 21, order=group.order)
    _require(classify_order21(group) == "Frobenius21")
    common = steiner.common_automorphism_group(b1, b2)
    _require(group.elements == common.elements)
    return {"faces": 14, "chi": 0, "color_aut_order": 21}


def check_triangular_completions() -> dict:
    completions = embed.triangular_completions((1, 5, 4, 6, 2, 3))
    _require(len(completions) == 2, count=len(completions))
    classical = embed.classical_rotation()
    matches = [r for r in completions if r.succ == classical.succ]
    _require(len(matches) == 1, classical_found=len(matches))
    (other,) = [r for r in completions if r.succ != classical.succ]
    swap = Perm((0, 1, 4, 5, 2, 3, 6))  # (2 4)(3 5)
    _require(embed.isomorphism_flag(swap, other, classical) == embed.REVERSING,
             witness=swap.cycle_string())
    rng = Random(7)
    for _ in range(50):
        images = list(range(7))
        rng.shuffle(images)
        sigma = Perm(tuple(images))
        cycles = {sigma(x): [sigma(y) for y in classical.cycle_at(x)] for x in range(7)}
        relabeled = embed.validate_rotation(7, cycles)
        witness, flag = embed.classify_triangular(relabeled)
        _require(embed.isomorphism_flag(witness, relabeled, classical) == flag,
                 relabeling=sigma.to_json())
    return {"completions": 2, "reversing_witness": "(2 4)(3 5)",
            "random_relabelings": 50}


def check_affine_preserving() -> dict:
    rot = embed.classical_rotation()
    count = 0
    for a in (1, 2, 4):
        for b in range(7):
            sigma = affine_perm(7, a, b)
            _require(embed.isomorphism_flag(sigma, rot, rot) == embed.PRESERVING,
                     map=f"x -> {a}x+{b}")
            count += 1
    return {"affine_maps_checked": count}


def check_sts15_61() -> dict:
    sts = kirkman.sts15_61()
    _require(len(sts.blocks) == 35, blocks=len(sts.blocks))
    planes = kirkman.fano_subplanes(sts)
    _require(len(planes) == 1, subplane_count=len(planes))
    pts, inner = planes[0]
    _require(pts == tuple(range(7)), points=pts)
    _require(inner == steiner.fano_b1(), inner=inner.to_json())
    classes = kirkman.parallel_classes(sts)
    _require(len(classes) == 7, class_count=len(classes))
    _require(sorted(b for cls in classes for b in cls) == list(sts.blocks), classes=classes)
    group = kirkman.sts_automorphism_group15(sts)
    _require(group.order == 21, order=group.order)
    _require(classify_order21(group) == "Frobenius21")
    # Aut is the lift of the pair's common group: sigma on 0..6, n' -> sigma(n)'
    # and inf fixed; a v = 7 search with the mate against the v = 15 search
    common = steiner.common_automorphism_group(steiner.fano_b1(), steiner.fano_b2())
    lifts = sorted(Perm(sigma.images + tuple(n + 7 for n in sigma.images) + (kirkman.INFINITY,))
                   for sigma in common)
    _require(list(group.elements) == lifts, lifts=[p.to_json() for p in lifts])
    kts = kirkman.kts_automorphism_group(sts, classes)
    _require(kts.elements == group.elements, kts_order=kts.order)
    return {"blocks": 35, "fano_subplanes": 1, "parallel_classes": 7,
            "aut_order": 21, "kts_aut_order": kts.order}


def check_sts13() -> dict:
    sts = steiner.cyclic_sts13()
    neg = steiner.negate_sts(sts)
    flags = steiner.are_orthogonal(sts, neg)
    _require(flags["orthogonal"], flags=flags)
    group = steiner.common_automorphism_group(sts, neg)
    _require(group.order == 39, order=group.order)
    affine = affine_group(13, {1, 3, 9})
    _require(group.elements == affine.elements)
    full = steiner.automorphism_group(sts)
    _require(group.elements == full.elements, full_order=full.order)
    return {"order": 39, "equals_affine_13_139": True}


def check_octonions() -> dict:
    table = octonion.cartan_table()
    _require(octonion.basis_product(1, 2) == (1, 4))
    _require(octonion.basis_product(2, 1) == (-1, 4))
    for i in range(1, 8):
        _require(table[i - 1][i - 1] == (-1, 0), unit=i)
    # multiply is bilinear, so agreeing with the table on the basis makes it
    # the table's bilinear extension, and the laws proved on the basis hold
    basis = [octonion.Octonion(tuple(int(k == i) for k in range(8))) for i in range(8)]
    units = octonion.unit_table(table)
    for a, b in product(range(8), repeat=2):
        sign, k = units[a][b]
        _require(octonion.multiply(basis[a], basis[b], table).coeffs
                 == tuple(sign * (i == k) for i in range(8)), product=[a, b])
    triple = octonion.alternative_law_failure(table)
    _require(triple is None, triple=triple)
    quadruple = octonion.composition_law_failure(table)
    _require(quadruple is None, quadruple=quadruple)
    # both groups are one kernel search with the same arcs, so the definition
    # filter over the 168 collineations is the independent computation
    qr = orient.qr_orientation()
    defined = [p for p in steiner.automorphism_group(qr.plane)
               if octonion.is_algebra_automorphism(p, table)]
    autos = octonion.algebra_automorphism_perms(table)
    _require(len(autos) == 21, automorphisms=len(autos))
    _require(autos == defined, automorphisms=len(autos), defined=len(defined))
    _require(orient.oriented_automorphism_group(qr).elements == tuple(defined))
    return {"automorphisms": 21, "basis_triples": 512, "basis_quadruples": 4096}


def check_oracle_agreement() -> dict:
    b1, b2 = steiner.fano_b1(), steiner.fano_b2()
    # b1 and b2 are among the 30 labelled planes, which query (b1, b1) and (b2, b2)
    queries = [(b1, b2), (b2, b1)] + [(p, p) for p in steiner.all_fano_planes()]
    for s1, s2 in queries:
        fast = steiner.isomorphisms(s1, s2)
        slow = steiner.isomorphisms_bruteforce(s1, s2)
        _require(fast == slow, s1=s1.to_json(), s2=s2.to_json(),
                 fast=len(fast), slow=len(slow))
    return {"queries": len(queries)}


ALL_CHECKS = [
    ("mate-count-8", check_mate_count),
    ("orthogonal-aut-order-21", check_orthogonal_aut),
    ("fano-aut-168", check_fano_aut_168),
    ("orientation-bijection-8", check_orientation_bijection),
    ("oriented-aut-equals-common", check_oriented_aut),
    ("reverse-involution", check_reverse_involution),
    ("fano-circuits-24", check_circuits),
    ("classical-embedding", check_classical_embedding),
    ("triangular-completions-2", check_triangular_completions),
    ("affine-maps-preserve-rotation", check_affine_preserving),
    ("sts15-61", check_sts15_61),
    ("sts13-orthogonal-39", check_sts13),
    ("octonion-f21", check_octonions),
    ("oracle-agreement", check_oracle_agreement),
]


def run_check(name: str) -> CertificateReport:
    func = dict(ALL_CHECKS)[name]
    start = time.perf_counter()
    try:
        witness = func()
        status = "PASS"
    except CheckFailure as exc:
        witness = exc.payload
        status = "FAIL"
    except Exception as exc:  # a crashing check is reported, not fatal
        witness = {"error": type(exc).__name__, "message": str(exc)}
        status = "ERROR"
    return CertificateReport(name, status, witness, time.perf_counter() - start)


def run_all() -> list[CertificateReport]:
    return [run_check(name) for name, _func in ALL_CHECKS]
