"""Acceptance gate: every headline claim, one pass/fail line per check.

Each test runs one certificate end to end and prints its verdict, so a
verbose run reads as a checklist of the fourteen machine-verified
theorems.
"""

import pytest

from fano21 import kirkman, octonion, orient, steiner
from fano21.certificates import ALL_CHECKS, run_check
from fano21.perms import identity

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
        # the first query is (b1, b1)
        b1 = steiner.fano_b1().to_json()
        assert report.witness == {"s1": b1, "s2": b1, "fast": 167, "slow": 168}
    else:
        first = steiner.all_fano_planes()[0].to_json()
        assert report.witness == {"plane": first, "order": 167}


def test_certificate_fails_without_a_subplane(monkeypatch):
    monkeypatch.setattr(kirkman, "fano_subplanes", lambda system: [])
    report = run_check("sts15-61")
    assert report.status == "FAIL"
    assert report.witness == {"subplane_count": 0}


def test_certificate_fails_when_an_orientation_is_dropped(monkeypatch):
    search = orient.all_orientations
    monkeypatch.setattr(orient, "all_orientations", lambda plane: search(plane)[1:])
    report = run_check("orientation-bijection-8")
    assert report.status == "FAIL"
    assert report.witness == {"count": 7}


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
        lambda sigma, table=None: sigma != identity(7) and check(sigma, table),
    )
    report = run_check("octonion-f21")
    assert report.status == "FAIL"
    assert report.witness == {"automorphisms": 20}
