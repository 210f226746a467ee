import io
import json
import math
import os
import re
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

import fano21
from fano21 import certificates, cli, orient, perms, steiner
from fano21.cli import (AUT_LIST_LIMIT, BUILTIN_DESIGNS, BUILTIN_ROTATIONS, _image_rows, _indented,
                        build_parser, main)
from fano21.embed import classical_rotation
from fano21.kirkman import sts15_61
from fano21.perms import Perm
from fano21.steiner import fano_b1


CLASSICAL_CYCLES = {
    "0": [1, 5, 4, 6, 2, 3], "1": [2, 6, 5, 0, 3, 4],
    "2": [3, 0, 6, 1, 4, 5], "3": [4, 1, 0, 2, 5, 6],
    "4": [5, 2, 1, 3, 6, 0], "5": [6, 3, 2, 4, 0, 1],
    "6": [0, 4, 3, 5, 1, 2],
}


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_verify_all_text(capsys):
    code, out, err = run(capsys, "verify-all")
    assert code == 0
    lines = [l for l in out.splitlines() if l]
    assert len(lines) == 14
    assert all(l.startswith("PASS ") for l in lines)


def test_verify_all_json_matches_golden_file(capsys):
    # every witness payload is pinned; only the timings are masked
    code, out, _ = run(capsys, "verify-all", "--format", "json")
    assert code == 0
    masked = re.sub(r'"seconds": [0-9.e-]+', '"seconds": "masked"', out)
    assert masked == (Path(__file__).parent / "verify_all.golden.json").read_text()


GOLDEN = Path(__file__).parent / "cli.golden.json"


def golden_runs(directory):
    """{command line: [exit code, stdout, stderr]} for every subcommand on
    every builtin in both formats, faces --dot, and one design file and one
    rotation file, written to directory; timings are masked."""
    design, rotation = Path(directory) / "design.json", Path(directory) / "rotation.json"
    sigma = [3, 6, 0, 5, 1, 4, 2]
    design.write_text(json.dumps({"v": 7, "blocks": [
        [sigma[x] for x in b] for b in fano_b1().blocks]}))
    rotation.write_text(json.dumps({"n": 7, "rotation": {
        str(sigma[int(x)]): [sigma[y] for y in cycle] for x, cycle in CLASSICAL_CYCLES.items()}}))
    calls = [["verify-all"], ["octonion-table"]]
    for builtin in BUILTIN_DESIGNS:
        calls.append(["aut", "--builtin", builtin])
        for kind in ("mates", "orientations", "circuits", "parallel-classes"):
            calls.append(["enumerate", kind, "--builtin", builtin])
    for builtin in BUILTIN_ROTATIONS:
        calls += [["faces", "--builtin", builtin], ["classify", "--builtin", builtin]]
    calls = [argv + fmt for argv in calls for fmt in ([], ["--format", "json"])]
    calls += [["faces", "--builtin", "classical-rotation", "--dot"],
              ["enumerate", "orientations", "--design", str(design)],
              ["classify", "--rotation", str(rotation)]]
    runs = {}
    for argv in calls:
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
        text = re.sub(r"\[[0-9.]+s\]", "[masked]", out.getvalue())
        text = re.sub(r'"seconds": [0-9.e-]+', '"seconds": "masked"', text)
        key = " ".join(argv).replace(str(design), "DESIGN").replace(str(rotation), "ROTATION")
        runs[key] = [code, text, err.getvalue()]
    return runs


def test_cli_output_matches_golden_file(tmp_path):
    # regenerate with: PYTHONPATH=src python tests/test_cli.py
    runs = golden_runs(tmp_path)
    expected = json.loads(GOLDEN.read_text())
    assert list(runs) == list(expected)
    for key, run_ in runs.items():
        assert run_ == expected[key], key


def test_verify_all_json(capsys):
    code, out, _ = run(capsys, "verify-all", "--format", "json")
    assert code == 0
    reports = json.loads(out)
    assert len(reports) == 14
    assert {r["status"] for r in reports} == {"PASS"}
    names = [r["name"] for r in reports]
    assert "mate-count-8" in names and "oracle-agreement" in names


# JSON values with str keys, weighted towards what the writer treats
# apart: lists of ints, rows of ints of one width (lists and tuples), short
# rows of ints and bools of mixed widths, bools among ints, floats the C
# encoder spells out, escaped text and empty containers
_INTS = st.integers() | st.integers(min_value=2 ** 64) | st.integers(max_value=-2 ** 64)


def _rows(width):
    row = st.lists(_INTS, min_size=width, max_size=width)
    return st.lists(row | row.map(tuple))


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | _INTS | st.floats()
    | st.sampled_from([math.nan, math.inf, -math.inf, -0.0]) | st.text()
    | st.text(alphabet='"\\/\x00\x08\x1f\x7f\u00e9\u2028\u2603\U0001f600'),
    lambda inner: st.lists(inner) | st.lists(inner).map(tuple)
    | st.lists(st.integers() | st.booleans()) | st.integers(0, 3).flatmap(_rows)
    | st.lists(st.lists(st.integers() | st.booleans(), max_size=2))
    | st.dictionaries(st.text(), inner),
)


@settings(max_examples=300, deadline=None)
@given(value=_JSON_VALUES)
def test_writer_prints_the_bytes_of_the_stdlib_encoder(value):
    assert _indented(value) == json.dumps(value, indent=2)


@pytest.mark.parametrize("value", [
    [[1, 2, 3], [4, 5, 6]],
    [(1, 2), (3, 4), (5, 6)],
    [(1, 2), [3, 4]],
    [[1, True], [2, 3]],
    [[1, 2], [3, 4, 5]],
    [[], []],
    [[1, 2], []],
    [[7], [8], [9]],
    [[2 ** 70, -1], [-(2 ** 70), 0], [-5, 2 ** 70 - 1]],
    {"rows": [[0, 1], [1, 0]], "row": [[False]]},
], ids=["lists", "tuples", "mixed", "bool", "ragged", "empty", "one-empty", "width-1",
        "huge-and-negative", "in-an-object"])
def test_writer_lays_out_int_rows_as_the_stdlib_does(value):
    assert _indented(value) == json.dumps(value, indent=2)
    assert _indented([value]) == json.dumps([value], indent=2)


def json_output(capsys, *argv):
    """The parsed --format json output of a command that exits 0, after
    checking that it has the bytes of the stdlib's indent=2 encoding."""
    code, out, err = run(capsys, *argv, "--format", "json")
    assert code == 0 and err == ""
    assert out == json.dumps(json.loads(out), indent=2) + "\n"
    return json.loads(out)


def test_enumerate_and_verify_all_print_the_bytes_of_the_stdlib_encoder(
        tmp_path, capsys, all_planes):
    path = tmp_path / "plane.json"
    for plane in all_planes:
        path.write_text(json.dumps(plane.to_json()))
        for kind, count in ("mates", 8), ("orientations", 8), ("circuits", 24):
            assert len(json_output(capsys, "enumerate", kind, "--design", str(path))) == count
    assert len(json_output(capsys, "enumerate", "parallel-classes", "--builtin", "sts61")) == 7
    assert len(json_output(capsys, "verify-all")) == 14


def test_faces_print_the_bytes_of_the_stdlib_encoder(tmp_path, capsys):
    classical = classical_rotation()
    cycles = [classical.cycle_at(x) for x in range(7)]
    rotations = [(7, [c[::-1] for c in cycles])]  # the mirror
    for seed in range(20):
        sigma = list(range(7))
        Random(seed).shuffle(sigma)
        relabelled = {sigma[x]: [sigma[y] for y in c] for x, c in enumerate(cycles)}
        rotations.append((7, [relabelled[x] for x in range(7)]))
    rotations += [(3, [[1, 2], [2, 0], [0, 1]]),  # K3
                  (4, [[1, 2, 3], [0, 2, 3], [0, 1, 3], [0, 1, 2]])]  # not 2-colourable
    assert json_output(capsys, "faces", "--builtin", "classical-rotation")["coloring"]
    path = tmp_path / "rotation.json"
    for n, rotation in rotations:
        path.write_text(json.dumps({"n": n, "rotation": dict(enumerate(rotation))}))
        data = json_output(capsys, "faces", "--rotation", str(path))
        assert (data["coloring"] is None) == (n == 4)


def test_no_command_falls_back_to_the_pure_python_encoder(monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("the pure-Python JSON encoder ran")

    monkeypatch.setattr(json.encoder, "_make_iterencode", refuse)
    with pytest.raises(AssertionError, match="pure-Python"):
        json.dumps([1], indent=2)
    for argv in (["verify-all"], ["enumerate", "orientations", "--builtin", "b1"],
                 ["faces", "--builtin", "classical-rotation"]):
        code, out, _ = run(capsys, *argv, "--format", "json")
        assert code == 0 and json.loads(out)


def _image_row_lists(v):
    # 1..60 rows of one width, 1..v, of points in range(v)
    return st.integers(1, v).flatmap(lambda width: st.lists(
        st.tuples(*[st.integers(0, v - 1)] * width), min_size=1, max_size=60))


@settings(max_examples=300, deadline=None)
@given(data=st.integers(1, 40).flatmap(lambda v: st.tuples(st.just(v), _image_row_lists(v))))
def test_image_rows_print_the_bytes_of_the_stdlib_encoder(data):
    v, rows = data
    assert _image_rows(rows, v) == json.dumps(rows)


def test_aut_writes_its_elements_without_the_stdlib_encoder(monkeypatch, tmp_path, capsys, sts31):
    # json.dumps writes the order and the classification; the element rows
    # are joined from point names, so no element list reaches it
    seen, dumps = [], json.dumps
    monkeypatch.setattr(cli.json, "dumps", lambda obj, **kw: seen.append(obj) or dumps(obj, **kw))
    path = tmp_path / "sts31.json"
    path.write_text(dumps(sts31.to_json()))
    sources = [("--builtin", name) for name in BUILTIN_DESIGNS] + [("--design", str(path))]
    for source in sources:
        del seen[:]
        code, out, _ = run(capsys, "aut", *source, "--format", "json")
        listed = list(map(tuple, json.loads(out)["elements"]))
        assert code == 0 and seen and len(listed) == json.loads(out)["order"]
        for obj in seen:
            assert all(value != listed for value in (obj.values() if isinstance(obj, dict) else [obj]))


def test_enumerate_mates_builtin(capsys):
    code, out, _ = run(capsys, "enumerate", "mates", "--builtin", "b1")
    assert code == 0
    assert out.strip().endswith("total: 8")


def test_enumerate_circuits_json(capsys):
    code, out, _ = run(capsys, "enumerate", "circuits", "--builtin", "b1",
                       "--format", "json")
    assert code == 0
    assert len(json.loads(out)) == 24


def test_enumerate_orientations(capsys):
    code, out, _ = run(capsys, "enumerate", "orientations", "--builtin", "b2",
                       "--format", "json")
    assert code == 0
    items = json.loads(out)
    assert len(items) == 8
    assert all(len(o["arcs"]) == 21 for o in items)


def test_enumerate_parallel_classes(capsys):
    code, out, _ = run(capsys, "enumerate", "parallel-classes",
                       "--builtin", "sts61")
    assert code == 0
    assert "{0,0',inf}" in out
    assert out.strip().endswith("total: 7")


def test_enumerate_design_file(tmp_path, capsys):
    path = tmp_path / "design.json"
    blocks = [[0, 1, 3], [1, 2, 4], [2, 3, 5], [3, 4, 6], [0, 4, 5],
              [1, 5, 6], [0, 2, 6]]
    path.write_text(json.dumps({"v": 7, "blocks": blocks}))
    code, out, _ = run(capsys, "enumerate", "mates", "--design", str(path))
    assert code == 0
    assert out.strip().endswith("total: 8")


def test_invalid_design_exits_1(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"v": 7, "blocks": [[0, 1, 2]]}))
    code, _, err = run(capsys, "enumerate", "mates", "--design", str(path))
    assert code == 1
    assert "invalid design" in err


def test_parse_error_exits_2(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"v": 7, "blocks": [[0, 1, 3],]}')
    code, _, err = run(capsys, "enumerate", "mates", "--design", str(path))
    assert code == 2
    assert "line 1, column" in err


@pytest.mark.parametrize("command", ["aut --design", "faces --rotation"])
@pytest.mark.parametrize(
    "content, reason",
    [
        (b"\xff\xfe{}", "can't decode byte 0xff"),
        (b"[" * 200000, "maximum recursion depth exceeded"),
        (b'{"n": ' + b"7" * 5000 + b"}", "Exceeds the limit"),
    ],
    ids=["not-utf8", "nested-too-deep", "huge-integer"],
)
def test_unreadable_json_exits_2(tmp_path, capsys, command, content, reason):
    path = tmp_path / "input.json"
    path.write_bytes(content)
    code, _, err = run(capsys, *command.split(), str(path))
    assert code == 2
    assert err.startswith(f"error: {path}: ") and reason in err
    assert err.count("\n") == 1 and "Traceback" not in err


def test_rotation_of_a_huge_n_is_rejected_by_its_keys(tmp_path, capsys):
    # a 40-byte file names K_n for n = 10^6: the missing vertex is found
    # from the keys, before any per-vertex set of n points is built
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"n": 10**6, "rotation": {"0": [1]}}))
    code, _, err = run(capsys, "faces", "--rotation", str(path))
    assert code == 1
    assert err == "error: invalid rotation: no rotation given for vertex 1\n"


def test_rotation_key_too_long_for_int_exits_1(tmp_path, capsys):
    path = tmp_path / "long-key.json"
    path.write_text(json.dumps({"n": 7, "rotation": {"1" * 5000: [1]}}))
    code, _, err = run(capsys, "faces", "--rotation", str(path))
    assert code == 1
    assert err == "error: invalid rotation: rotation key of 5000 characters is too long\n"


def test_missing_file_exits_2(capsys):
    code, _, err = run(capsys, "enumerate", "mates", "--design", "no/such.json")
    assert code == 2
    assert "cannot read" in err


def test_mates_of_sts13_fails_cleanly(capsys):
    code, _, err = run(capsys, "enumerate", "mates", "--builtin", "sts13")
    assert code == 1
    assert err.startswith("error:")


def test_faces_builtin(capsys):
    code, out, _ = run(capsys, "faces", "--builtin", "classical-rotation")
    assert code == 0
    assert "faces: 14" in out
    assert "euler characteristic: 0" in out
    assert "class A:" in out and "class B:" in out


def test_faces_json_and_dot(capsys):
    code, out, _ = run(capsys, "faces", "--builtin", "classical-rotation",
                       "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert len(data["faces"]) == 14 and data["euler_characteristic"] == 0
    code, out, _ = run(capsys, "faces", "--builtin", "classical-rotation",
                       "--dot")
    assert code == 0
    assert "graph K7 {" in out


def test_classify_builtin_and_file(tmp_path, capsys):
    code, out, _ = run(capsys, "classify", "--builtin", "classical-rotation")
    assert code == 0
    assert "witness: () (Preserving)" in out

    path = tmp_path / "rotation.json"
    path.write_text(json.dumps({"n": 7, "rotation": CLASSICAL_CYCLES}))
    code, out, _ = run(capsys, "classify", "--rotation", str(path),
                       "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["flag"] == "Preserving"


def test_classify_non_triangular_exits_1(tmp_path, capsys):
    rotation = {"n": 7, "rotation": {
        str(x): sorted(set(range(7)) - {x}) for x in range(7)}}
    path = tmp_path / "flat.json"
    path.write_text(json.dumps(rotation))
    code, _, err = run(capsys, "classify", "--rotation", str(path))
    assert code == 1
    assert err.startswith("error:")


def test_aut_builtin(capsys):
    code, out, _ = run(capsys, "aut", "--builtin", "b1")
    assert code == 0
    assert "order: 168" in out
    code, out, _ = run(capsys, "aut", "--builtin", "sts61", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["order"] == 21
    assert data["classification"] == "Frobenius21"


def test_aut_of_sts9(tmp_path, capsys):
    path = tmp_path / "ag23.json"
    blocks = [[0, 1, 2], [3, 4, 5], [6, 7, 8], [0, 3, 6], [1, 4, 7], [2, 5, 8],
              [0, 4, 8], [2, 4, 6], [1, 5, 6], [2, 3, 7], [0, 5, 7], [1, 3, 8]]
    path.write_text(json.dumps({"v": 9, "blocks": blocks}))
    code, out, _ = run(capsys, "aut", "--design", str(path))
    assert code == 0
    assert out.startswith("order: 432\n")


@pytest.mark.parametrize("name, order", [("pg42", 9_999_360), ("ag33", 303_264)])
def test_aut_on_large_designs(request, tmp_path, name, order):
    # above the listing limit aut prints the chain: base, orbit lengths and
    # the transversal elements that move their base point
    system = request.getfixturevalue(name)
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(system.to_json()))
    env = dict(os.environ, PYTHONPATH=str(Path(fano21.__file__).parents[1]))
    outs = [subprocess.run([sys.executable, "-m", "fano21.cli", "aut", "--design", str(path),
                            "--format", fmt], env=env, capture_output=True, text=True,
                           timeout=60, check=True).stdout for fmt in ("json", "text")]
    data = json.loads(outs[0])
    assert outs[0] == json.dumps(data) + "\n"
    assert (data["order"], data["classification"], data["elements"]) == (order, None, None)
    assert math.prod(data["orbit_lengths"]) == order
    blocks = system.block_set()
    assert len(data["generators"]) == sum(data["orbit_lengths"]) - len(data["base"])
    for images in data["generators"]:
        assert sorted(images) == list(range(system.v))
        assert {tuple(sorted(images[x] for x in b)) for b in system.blocks} == blocks
    lines = outs[1].splitlines()
    assert lines[:4] == [f"order: {order}", "base: " + " ".join(map(str, data["base"])),
                         "orbit lengths: " + " ".join(map(str, data["orbit_lengths"])),
                         "transversal generators:"]
    assert len(lines) == 4 + len(data["generators"])


def test_aut_lists_elements_up_to_the_limit(pg32, tmp_path, capsys):
    # Aut(PG(3,2)), of order 20,160, is the largest group aut lists
    path = tmp_path / "pg32.json"
    path.write_text(json.dumps(pg32.to_json()))
    code, out, _ = run(capsys, "aut", "--design", str(path), "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data.keys() == {"order", "classification", "elements"}
    assert data["order"] == len(data["elements"]) == AUT_LIST_LIMIT == 20160


@pytest.mark.parametrize("name", ["b1", "ag23", "sts13", "sts61", "pg32", "sts19", "sts31",
                                  *(f"b1-{seed}" for seed in range(10)), "sts1", "sts3", "b2"])
def test_aut_lists_the_automorphism_group(request, tmp_path, capsys, name):
    # the JSON elements, as the kernel's full search yields them, are the
    # sorted group; so is the closure of the chain's transversal elements,
    # one per coset, and at v = 7 the brute-force sweep, which shares no code
    # with the kernel; and the order counts the listing, whether aut took it
    # from the listing (every bound but STS(31)'s is at or below the limit)
    # or from the chain.  The output has the bytes of json.dumps, from the
    # one-point rows of STS(1) to the 20,160 rows of PG(3,2)
    if name == "sts1":
        system = steiner.validate_sts(1, [])
    elif name == "sts3":
        system = steiner.validate_sts(3, [(0, 1, 2)])
    elif name == "sts13":
        system = steiner.cyclic_sts13()
    elif name.startswith("b1-"):
        sigma = list(range(7))
        Random(int(name[3:])).shuffle(sigma)
        system = steiner.map_sts(Perm(tuple(sigma)), fano_b1())
    else:
        system = request.getfixturevalue(name)
    path = tmp_path / "design.json"
    path.write_text(json.dumps(system.to_json()))
    code, out, err = run(capsys, "aut", "--design", str(path), "--format", "json")
    assert (code, err) == (0, "")
    data = json.loads(out)
    assert out == json.dumps(data) + "\n"
    elements = data["elements"]
    assert data["order"] == len(elements)
    assert elements == [list(p.images) for p in steiner.automorphism_group(system)]
    assert elements == [list(p.images) for p in steiner.isomorphisms(system, system)]
    _, transversals = steiner.automorphism_chain(system)
    closure = perms.generate_group(system.v, [u for t in transversals for u in t])
    assert elements == [list(p.images) for p in closure]
    if system.v == 7:
        oracle = steiner.isomorphisms_bruteforce(system, system)
        assert elements == [list(p.images) for p in oracle]


def test_aut_builds_a_perm_per_transversal_element_only(monkeypatch, tmp_path, capsys, sts31):
    # b1's bound, 168, is at or below the limit: one kernel search lists the
    # group as image tuples, with no Perm built.  STS(31)'s bound, 26,040, is
    # above it: the chain runs the kernel once per base point (0, 1, 2) and
    # image, builds a Perm per transversal element (31 + 1 + 1), finds the
    # order 31 and lists the group in one more search
    built, runs = [], []
    new_object, post_init = perms._new_object, Perm.__post_init__
    monkeypatch.setattr(perms, "_new_object", lambda cls: built.append(cls) or new_object(cls))
    monkeypatch.setattr(Perm, "__post_init__", lambda p: built.append(Perm) or post_init(p))
    kernel = steiner._isomorphism_kernel
    monkeypatch.setattr(steiner, "_isomorphism_kernel",
                        lambda *key: lambda *tables: runs.append(key) or kernel(*key)(*tables))
    path = tmp_path / "sts31.json"
    path.write_text(json.dumps(sts31.to_json()))
    for source, order, perms_built, kernel_runs in [(("--builtin", "b1"), 168, 0, 1),
                                                   (("--design", str(path)), 31, 33, 3 * 31 + 1)]:
        del built[:], runs[:]
        code, out, _ = run(capsys, "aut", *source, "--format", "json")
        assert code == 0 and len(json.loads(out)["elements"]) == order
        assert (built.count(Perm), len(runs)) == (perms_built, kernel_runs)


def test_aut_of_inadmissible_order_exits_1(tmp_path, capsys):
    path = tmp_path / "v0.json"
    path.write_text(json.dumps({"v": 0, "blocks": []}))
    code, _, err = run(capsys, "aut", "--design", str(path))
    assert code == 1
    assert err.startswith("error: invalid design:") and "STS(0)" in err


def test_aut_of_float_point_exits_1(tmp_path, capsys):
    # a point or a v that is not a plain int is named, not truncated
    good = [[0, 1, 3], [1, 2, 4], [2, 3, 5], [3, 4, 6], [0, 4, 5],
            [1, 5, 6], [0, 2, 6]]
    float_point = [[0, 1, 3.5]] + good[1:]
    cases = [("7", float_point, "3.5"), ("7.9", good, "7.9"), ('"7"', good, "'7'"),
             ("true", good, "True"), ("1e400", good, "inf")]
    path = tmp_path / "design.json"
    for v, blocks, named in cases:
        path.write_text('{"v": %s, "blocks": %s}' % (v, json.dumps(blocks)))
        code, _, err = run(capsys, "aut", "--design", str(path))
        assert code == 1, v
        assert err.startswith("error: invalid design:") and named in err, err
        assert "Traceback" not in err


def test_wrongly_shaped_json_names_the_field(tmp_path, capsys):
    cases = [
        ("aut", "--design", '{"v": 7, "blocks": 5}', "'blocks'"),
        ("aut", "--design", "[1, 2]", "JSON object"),
        ("aut", "--design", '{"v": 7}', "'blocks'"),
        ("faces", "--rotation", '{"n": 7, "rotation": {"0": 5}}', "vertex 0"),
        ("faces", "--rotation", '{"n": 7, "rotation": {"x": [1, 2]}}', "key 'x'"),
    ]
    # the classical rotation plus a key that is no vertex, or that names
    # vertex 3 a second time (here with the same cycle)
    for extra, named in [
        ({"9": [1]}, "key 9"),
        ({"-1": []}, "key -1"),
        ({" 3": CLASSICAL_CYCLES["3"]}, "keys '3' and ' 3'"),
    ]:
        text = json.dumps({"n": 7, "rotation": {**CLASSICAL_CYCLES, **extra}})
        cases.append(("classify", "--rotation", text, named))
    path = tmp_path / "input.json"
    for command, flag, text, named in cases:
        path.write_text(text)
        code, _, err = run(capsys, command, flag, str(path))
        assert code == 1, text
        assert err.startswith("error:") and named in err, err
        assert "Traceback" not in err


@pytest.mark.parametrize("command", ["classify", "faces"])
@pytest.mark.parametrize(
    "text",
    [
        '{"n": 7.6, "rotation": {"0": [1, 2, 3, 4, 5, 6]}}',
        '{"n": 1e400, "rotation": {"0": [1, 2, 3, 4, 5, 6]}}',
        '{"n": 7, "rotation": {"0": [1.7, 2, 3, 4, 5, 6]}}',
        '{"n": 7, "rotation": [[1, 2]]}',
    ],
)
def test_non_int_rotation_exits_1(tmp_path, capsys, command, text):
    path = tmp_path / "rotation.json"
    path.write_text(text)
    code, _, err = run(capsys, command, "--rotation", str(path))
    assert code == 1
    assert err.startswith("error: invalid rotation:") and "Traceback" not in err


def test_crashing_certificate_reports_error(monkeypatch, capsys):
    def crash():
        raise ZeroDivisionError("boom")

    checks = [("mate-count-8", crash)] + certificates.ALL_CHECKS[1:]
    monkeypatch.setattr(certificates, "ALL_CHECKS", checks)
    code, out, _ = run(capsys, "verify-all", "--format", "json")
    assert code == 1
    reports = json.loads(out)
    assert len(reports) == 14
    errors = [r for r in reports if r["status"] == "ERROR"]
    assert [r["name"] for r in errors] == ["mate-count-8"]
    assert errors[0]["witness"] == {"error": "ZeroDivisionError", "message": "boom"}
    assert {r["status"] for r in reports if r not in errors} == {"PASS"}


def test_uneven_circuit_fibers_report_fail(monkeypatch, capsys):
    # the first circuit induces the orientation of the last: still 8 fibers,
    # of sizes 2 to 4, and the witness names each fiber by its arcs
    induce, b1 = orient.circuit_to_orientation, fano_b1()
    first, *_, last = orient.all_circuits(b1)
    assert induce(b1, first) != induce(b1, last)
    monkeypatch.setattr(orient, "circuit_to_orientation",
                        lambda plane, c: induce(plane, last if c == first else c))
    code, out, err = run(capsys, "verify-all", "--format", "json")
    assert code == 1 and "Traceback" not in err
    (failed,) = [r for r in json.loads(out) if r["status"] != "PASS"]
    assert failed["name"] == "fano-circuits-24" and failed["status"] == "FAIL"
    sizes = failed["witness"]["fiber_sizes"]
    assert sorted(size for _, size in sizes) == [2, 3, 3, 3, 3, 3, 3, 4]
    assert sorted(tuple(map(tuple, arcs)) for arcs, _ in sizes) == sorted(
        tuple(o.sorted_arcs()) for o in orient.all_orientations(b1))


def test_octonion_table(capsys):
    code, out, _ = run(capsys, "octonion-table")
    assert code == 0
    assert len(out.splitlines()) == 8
    code, out, _ = run(capsys, "octonion-table", "--format", "json")
    assert code == 0
    assert json.loads(out)["matrix"][0][1] == 4


def test_faces_on_empty_rotation_exits_1(tmp_path, capsys):
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"n": 0, "rotation": {}}))
    code, _, err = run(capsys, "faces", "--rotation", str(path))
    assert code == 1
    assert err.startswith("error: invalid rotation:") and "n=0" in err


def test_classify_k3_exits_1(tmp_path, capsys):
    rotation = {"n": 3, "rotation": {"0": [1, 2], "1": [2, 0], "2": [0, 1]}}
    path = tmp_path / "k3.json"
    path.write_text(json.dumps(rotation))
    code, _, err = run(capsys, "classify", "--rotation", str(path))
    assert code == 1
    assert err.startswith("error:") and "K7" in err and "K3" in err


def test_successive_calls_match_fresh_processes(monkeypatch, capsys):
    # the parser is built once per process and shared by every call
    monkeypatch.setenv("COLUMNS", "80")
    env = dict(os.environ, PYTHONPATH=str(Path(fano21.__file__).parents[1]))
    calls = [
        ["enumerate", "bogus"],
        ["enumerate", "circuits", "--builtin", "b1"],
        ["--help"],
        ["aut", "--builtin", "nope"],
        ["enumerate", "circuits", "--builtin", "b1"],
    ]
    for argv in calls:
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse exits on bad arguments and --help
            code = exc.code
        captured = capsys.readouterr()
        fresh = subprocess.run(
            [sys.executable, "-c", "import sys; from fano21.cli import main; sys.exit(main())",
             *argv],
            env=env, capture_output=True, text=True,
        )
        assert (code, captured.out, captured.err) == (fresh.returncode, fresh.stdout, fresh.stderr)
    assert build_parser() is build_parser()


def _any_json(keys):
    """Any JSON value; small ints, so that some of them are points in range,
    and object keys from keys or short text."""
    return st.recursive(
        st.none() | st.booleans() | st.integers(-2, 16) | st.floats(allow_nan=False)
        | st.text(max_size=3),
        lambda inner: st.lists(inner, max_size=6)
        | st.dictionaries(st.sampled_from(keys) | st.text(max_size=2), inner, max_size=3),
        max_leaves=30,
    )


_JSON = _any_json(["v", "blocks"])

# b1, AG(2,3), #61 and PG(4,2): valid designs with v = 7, 9, 15 and 31.
# AG(3,3) is left out: it has 17,641 parallel classes, which
# `enumerate parallel-classes` takes about 0.5 s to list.
_VALID = [
    [[0, 1, 3], [1, 2, 4], [2, 3, 5], [3, 4, 6], [0, 4, 5], [1, 5, 6], [0, 2, 6]],
    [[0, 1, 2], [3, 4, 5], [6, 7, 8], [0, 3, 6], [1, 4, 7], [2, 5, 8],
     [0, 4, 8], [2, 4, 6], [1, 5, 6], [2, 3, 7], [0, 5, 7], [1, 3, 8]],
    [list(b) for b in sts15_61().blocks],
    sorted({tuple(sorted((a - 1, b - 1, (a ^ b) - 1)))  # point x - 1 for x in GF(2)^5
            for a in range(1, 32) for b in range(1, 32) if a != b}),
]


# design-shaped objects with v <= 31
_SHAPED = st.fixed_dictionaries({
    "v": st.integers(-1, 31) | _JSON,
    "blocks": st.lists(st.lists(st.integers(-1, 31), max_size=4) | _JSON, max_size=40),
})


@st.composite
def _relabelled_designs(draw):
    """(design, whether it is valid): b1, AG(2,3), #61 or PG(4,2) relabelled,
    perhaps with one block dropped, or one point moved or written as a float."""
    blocks = draw(st.sampled_from(_VALID))
    v = max(map(max, blocks)) + 1
    sigma = draw(st.permutations(range(v)))
    blocks = [[sigma[x] for x in b] for b in blocks]
    edit = draw(st.sampled_from(["none", "drop", "move", "float"]))
    k, i = draw(st.integers(0, len(blocks) - 1)), draw(st.integers(0, 2))
    if edit == "drop":
        del blocks[k]
    elif edit == "move":
        blocks[k][i] = draw(st.integers(-1, v))
    elif edit == "float":
        blocks[k][i] = float(blocks[k][i])
    return {"v": v, "blocks": blocks}, edit == "none"


@pytest.mark.parametrize(
    "designs", [(_JSON | _SHAPED).map(lambda d: (d, False)), _relabelled_designs()],
    ids=["any", "relabelled"],
)
@settings(max_examples=100, deadline=None)
@given(data=st.data(), fmt=st.sampled_from(["text", "json"]),
       kind=st.sampled_from(["mates", "orientations", "circuits", "parallel-classes"]))
def test_fuzzed_design_files_exit_cleanly(tmp_path_factory, designs, data, fmt, kind):
    # every JSON file, valid or not, ends in exit code 0, 1 or 2, never in
    # an exception that escapes main
    design, valid = data.draw(designs)
    path = tmp_path_factory.getbasetemp() / "fuzzed.json"
    path.write_text(json.dumps(design))
    for argv in (["aut", "--format", fmt], ["enumerate", kind, "--format", fmt]):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main([*argv, "--design", str(path)])
        assert code in (0, 1, 2)
        assert "Traceback" not in err.getvalue()
        if valid and argv[0] == "aut":
            assert code == 0 and err.getvalue() == ""


# rotation-shaped objects with n <= 8
_ROTATION_SHAPED = st.fixed_dictionaries({
    "n": st.integers(-1, 8) | _any_json(["n"]),
    "rotation": st.dictionaries(st.sampled_from([str(x) for x in range(-1, 9)]) | st.text(max_size=2),
                                st.lists(st.integers(-1, 8), max_size=8) | _any_json(["0"]),
                                max_size=9),
})


@st.composite
def _relabelled_rotations(draw):
    """(rotation, n): the classical K7 rotation or K3 relabelled, perhaps with
    one vertex dropped, or one neighbour moved or written as a float; n is
    None after an edit."""
    cycles = draw(st.sampled_from([CLASSICAL_CYCLES, {"0": [1, 2], "1": [2, 0], "2": [0, 1]}]))
    n = len(cycles)
    sigma = draw(st.permutations(range(n)))
    rotation = {str(sigma[int(x)]): [sigma[y] for y in cycle] for x, cycle in cycles.items()}
    edit = draw(st.sampled_from(["none", "drop", "move", "float"]))
    key, i = str(draw(st.integers(0, n - 1))), draw(st.integers(0, n - 2))
    if edit == "drop":
        del rotation[key]
    elif edit == "move":
        rotation[key][i] = draw(st.integers(-1, n))
    elif edit == "float":
        rotation[key][i] = float(rotation[key][i])
    return {"n": n, "rotation": rotation}, n if edit == "none" else None


@pytest.mark.parametrize(
    "rotations",
    [(_any_json(["n", "rotation"]) | _ROTATION_SHAPED).map(lambda r: (r, None)),
     _relabelled_rotations()],
    ids=["any", "relabelled"],
)
@settings(max_examples=100, deadline=None)
@given(data=st.data(), fmt=st.sampled_from(["text", "json"]))
def test_fuzzed_rotation_files_exit_cleanly(tmp_path_factory, rotations, data, fmt):
    # every JSON file, valid or not, ends in exit code 0, 1 or 2, never in
    # an exception that escapes main; a valid rotation has faces, and only K7
    # is classified
    rotation, n = data.draw(rotations)
    path = tmp_path_factory.getbasetemp() / "fuzzed-rotation.json"
    path.write_text(json.dumps(rotation))
    for argv in (["faces"], ["faces", "--dot"], ["classify"]):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main([*argv, "--format", fmt, "--rotation", str(path)])
        assert code in (0, 1, 2)
        assert "Traceback" not in err.getvalue()
        if n is not None:
            assert code == (0 if argv[0] == "faces" or n == 7 else 1)


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as directory:
        GOLDEN.write_text(json.dumps(golden_runs(directory), indent=1) + "\n")
