import re
import time
from collections.abc import Mapping
from itertools import combinations, permutations
from random import Random

import pytest
from hypothesis import example, given, settings, strategies as st

from fano21 import embed, perms
from fano21.perms import Perm, affine_perm
from fano21.steiner import common_automorphism_group
from fano21.embed import (
    PRESERVING,
    REVERSING,
    MissingNeighbor,
    NotSingleCycle,
    NotTriangular,
    NotTwoColorable,
    RotationError,
    classify_triangular,
    color_automorphism_group,
    embedding_isomorphisms,
    euler_characteristic,
    is_triangular,
    isomorphism_flag,
    rotation_from_cycles,
    rotation_from_json,
    to_dot,
    trace_faces,
    triangular_completions,
    two_coloring,
    validate_rotation,
)

CLASSICAL_CYCLES = {
    0: (1, 5, 4, 6, 2, 3),
    1: (2, 6, 5, 0, 3, 4),
    2: (3, 0, 6, 1, 4, 5),
    3: (4, 1, 0, 2, 5, 6),
    4: (5, 2, 1, 3, 6, 0),
    5: (6, 3, 2, 4, 0, 1),
    6: (0, 4, 3, 5, 1, 2),
}


def _relabel(rotation, sigma):
    return validate_rotation(
        7, {sigma(x): [sigma(y) for y in rotation.cycle_at(x)] for x in range(7)}
    )


def test_validate_rotation_classical_cycles(classical):
    r = validate_rotation(7, CLASSICAL_CYCLES)
    assert r.succ == classical.succ


def test_validate_rotation_rejects_split_cycle():
    cycles = dict(CLASSICAL_CYCLES)
    cycles[0] = (1, 5, 4, 6, 3, 2)  # still all neighbors, reordered is fine
    validate_rotation(7, cycles)
    cycles[0] = ((1, 5, 4), (6, 2, 3))  # two 3-cycles at one vertex
    with pytest.raises(NotSingleCycle):
        validate_rotation(7, cycles)


def test_validate_rotation_missing_neighbor():
    cycles = dict(CLASSICAL_CYCLES)
    cycles[0] = (1, 5, 4, 2, 3)
    with pytest.raises(MissingNeighbor) as exc:
        validate_rotation(7, cycles)
    assert (exc.value.vertex, exc.value.neighbor) == (0, 6)


@pytest.mark.parametrize("call, value", [
    (lambda: validate_rotation(3, None), None),
    (lambda: validate_rotation(3, 5), 5),
    (lambda: rotation_from_cycles(3, None), None),
], ids=["validate-none", "validate-int", "from-cycles-none"])
def test_rotation_that_is_no_mapping_raises_a_rotation_error_naming_it(call, value):
    with pytest.raises(RotationError, match=f"got {value!r}$"):
        call()


def test_classical_rotation_formula(classical):
    # rho_x(y) = 5y - 4x (mod 7)
    assert classical.cycle_at(0) == (1, 5, 4, 6, 2, 3)
    assert tuple(classical.rho(3, y) for y in (0, 2, 5, 6, 4, 1)) == (2, 5, 6, 4, 1, 0)
    for x in range(7):
        for y in range(7):
            if x != y:
                assert classical.rho(x, y) == (5 * y - 4 * x) % 7


def test_classical_translation_property(classical):
    # property (*): rho(x+z, y+z) = rho_x(y) + z
    for x in range(7):
        for y in range(7):
            if x == y:
                continue
            for z in range(7):
                assert classical.rho((x + z) % 7, (y + z) % 7) == (
                    classical.rho(x, y) + z
                ) % 7


def test_trace_faces_classical(classical, b1, b2):
    faces = trace_faces(classical)
    assert len(faces) == 14
    assert all(len(f) == 3 for f in faces)
    assert sorted(f.vertex_set() for f in faces) == sorted(b1.blocks + b2.blocks)
    # each of the 42 oriented edges appears exactly once
    edges = [e for f in faces for e in f.edges()]
    assert len(edges) == 42 and len(set(edges)) == 42


def test_large_rotation_is_read_and_traced_in_quadratic_time():
    # K_400 with each cycle ascending: with a list membership test, a least
    # remaining dart taken per face and every rotation of each walk built,
    # reading and tracing it took about 6 s of CPU on a 2-vCPU Xeon, where
    # walking the darts once takes about 0.3 s
    n = 400
    start = time.process_time()
    rotation = validate_rotation(n, {x: [y for y in range(n) if y != x] for x in range(n)})
    faces = trace_faces(rotation)
    assert time.process_time() - start < 1.0
    assert sum(map(len, faces)) == n * (n - 1)
    assert faces == sorted(faces, key=lambda f: f.walk)
    assert all(f.walk[:2] == min(f.edges()) for f in faces)


def test_face_through_edge_01(classical):
    faces = [f for f in trace_faces(classical) if (0, 1) in f.edges()]
    assert len(faces) == 1
    assert faces[0].walk == (0, 1, 3)


def test_euler_characteristic(classical):
    assert euler_characteristic(classical) == 0
    # a non-triangular rotation still satisfies chi = F + 7 - 21
    other = rotation_from_cycles(7, [sorted(set(range(7)) - {x}) for x in range(7)])
    assert euler_characteristic(other) == len(trace_faces(other)) + 7 - 21


def test_is_triangular(classical):
    assert is_triangular(classical)
    cycles = {x: list(classical.cycle_at(x)) for x in range(7)}
    cycles[0][0], cycles[0][1] = cycles[0][1], cycles[0][0]
    assert not is_triangular(validate_rotation(7, cycles))


def test_is_triangular_tests_both_darts_of_each_edge():
    # 11 triangles and the face 0 1 6 2 5 6 1 3 6: the local test holds at
    # every dart (x, y) with x < y, and fails only at darts with x > y
    cycles = [(1, 2, 3, 4, 5, 6), (0, 6, 3, 5, 4, 2), (0, 1, 4, 6, 5, 3), (0, 2, 5, 1, 6, 4),
              (0, 3, 6, 2, 1, 5), (0, 4, 1, 3, 2, 6), (0, 5, 1, 2, 4, 3)]
    rotation = rotation_from_cycles(7, cycles)
    assert sorted(map(len, trace_faces(rotation))) == [3] * 11 + [9]
    assert all(rotation.rho(rotation.rho(x, y), x) == y for x, y in combinations(range(7), 2))
    assert not is_triangular(rotation)


def _all_completions():
    return [r for rest in permutations(range(2, 7)) for r in triangular_completions((1, *rest))]


def test_is_triangular_agrees_with_face_lengths(classical):
    # the local test against its definition, on the 240 triangular
    # completions, on the classical rotation with two neighbors swapped at
    # one vertex, and on random rotations
    rotations = _all_completions()
    # each completion's rotation at every vertex is one 6-cycle
    for r in rotations:
        assert rotation_from_cycles(7, [r.cycle_at(x) for x in range(7)]) == r
    for x in range(7):
        for i, j in combinations(range(6), 2):
            cycles = {w: list(classical.cycle_at(w)) for w in range(7)}
            cycles[x][i], cycles[x][j] = cycles[x][j], cycles[x][i]
            rotations.append(validate_rotation(7, cycles))
    rng = Random(11)
    for _ in range(100):
        cycles = {}
        for x in range(7):
            cyc = [y for y in range(7) if y != x]
            rng.shuffle(cyc)
            cycles[x] = cyc
        rotations.append(validate_rotation(7, cycles))
    verdicts = [is_triangular(r) for r in rotations]
    assert verdicts == [all(len(f) == 3 for f in trace_faces(r)) for r in rotations]
    assert verdicts.count(True) == 240


def test_two_coloring_classical(classical, b1, b2):
    coloring = two_coloring(classical)
    assert coloring.class_a_sets() == list(b1.blocks)
    assert coloring.class_b_sets() == list(b2.blocks)
    assert len(coloring.class_a) == len(coloring.class_b) == 7


def test_two_coloring_small_cases():
    # K2: its one face runs along the edge in both directions
    with pytest.raises(NotTwoColorable):
        two_coloring(rotation_from_cycles(2, [[1], [0]]))
    # K3: the two triangles, one on each side of every edge
    coloring = two_coloring(rotation_from_cycles(3, [[1, 2], [0, 2], [0, 1]]))
    assert [f.walk for f in coloring.class_a] == [(0, 1, 2)]
    assert [f.walk for f in coloring.class_b] == [(0, 2, 1)]


@pytest.mark.parametrize("cycles, walks", [
    # planar K4: four triangles, any two sharing an edge (an odd cycle)
    ([[1, 2, 3], [0, 3, 2], [0, 1, 3], [0, 2, 1]],
     [(0, 1, 3), (0, 2, 1), (0, 3, 2), (1, 2, 3)]),
    # toroidal K4: the octagon meets itself along edges 0-2 and 1-3
    ([[1, 2, 3], [0, 2, 3], [0, 1, 3], [0, 1, 2]],
     [(0, 1, 2, 3), (0, 2, 1, 3, 2, 0, 3, 1)]),
])
def test_two_coloring_rejects_k4(cycles, walks):
    rotation = rotation_from_cycles(4, cycles)
    assert [f.walk for f in trace_faces(rotation)] == walks
    with pytest.raises(NotTwoColorable, match="odd cycle"):
        two_coloring(rotation)


def test_two_coloring_of_every_completion_colors_all_faces():
    # two_coloring does not re-check that its search reached every face
    for r in _all_completions():
        coloring = two_coloring(r)
        assert len(coloring.class_a) == len(coloring.class_b) == 7
        assert sorted(coloring.class_a + coloring.class_b, key=lambda f: f.walk) == trace_faces(r)


def test_embedding_automorphisms_include_affine(classical):
    for z in range(7):
        tau = affine_perm(7, 1, z)
        assert isomorphism_flag(tau, classical, classical) == PRESERVING
    for c in range(1, 7):
        lam = affine_perm(7, c, 0)
        assert isomorphism_flag(lam, classical, classical) == PRESERVING
    swap = Perm((0, 1, 4, 5, 2, 3, 6))  # (2 4)(3 5)
    assert isomorphism_flag(swap, classical, classical) is None


def test_embedding_isomorphism_group_structure(classical):
    # every self-map of the classical rotation preserves the rotation
    # sense; the group is the full affine group mod 7
    autos = embedding_isomorphisms(classical, classical)
    assert len(autos) == 42
    assert {flag for _p, flag in autos} == {PRESERVING}
    affine42 = {affine_perm(7, a, b) for a in range(1, 7) for b in range(7)}
    assert {p for p, _flag in autos} == affine42


def test_color_automorphism_group(classical, b1, b2):
    group = color_automorphism_group(classical)
    assert group.order == 21
    assert group.elements == common_automorphism_group(b1, b2).elements
    swap = Perm((0, 1, 4, 5, 2, 3, 6))
    assert swap not in group.elements  # it exchanges the color classes


@pytest.mark.parametrize("seed, flags", [(None, 2), (5, 23)], ids=["classical", "relabelled"])
def test_color_group_tests_one_face_per_candidate(monkeypatch, classical, seed, flags):
    # deterministic work counts: the 14 faces' vertex sets, then one face
    # image per candidate the closure has not reached, 65 of the 84 on K7
    # (the identity and 18 more of the 21 members are reached before their
    # turn); the flag runs on each of those whose tested face lands in class
    # A, 2 on the classical rotation, both members, and 23 on this
    # relabelling, 2 members and the 21 candidates that keep the face but are
    # no automorphism; a Perm is built for each flag run and each member
    rotation = classical
    if seed is not None:
        images = list(range(7))
        Random(seed).shuffle(images)
        rotation = _relabel(classical, Perm(tuple(images)))
    vertex_sets, flagged, flag = [], [], embed.isomorphism_flag
    built, new_object, post_init = [], perms._new_object, Perm.__post_init__
    monkeypatch.setattr(embed, "frozenset", lambda it: vertex_sets.append(1) or frozenset(it),
                        raising=False)
    monkeypatch.setattr(embed, "isomorphism_flag", lambda *a: flagged.append(1) or flag(*a))
    monkeypatch.setattr(perms, "_new_object", lambda cls: built.append(cls) or new_object(cls))
    monkeypatch.setattr(Perm, "__post_init__", lambda p: built.append(Perm) or post_init(p))
    assert color_automorphism_group(rotation).order == 21
    assert (len(vertex_sets), len(flagged), built.count(Perm)) == (14 + 65, flags, flags + 21)


def _color_group_by_filter(rotation):
    # oracle: every embedding automorphism, kept where it maps the vertex
    # sets of each colour class onto themselves
    coloring = two_coloring(rotation)
    classes = [set(coloring.class_a_sets()), set(coloring.class_b_sets())]
    return [p for p, _flag in embedding_isomorphisms(rotation, rotation)
            if all({tuple(sorted(map(p, s))) for s in cls} == cls for cls in classes)]


def _mirror(rotation):
    return validate_rotation(rotation.n, {x: rotation.cycle_at(x)[::-1] for x in range(rotation.n)})


def test_color_group_is_the_closure_of_the_maps_it_verifies(classical):
    # the closure of the verified maps equals the filtered listing on all
    # 240 triangular rotations of K7, on seeded relabellings of the classical
    # rotation and of its mirror, and on K3
    rotations = [r for rest in permutations(range(2, 7))
                 for r in triangular_completions((1, *rest))]
    rng = Random(7)
    for _ in range(40):
        sigma = Perm(tuple(rng.sample(range(7), 7)))
        rotations += [_relabel(classical, sigma), _relabel(_mirror(classical), sigma)]
    rotations += [_mirror(classical), rotation_from_cycles(3, [(1, 2), (2, 0), (0, 1)])]
    for rotation in rotations:
        assert list(color_automorphism_group(rotation)) == _color_group_by_filter(rotation)


def test_two_coloring_reads_the_dart_index_of_the_trace(monkeypatch, classical):
    # deterministic work count: no Face.edges() list is built; the faces
    # across a face's edges are read from the index its trace recorded
    rotation = embed.RotationSystem(7, classical.succ)  # not traced yet
    edges, calls = embed.Face.edges, []
    monkeypatch.setattr(embed.Face, "edges", lambda face: calls.append(face) or edges(face))
    coloring = two_coloring(rotation)
    assert len(coloring.class_a) == len(coloring.class_b) == 7 and calls == []


def test_coloring_orientation_bridge(classical, qr):
    # the quadratic-residue arcs run one way around every class-A face
    # and the other way around every class-B face
    coloring = two_coloring(classical)

    def face_sense(face):
        senses = {edge in qr.arcs for edge in face.edges()}
        assert len(senses) == 1
        return senses.pop()

    a_senses = {face_sense(f) for f in coloring.class_a}
    b_senses = {face_sense(f) for f in coloring.class_b}
    assert a_senses == {True} and b_senses == {False}


def test_triangular_completions(classical):
    completions = triangular_completions((1, 5, 4, 6, 2, 3))
    assert len(completions) == 2
    assert classical.succ in [r.succ for r in completions]
    (other,) = [r for r in completions if r.succ != classical.succ]
    swap = Perm((0, 1, 4, 5, 2, 3, 6))
    assert isomorphism_flag(swap, other, classical) == REVERSING
    # the second rho_5 branch from the case analysis
    assert other.cycle_at(5) == (0, 1, 2, 6, 3, 4)


def test_triangular_completions_rejects_bad_input():
    with pytest.raises(RotationError):
        triangular_completions((1, 2, 3, 4, 5, 5))
    with pytest.raises(RotationError):
        triangular_completions((1.9, 5, 4, 6, 2, 3))


def _first_by_sweep(r1, r2):
    # oracle: the first isomorphism among all 7! maps in lexicographic order
    from itertools import permutations

    for images in permutations(range(7)):
        flag = isomorphism_flag(sigma := Perm(images), r1, r2)
        if flag:
            return sigma, flag


def test_classify_triangular(classical):
    witness, flag = classify_triangular(classical)
    assert witness == Perm(tuple(range(7))) and flag == PRESERVING
    rng = Random(3)
    for _ in range(10):
        images = list(range(7))
        rng.shuffle(images)
        relabeled = _relabel(classical, Perm(tuple(images)))
        assert classify_triangular(relabeled) == _first_by_sweep(relabeled, classical)


def test_embedding_isomorphisms_on_k3():
    # every rotation of K3 is its own inverse: each of the 6 maps is
    # reported once, as Preserving
    k3 = rotation_from_cycles(3, [(1, 2), (2, 0), (0, 1)])
    maps = embedding_isomorphisms(k3, k3)
    assert len(maps) == 6 and {flag for _p, flag in maps} == {PRESERVING}
    assert color_automorphism_group(k3).order == 6


def test_classify_triangular_rejects_non_triangular():
    other = rotation_from_cycles(7, [sorted(set(range(7)) - {x}) for x in range(7)])
    with pytest.raises(NotTriangular):
        classify_triangular(other)


def test_all_completions_classify(classical, monkeypatch):
    # each of the 120 six-cycles rho_0 on 1..6 has exactly 2 triangular
    # extensions (the stabilizer of 0 permutes the cycles transitively),
    # and each is isomorphic to the classical rotation.  Classification
    # returns the first map of the full listing, found after 360 flag
    # checks over all 240, where listing every map takes 84 per rotation
    completions = []
    for rest in permutations(range(2, 7)):
        cyc = (1,) + rest
        pair = triangular_completions(cyc)
        assert len(pair) == 2 and all(r.cycle_at(0) == cyc for r in pair)
        completions += pair
    checks = []
    monkeypatch.setattr(embed, "isomorphism_flag",
                        lambda *args: checks.append(args) or isomorphism_flag(*args))
    found = [classify_triangular(r) for r in completions]
    monkeypatch.undo()
    assert len(checks) == 360
    for r, (witness, flag) in zip(completions, found):
        assert isomorphism_flag(witness, r, classical) == flag
        assert (witness, flag) == embedding_isomorphisms(r, classical)[0]


def _face_keys(walks):
    # closed walks up to rotation and reversal
    keys = set()
    for w in walks:
        rots = [w[i:] + w[:i] for i in range(len(w))]
        rw = tuple(reversed(w))
        rots += [rw[i:] + rw[:i] for i in range(len(rw))]
        keys.add(min(rots))
    return keys


def test_face_preserving_equals_rotation_commuting(classical):
    # a vertex permutation carries the face set onto the face set exactly
    # when it commutes with the rotation or with its inverse; the dart
    # search finds exactly the maps this 7! sweep finds, with their flags
    from itertools import permutations

    completions = triangular_completions((1, 5, 4, 6, 2, 3))
    walks1 = [f.walk for f in trace_faces(classical)]
    for r2 in completions:
        keys2 = _face_keys(f.walk for f in trace_faces(r2))
        swept = []
        for images in permutations(range(7)):
            sigma = Perm(images)
            mapped = _face_keys(tuple(sigma(v) for v in w) for w in walks1)
            flag = isomorphism_flag(sigma, classical, r2)
            assert (mapped == keys2) == (flag is not None)
            if flag:
                swept.append((sigma, flag))
        assert swept == embedding_isomorphisms(classical, r2)


def test_rotation_json_round_trip(classical):
    data = {"n": 7, "rotation": {str(x): list(classical.cycle_at(x)) for x in range(7)}}
    assert data["rotation"]["0"] == [1, 5, 4, 6, 2, 3]
    assert rotation_from_json(data).succ == classical.succ


def test_rotation_key_too_long_for_int_is_a_rotation_error():
    # int() refuses a string of more than 4,300 digits with a plain ValueError
    with pytest.raises(RotationError, match="^rotation key of 5000 characters is too long$"):
        rotation_from_json({"n": 7, "rotation": {"1" * 5000: [1]}})


def _validate_rotation_in_passes(n, rotation):
    # oracle: the reader before it checked each cycle in one pass, kept as it was
    if type(n) is not int or n < 2:
        raise RotationError(f"K_n needs an integer n >= 2 to have edges, got n={n!r}")
    if not isinstance(rotation, Mapping):
        raise RotationError(f"a rotation maps each vertex to its cycle, got {rotation!r}")
    for key in rotation:
        if type(key) is not int or not 0 <= key < n:
            raise RotationError(f"rotation key {key!r} is not a vertex 0..{n - 1}")
    if len(rotation) < n:
        missing = next(x for x in range(n) if x not in rotation)
        raise RotationError(f"no rotation given for vertex {missing}")
    succ = []
    for x in range(n):
        value = rotation[x]
        try:
            cycles = value if value and isinstance(value[0], (list, tuple)) else [value]
            flat = [y for c in cycles for y in c]
        except (TypeError, LookupError):
            raise RotationError(f"rotation at vertex {x} must be a list of neighbors "
                                f"or of cycles, got {value!r}") from None
        for y in flat:
            if type(y) is not int:
                raise RotationError(f"neighbor {y!r} at vertex {x} is not an integer")
        present, neighbors = set(flat), set(range(n)) - {x}
        for y in neighbors:
            if y not in present:
                raise MissingNeighbor(x, y)
        if len(cycles) != 1 or len(flat) != n - 1 or present != neighbors:
            raise NotSingleCycle(x)
        cyc = cycles[0]
        nxt = [-1] * n
        for i, y in enumerate(cyc):
            nxt[y] = cyc[(i + 1) % (n - 1)]
        succ.append(tuple(nxt))
    return embed.RotationSystem(n, tuple(succ))


def _rotation_from_json_in_passes(data):
    # oracle: the JSON reader before it checked each key in one pass
    if not isinstance(data, dict):
        raise RotationError(f"a rotation must be a JSON object, got {type(data).__name__}")
    for key in ("n", "rotation"):
        if key not in data:
            raise RotationError(f"a rotation needs the key {key!r}")
    rotation = data["rotation"]
    if not isinstance(rotation, dict):
        raise RotationError(f"rotation {rotation!r} is not an object of cycles")
    by_vertex, by_key = {}, {}
    for key, value in rotation.items():
        if not (isinstance(key, str) and re.fullmatch(r"\s*[+-]?\d+\s*", key)):
            raise RotationError(f"rotation key {key!r} is not an integer vertex")
        if not isinstance(value, list) or len({isinstance(c, list) for c in value}) > 1:
            raise RotationError(f"rotation at vertex {key} must be a list of neighbors or of "
                                f"cycles, got {value!r}")
        try:
            x = int(key)
        except ValueError:
            raise RotationError(f"rotation key of {len(key)} characters is too long") from None
        if x in by_vertex:
            raise RotationError(f"rotation keys {by_key[x]!r} and {key!r} name one vertex")
        by_vertex[x] = value
        by_key[x] = key
    return _validate_rotation_in_passes(data["n"], by_vertex)


def _outcome(read, *args):
    """What a reader gives: the rotation, or the type and message of its error."""
    try:
        return read(*args)
    except RotationError as exc:
        return type(exc), str(exc)


_KEY_TEXT = st.text(st.sampled_from(" \t\n  +-_.x0123٣１"), max_size=4)
_ODD_NEIGHBOR = st.sampled_from([1.0, True, "1", None, [1], (1,), -1, 99, 10**30])


@st.composite
def _edited_rotations(draw):
    """A JSON rotation of K_n, n in 2..8, with a few edits that a reader must
    refuse, or keep as they are: keys rewritten, repeated, dropped or added;
    neighbours changed, repeated, dropped or added; cycles split or nested;
    values replaced; and n replaced."""
    n = draw(st.integers(2, 8))
    rotation = {str(x): draw(st.permutations([y for y in range(n) if y != x])) for x in range(n)}
    data = {"n": n, "rotation": rotation}
    for _ in range(draw(st.integers(0, 3))):
        edit = draw(st.sampled_from(["key", "repeat-key", "drop-key", "add-key", "neighbor",
                                     "repeat", "drop", "append", "split", "nest", "value", "n"]))
        if not rotation:
            break
        key = draw(st.sampled_from(sorted(rotation)))
        value = rotation[key]
        if edit == "key":
            rotation[draw(_KEY_TEXT)] = rotation.pop(key)
        elif edit == "repeat-key":
            rotation[draw(st.sampled_from([f" {key}", f"+{key}", f"0{key}", f"{key}\n"]))] = value
        elif edit == "drop-key":
            del rotation[key]
        elif edit == "add-key":
            rotation[draw(st.sampled_from(["-1", str(n), "1" * 5000, "٣"]))] = value
        elif edit == "value":
            rotation[key] = draw(st.sampled_from([5, "abc", None, {"0": 1}, [], [[]], [1, [2]]]))
        elif not isinstance(value, list) or not value or isinstance(value[0], list):
            continue
        elif edit == "neighbor":
            value[draw(st.integers(0, len(value) - 1))] = draw(_ODD_NEIGHBOR | st.integers(-1, n))
        elif edit == "repeat":
            value[draw(st.integers(0, len(value) - 1))] = value[0]
        elif edit == "drop":
            del value[draw(st.integers(0, len(value) - 1))]
        elif edit == "append":
            value.append(draw(st.integers(-1, n)))
        elif edit == "split":
            i = draw(st.integers(0, len(value)))
            rotation[key] = [value[:i], value[i:]]
        elif edit == "nest":
            rotation[key] = [value]
        else:
            data["n"] = draw(st.sampled_from([n - 1, n + 1, 1, -3, 7.0, True, "7", None]))
    return data


@settings(max_examples=600, deadline=None)
@given(_edited_rotations())
@example({"n": 7, "rotation": {str(x): list(c) for x, c in CLASSICAL_CYCLES.items()}})
@example({"n": 3, "rotation": {"0": [1, 2], " 1": [2, 0], "01": [0, 1]}})
@example({"n": 3, "rotation": {"0": [1, 2], "1": [2, 0], "٢": [0, 1]}})
def test_one_pass_readers_match_the_readers_in_passes(data):
    # the same RotationSystem, or the same error type and message, from the
    # JSON reader and, on the same cycles keyed by int, from validate_rotation
    assert _outcome(rotation_from_json, data) == _outcome(_rotation_from_json_in_passes, data)
    by_int = {}
    for key, value in data["rotation"].items():
        try:
            by_int.setdefault(int(key), value)
        except ValueError:
            by_int.setdefault(key, value)
    mappings = [by_int]
    if by_int:  # the first value also as a tuple, and as a string of digits
        first, value = next(iter(by_int.items()))
        mappings += [{**by_int, first: tuple(value) if isinstance(value, list) else value},
                     {**by_int, first: "123"}]
    for rotation in mappings:
        assert (_outcome(validate_rotation, data["n"], rotation)
                == _outcome(_validate_rotation_in_passes, data["n"], rotation))


@settings(max_examples=300, deadline=None)
@given(_KEY_TEXT | st.text(max_size=4))
@example("_3")
@example("+-3")
@example(" ٣\n")
@example("\u00a0-3")
def test_rotation_keys_are_read_as_the_integer_pattern_reads_them(key):
    assert embed._is_int_key(key) == bool(re.fullmatch(r"\s*[+-]?\d+\s*", key))


def test_dot_export(classical):
    dot = to_dot(classical)
    assert dot.startswith("graph K7 {")
    assert dot.count("--") == 21
    assert dot.count("// face") == 14


def _trace_by_dart_set(rotation):
    # oracle: the faces traced with a set of the darts seen, and the index
    # of the face holding each dart, as a dict built from Face.edges()
    succ, seen, faces = rotation.succ, set(), []
    for x, y in permutations(range(rotation.n), 2):
        walk = []
        while (x, y) not in seen:
            seen.add((x, y))
            walk.append(x)
            x, y = y, succ[y][x]
        if walk:
            faces.append(embed.Face(tuple(walk)))
    return faces, {dart: i for i, f in enumerate(faces) for dart in f.edges()}


def _two_coloring_by_search(faces, face_of):
    # oracle: colour the faces across each face's Face.edges(); None on an odd cycle
    color, queue = {0: 0}, [0]
    while queue:
        i = queue.pop()
        for a, b in faces[i].edges():
            j = face_of[b, a]
            if j not in color:
                color[j] = 1 - color[i]
                queue.append(j)
            elif color[j] == color[i]:
                return None
    classes = [[f for i, f in enumerate(faces) if color[i] == c] for c in (0, 1)]
    return sorted(classes, key=lambda cls: min(f.vertex_set() for f in cls))


@st.composite
def rotations(draw, n):
    """A rotation of K_n: a random cycle at each vertex, or one random cycle
    of steps 1..n-1 moved to every vertex (2-colourable for many odd n)."""
    if draw(st.booleans()):
        steps = draw(st.permutations(range(1, n)))
        return rotation_from_cycles(n, [[(x + d) % n for d in steps] for x in range(n)])
    return rotation_from_cycles(n, [draw(st.permutations([y for y in range(n) if y != x]))
                                    for x in range(n)])


@settings(max_examples=300, deadline=None)
@given(st.integers(3, 9).flatmap(rotations))
@example(embed.classical_rotation())
def test_faces_dart_index_and_two_coloring_match_the_edge_dict(rotation):
    faces, face_of = _trace_by_dart_set(rotation)
    n = rotation.n
    assert list(rotation.faces) == faces
    assert rotation.face_index == tuple(
        tuple(face_of.get((x, y), -1) for y in range(n)) for x in range(n))
    expected = _two_coloring_by_search(faces, face_of)
    if expected is None:
        with pytest.raises(NotTwoColorable):
            two_coloring(rotation)
    else:
        coloring = two_coloring(rotation)
        assert [list(coloring.class_a), list(coloring.class_b)] == expected


def _candidates_by_walking(r1, r2):
    # oracle: for each dart (a, b) of r2 and each sense, 0 -> a and the
    # rotation at 0 in r1, walked from 1, onto the rotation at a in r2, walked
    # from b forward or backward; the set of these maps, sorted
    n, maps = r1.n, set()
    for a, b in permutations(range(n), 2):
        for step in (r2.rho, r2.rho_inv):
            images, y, z = [a] * n, 1, b
            for _ in range(n - 1):
                images[y] = z
                y, z = r1.rho(0, y), step(a, z)
            maps.add(tuple(images))
    return sorted(maps)


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 9).flatmap(lambda n: st.tuples(rotations(n), rotations(n))))
@example((embed.classical_rotation(), embed.classical_rotation()))
def test_candidate_maps_are_the_maps_their_docstring_defines(pair):
    r1, r2 = pair
    assert list(embed._candidate_maps(r1, r2)) == _candidates_by_walking(r1, r2)
