"""Command-line front end.

Subcommands: verify-all, enumerate, faces, classify, aut, octonion-table.
Exit codes: 0 success, 1 logical failure or validation error, 2 I/O or
parse error.  Output is deterministic; ANSI styling is used only on a
terminal and is suppressed by the NO_COLOR environment variable.  The
``--format json`` output of verify-all, enumerate and faces has exactly
the bytes that the stdlib's ``json.dumps`` writes with ``indent=2``; a
small writer produces it, since the stdlib encodes indented JSON in pure
Python.  It writes a list of ints with one join, and a list of non-empty
int rows of one length (blocks, arcs, circuits, faces) with one row
template; keys and other scalars go to the stdlib's C encoder.  ``aut
--format json`` prints the compact bytes of ``json.dumps``: the stdlib
writes its other fields, and its element rows are one join of names read
from a table of the v point names.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from itertools import chain
from json.encoder import encode_basestring_ascii
from typing import Sequence

from . import certificates, embed, kirkman, octonion, orient, steiner
from .kirkman import point_name
from .perms import PermGroup, _unchecked, classify_order21

BUILTIN_DESIGNS = {
    "b1": steiner.fano_b1,
    "b2": steiner.fano_b2,
    "sts13": steiner.cyclic_sts13,
    "sts61": kirkman.sts15_61,
}
AUT_LIST_LIMIT = 20160  # aut lists a group's elements up to |Aut(PG(3,2))|
BUILTIN_ROTATIONS = {"classical-rotation": embed.classical_rotation}
# per kind of input: its builtins, its JSON reader, the errors of a bad file
INPUTS = {
    "design": (BUILTIN_DESIGNS, steiner.sts_from_json, steiner.StsError),
    "rotation": (BUILTIN_ROTATIONS, embed.rotation_from_json, embed.RotationError),
}


class CliError(Exception):
    def __init__(self, message: str, exit_code: int):
        self.exit_code = exit_code
        super().__init__(message)


def _use_color() -> bool:
    return sys.stdout.isatty() and not os.environ.get("NO_COLOR")


def _status(text: str) -> str:
    if not _use_color():
        return text
    color = "32" if text == "PASS" else "31"
    return f"\x1b[{color}m{text}\x1b[0m"


def _load_json(path: str) -> dict:
    try:
        with open(path) as handle:
            return json.load(handle)
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}", 2)
    except json.JSONDecodeError as exc:
        message = f"parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        raise CliError(f"{path}: {message}", 2)
    except (ValueError, RecursionError) as exc:  # not UTF-8, nested too deep, a huge int
        raise CliError(f"{path}: {exc}", 2)


def _input_from_args(args: argparse.Namespace, kind: str):
    """The --builtin input or the file of --design or --rotation, by kind; not both."""
    builtins, reader, errors = INPUTS[kind]
    path = getattr(args, kind)
    if args.builtin is not None and path is not None:
        raise CliError(f"give --builtin or --{kind}, not both", 2)
    if args.builtin:
        if args.builtin not in builtins:
            raise CliError(f"unknown builtin {kind} {args.builtin!r} (try {tuple(builtins)})", 2)
        return builtins[args.builtin]()
    if not path:
        raise CliError(f"need --{kind} FILE or --builtin NAME", 2)
    data = _load_json(path)
    try:
        return reader(data)
    except errors as exc:
        raise CliError(f"invalid {kind}: {exc}", 1)


def _block_str(block: Sequence[int], v: int) -> str:
    if v == 15:
        return "{" + ",".join(point_name(x) for x in block) + "}"
    return "{" + ",".join(str(x) for x in block) + "}"


def _indented(obj, newline: str = "\n") -> str:
    """The bytes of json.dumps with indent=2, for a JSON value whose objects
    have str keys: containers are laid out here, and every key, scalar and
    empty container is encoded by the stdlib's C encoder.  A list of ints is
    one join, and a list of non-empty int rows of one length (lists or
    tuples) is one %d row template mapped over the rows; a bool, which
    prints as true, takes neither path."""
    inner = newline + "  "
    comma = "," + inner
    if isinstance(obj, (list, tuple)) and obj:
        types = set(map(type, obj))
        if types == {int}:
            return "[" + inner + comma.join(map(int.__repr__, obj)) + newline + "]"
        if (types <= {list, tuple} and len(widths := set(map(len, obj))) == 1
                and set(map(type, chain.from_iterable(obj))) == {int}):  # ints only, so no row is empty
            cell = inner + "  "
            row = "[" + cell + ("," + cell).join(["%d"] * widths.pop()) + inner + "]"
            return "[" + inner + comma.join(map(row.__mod__, map(tuple, obj))) + newline + "]"
        return "[" + inner + comma.join([_indented(x, inner) for x in obj]) + newline + "]"
    if isinstance(obj, dict) and obj:
        items = [encode_basestring_ascii(k) + ": " + _indented(v, inner) for k, v in obj.items()]
        return "{" + inner + comma.join(items) + newline + "}"
    return json.dumps(obj)


def _image_rows(rows: Sequence[Sequence[int]], v: int) -> str:
    """The bytes of json.dumps(rows) for a non-empty list of rows of one
    width, each entry an int in range(v): the entries, named from a table
    of v point names, make one flat list; every row's first name gets its
    "[" and its last its "]", by two slice assignments; one join writes it.

    aut passes the image tuples of the search kernel, whose checks prove
    each one a bijection of range(v) (see steiner._isomorphism_kernel), so
    no entry is scanned for its type: a bool or an int out of range never
    reaches here."""
    names = [str(x) for x in range(v)]
    width = len(rows[0])
    flat = [names[x] for row in rows for x in row]
    flat[::width] = ["[" + name for name in flat[::width]]
    flat[width - 1::width] = [name + "]" for name in flat[width - 1::width]]
    return "[" + ", ".join(flat) + "]"


def cmd_verify_all(args: argparse.Namespace) -> int:
    reports = certificates.run_all()
    if args.format == "json":
        print(_indented([r.to_json() for r in reports]))
    else:
        for r in reports:
            witness = ", ".join(f"{k}={v}" for k, v in r.witness.items())
            print(f"{_status(r.status)} {r.name} ({witness}) [{r.seconds:.3f}s]")
    return 0 if all(r.status == "PASS" for r in reports) else 1


def cmd_enumerate(args: argparse.Namespace) -> int:
    design = _input_from_args(args, "design")
    if args.kind == "mates":
        items = [s.to_json() for s in steiner.orthogonal_mates(design)]
    elif args.kind == "orientations":
        items = [o.to_json() for o in orient.all_orientations(design)]
    elif args.kind == "circuits":
        items = [list(c.seq) for c in orient.all_circuits(design)]
    else:  # parallel-classes, the last of the kinds argparse allows
        items = [[list(b) for b in cls] for cls in kirkman.parallel_classes(design)]
    if args.format == "json":
        print(_indented(items))
        return 0
    for i, item in enumerate(items):
        if args.kind == "mates":
            print(f"mate {i}: " + " ".join(_block_str(b, design.v) for b in item["blocks"]))
        elif args.kind == "orientations":
            print(f"orientation {i}: " + " ".join(f"{x}->{y}" for x, y in item["arcs"]))
        elif args.kind == "circuits":
            print(f"circuit {i}: (" + " ".join(str(x) for x in item) + ")")
        else:
            print(f"class {i}: " + " ".join(_block_str(b, design.v) for b in item))
    print(f"total: {len(items)}")
    return 0


def cmd_faces(args: argparse.Namespace) -> int:
    rotation = _input_from_args(args, "rotation")
    faces = embed.trace_faces(rotation)
    chi = embed.euler_characteristic(rotation)
    try:
        coloring = embed.two_coloring(rotation)
        color_json: dict | None = {
            "classA": [list(f.vertex_set()) for f in coloring.class_a],
            "classB": [list(f.vertex_set()) for f in coloring.class_b],
        }
    except embed.NotTwoColorable:
        coloring = None
        color_json = None
    if args.format == "json":
        out = {"faces": [list(f.walk) for f in faces], "euler_characteristic": chi,
               "coloring": color_json}
        print(_indented(out))
    else:
        for f in faces:
            print("face: (" + " ".join(str(v) for v in f.walk) + ")")
        print(f"faces: {len(faces)}")
        print(f"euler characteristic: {chi}")
        if coloring is None:
            print("coloring: NotTwoColorable")
        else:
            for name, sets in ("A", coloring.class_a_sets()), ("B", coloring.class_b_sets()):
                print(f"class {name}: " + " ".join(_block_str(s, rotation.n) for s in sets))
    if args.dot:
        print(embed.to_dot(rotation), end="")
    return 0


def cmd_classify(args: argparse.Namespace) -> int:
    rotation = _input_from_args(args, "rotation")
    witness, flag = embed.classify_triangular(rotation)
    if args.format == "json":
        print(json.dumps({"witness": witness.to_json(), "flag": flag}))
    else:
        print(f"isomorphic to the classical toroidal rotation")
        print(f"witness: {witness.cycle_string()} ({flag})")
    return 0


def cmd_aut(args: argparse.Namespace) -> int:
    design = _input_from_args(args, "design")
    # |Aut| <= the bound, so at or below the limit the listing alone gives the
    # order; above it the chain's order decides whether to list
    order = 0
    if steiner.automorphism_bound(design) > AUT_LIST_LIMIT:
        base, transversals = steiner.automorphism_chain(design)
        order = math.prod(map(len, transversals))
    # the elements as image tuples; above the limit, the generators as Perms
    if order <= AUT_LIST_LIMIT:
        elements, generators = steiner.automorphism_images(design), None
        order = len(elements)
    else:
        elements, generators = None, [u for b, t in zip(base, transversals) for u in t if u(b) != b]
        lengths = [len(t) for t in transversals]
    tag = classify_order21(PermGroup(design.v, tuple(map(_unchecked, elements)))) if order == 21 else None
    if args.format == "json":
        out = {"order": order, "classification": tag}
        if generators:
            out.update(elements=None, base=base, orbit_lengths=lengths,
                       generators=[u.images for u in generators])
            print(json.dumps(out))
        else:  # the elements close the object, written as json.dumps would
            print(json.dumps(out)[:-1] + ', "elements": ' + _image_rows(elements, design.v) + "}")
        return 0
    print(f"order: {order}")
    if tag:
        print(f"classification: {tag}")
    if generators:
        print("base:", *base)
        print("orbit lengths:", *lengths)
        print("transversal generators:")
    # the kernel proves each listed tuple a bijection
    for p in generators or map(_unchecked, elements):
        print(p.cycle_string())
    return 0


def cmd_octonion_table(args: argparse.Namespace) -> int:
    table = octonion.cartan_table()
    if args.format == "json":
        print(json.dumps(octonion.table_to_json(table)))
    else:
        print(octonion.table_to_text(table), end="")
    return 0


@functools.cache  # built on first use; parsing leaves it unchanged, so calls share it
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fano21",
        description="Constructs and machine-verifies the combinatorial "
        "representations of the Frobenius group of order 21.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify-all", help="run every theorem certificate")
    p.set_defaults(func=cmd_verify_all)

    p = sub.add_parser("enumerate", help="list mates, orientations, circuits or classes")
    p.add_argument("kind", choices=("mates", "orientations", "circuits", "parallel-classes"))
    p.add_argument("--design", help="design JSON file")
    p.add_argument("--builtin", help=f"builtin design: {', '.join(BUILTIN_DESIGNS)}")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("faces", help="trace faces of a rotation system")
    p.add_argument("--rotation", help="rotation JSON file")
    p.add_argument("--builtin", help="builtin rotation: classical-rotation")
    p.add_argument("--dot", action="store_true", help="also emit DOT output")
    p.set_defaults(func=cmd_faces)

    p = sub.add_parser("classify", help="classify a triangular rotation of K7")
    p.add_argument("--rotation", help="rotation JSON file")
    p.add_argument("--builtin", help="builtin rotation: classical-rotation")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("aut", help="automorphism group of a design")
    p.add_argument("--design", help="design JSON file")
    p.add_argument("--builtin", help=f"builtin design: {', '.join(BUILTIN_DESIGNS)}")
    p.set_defaults(func=cmd_aut)

    p = sub.add_parser("octonion-table", help="print the octonion multiplication table")
    p.set_defaults(func=cmd_octonion_table)

    for p in sub.choices.values():  # the last option of every subcommand
        p.add_argument("--format", choices=("text", "json"), default="text")
    parser.commands = sub.choices  # each subcommand's parser by name, for main
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """Run the command in argv (else sys.argv[1:]); return its exit code.
    A call that starts with a subcommand is parsed by that subcommand's
    parser alone, as argparse's subparsers action parses it: the top-level
    pass would cost about as much again.  That pass runs only on an empty
    call, one that starts with no subcommand, or one with arguments left
    over, where it writes argparse's own usage and error."""
    argv = sys.argv[1:] if argv is None else argv
    parser, args, extra = build_parser(), None, None
    if argv and argv[0] in parser.commands:
        args, extra = parser.commands[argv[0]].parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
    if args is None or extra:
        args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except (steiner.StsError, orient.OrientationError, orient.CircuitError,
            embed.RotationError, embed.NotTwoColorable, embed.NotTriangular) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
