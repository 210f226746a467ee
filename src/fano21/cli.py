"""Command-line front end.

Subcommands: verify-all, enumerate, faces, classify, aut, octonion-table.
Exit codes: 0 success, 1 logical failure or validation error, 2 I/O or
parse error.  Output is deterministic; ANSI styling is used only on a
terminal and is suppressed by the NO_COLOR environment variable.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from typing import Sequence

from . import certificates, embed, kirkman, octonion, orient, steiner
from .kirkman import point_name
from .perms import classify_order21

BUILTIN_DESIGNS = {
    "b1": steiner.fano_b1,
    "b2": steiner.fano_b2,
    "sts13": steiner.cyclic_sts13,
    "sts61": kirkman.sts15_61,
}
BUILTIN_ROTATIONS = {"classical-rotation": embed.classical_rotation}
# per kind of input: its builtins, its JSON reader, the errors of a bad file
INPUTS = {
    "design": (BUILTIN_DESIGNS, steiner.sts_from_json, (steiner.StsError, KeyError, TypeError)),
    "rotation": (BUILTIN_ROTATIONS, embed.rotation_from_json,
                 (embed.RotationError, KeyError, TypeError, ValueError)),
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
        raise CliError(
            f"{path}: parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}",
            2,
        )


def _input_from_args(args: argparse.Namespace, kind: str):
    """The --builtin input, else the file of --design or --rotation, by kind."""
    builtins, reader, errors = INPUTS[kind]
    if args.builtin:
        if args.builtin not in builtins:
            raise CliError(f"unknown builtin {kind} {args.builtin!r} (try {tuple(builtins)})", 2)
        return builtins[args.builtin]()
    path = getattr(args, kind)
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


def cmd_verify_all(args: argparse.Namespace) -> int:
    reports = certificates.run_all()
    if args.format == "json":
        print(json.dumps([r.to_json() for r in reports], indent=2))
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
        print(json.dumps(items, indent=2))
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
        print(
            json.dumps(
                {
                    "faces": [list(f.walk) for f in faces],
                    "euler_characteristic": chi,
                    "coloring": color_json,
                },
                indent=2,
            )
        )
    else:
        for f in faces:
            print("face: (" + " ".join(str(v) for v in f.walk) + ")")
        print(f"faces: {len(faces)}")
        print(f"euler characteristic: {chi}")
        if coloring is None:
            print("coloring: NotTwoColorable")
        else:
            print(
                "class A: "
                + " ".join(_block_str(s, rotation.n) for s in coloring.class_a_sets())
            )
            print(
                "class B: "
                + " ".join(_block_str(s, rotation.n) for s in coloring.class_b_sets())
            )
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
    group = steiner.automorphism_group(design)
    tag = None
    if group.order == 21:
        tag = classify_order21(group)
    if args.format == "json":
        print(
            json.dumps(
                {
                    "order": group.order,
                    "classification": tag,
                    "elements": [p.to_json() for p in group],
                }
            )
        )
    else:
        print(f"order: {group.order}")
        if tag:
            print(f"classification: {tag}")
        for p in group:
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
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_verify_all)

    p = sub.add_parser("enumerate", help="list mates, orientations, circuits or classes")
    p.add_argument(
        "kind", choices=("mates", "orientations", "circuits", "parallel-classes")
    )
    p.add_argument("--design", help="design JSON file")
    p.add_argument("--builtin", help=f"builtin design: {', '.join(BUILTIN_DESIGNS)}")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("faces", help="trace faces of a rotation system")
    p.add_argument("--rotation", help="rotation JSON file")
    p.add_argument("--builtin", help="builtin rotation: classical-rotation")
    p.add_argument("--dot", action="store_true", help="also emit DOT output")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_faces)

    p = sub.add_parser("classify", help="classify a triangular rotation of K7")
    p.add_argument("--rotation", help="rotation JSON file")
    p.add_argument("--builtin", help="builtin rotation: classical-rotation")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("aut", help="automorphism group of a design")
    p.add_argument("--design", help="design JSON file")
    p.add_argument("--builtin", help=f"builtin design: {', '.join(BUILTIN_DESIGNS)}")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_aut)

    p = sub.add_parser("octonion-table", help="print the octonion multiplication table")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_octonion_table)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
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
