import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path
from typing import Iterator

ROOT = Path(__file__).resolve().parent.parent


def unused_imports(path: Path) -> list[str]:
    """Names that a module imports but never reads."""
    tree = ast.parse(path.read_text())
    imported = [
        alias.asname or alias.name.split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and getattr(node, "module", None) != "__future__"
        for alias in node.names
    ]
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return [name for name in imported if name not in read]


def test_no_unused_imports():
    # the package __init__ imports only to re-export
    paths = [p for p in sorted((ROOT / "src" / "fano21").glob("*.py")) if p.name != "__init__.py"]
    paths += sorted((ROOT / "tests").glob("*.py"))
    found = {str(p.relative_to(ROOT)): unused_imports(p) for p in paths}
    assert {path: names for path, names in found.items() if names} == {}


def read_names(tree: ast.AST) -> set[str]:
    """The names a module reads: variables, attributes and imports."""
    names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    names |= {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
    names |= {a.name for n in ast.walk(tree) if isinstance(n, ast.ImportFrom) for a in n.names}
    return names


def library_readers(name: str) -> list[str]:
    """The library modules that name ``name``, as a variable, an attribute
    or an import."""
    return [path.name for path in sorted((ROOT / "src" / "fano21").glob("*.py"))
            if name in read_names(ast.parse(path.read_text()))]


def test_only_perms_reads_the_closure_oracle():
    # the library proves each group as it builds it; group_from_elements,
    # which proves closure, is for tests
    assert set(library_readers("group_from_elements")) <= {"perms.py"}


def test_only_perms_and_kirkman_read_the_stabilizer():
    # the common, oriented and algebra groups are pruned kernel searches and
    # the colour group a one-class test; the filter stays for the KTS group
    assert set(library_readers("stabilizer")) <= {"perms.py", "kirkman.py"}


# Every command on every builtin (the CLI golden runs), aut on a cyclic
# STS(31), whose automorphism bound is above the listing limit, so that aut
# builds the chain, and some operations of each in-process benchmark
# workload, in a fresh process, so that no cache is warm, under cProfile:
# prints the (file name, first line) of each library function that ran.
CENSUS = """
import contextlib, cProfile, io, json, sys, tempfile, types
from pathlib import Path

profiler = cProfile.Profile()
profiler.enable()
import fano21.cli, workloads
from conftest import STS31_BASE_BLOCKS
from test_cli import golden_runs

with tempfile.TemporaryDirectory() as directory:
    golden_runs(directory)
    sts31 = Path(directory) / "sts31.json"
    sts31.write_text(json.dumps(fano21.steiner.cyclic_sts(31, STS31_BASE_BLOCKS).to_json()))
    with contextlib.redirect_stdout(io.StringIO()):
        fano21.cli.main(["aut", "--design", str(sts31)])
    for workload, count in (workloads.StsAut, 3), (workloads.FanoMaps, 24):
        runner = workload(1, Path(directory), fano21)
        for op in map(runner.prepare, range(count)):
            if op.probe:
                runner.run_probe(op)
            else:
                runner.check(op, runner.execute(op))
profiler.disable()
library = Path(fano21.__file__).parent
print(sorted({(Path(code.co_filename).name, code.co_firstlineno)
              for code in (entry.code for entry in profiler.getstats())
              if isinstance(code, types.CodeType) and Path(code.co_filename).parent == library}))
"""

# Library definitions that no command and no benchmark operation runs, each
# kept for the reason given.  The __init__ of a typed error, which runs only
# on bad input, needs no entry.
NOT_RUN = {
    "perms.generate_group": "the closure of generators, the oracle for the groups the library builds",
    "perms.group_from_elements": "proves a set closed under composition, the oracle for a group "
                                 "the library lists; the benchmark traces it",
    "steiner.TripleSystem.block_through": "the benchmark traces it by name",
    "embed.embedding_isomorphisms": "lists every map with its flag, the oracle base group of the "
                                    "colour group; the benchmark traces it by name",
    "embed.rotation_from_cycles": "builds a rotation from literal cycles, for the embedding tests",
    "octonion.point_to_unit": "basis_product reads it on an orientation, the definition that "
                              "cartan_table is tested against",
    "embed.RotationSystem.rho_inv": "the benchmark's check of a Reversing classification reads "
                                    "it; the benchmark's relabellings are all Preserving",
}


def definitions(tree: ast.AST, prefix: str = "") -> Iterator[tuple[str, ast.FunctionDef]]:
    """(qualified name, node) of every function, method and nested function."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, ast.FunctionDef):
            yield prefix + node.name, node
            yield from definitions(node, f"{prefix}{node.name}.")
        elif isinstance(node, ast.ClassDef):
            yield from definitions(node, f"{prefix}{node.name}.")
        else:
            yield from definitions(node, prefix)


def is_typed_error_init(module: str, qualname: str) -> bool:
    owner, _, name = qualname.rpartition(".")
    cls = getattr(importlib.import_module(f"fano21.{module}"), owner, None)
    return name == "__init__" and isinstance(cls, type) and issubclass(cls, Exception)


def test_every_definition_has_a_reader():
    # every function and method, operators included, runs in the census or
    # is listed; each top-level class is read by a library module (the
    # re-exports of __init__ do not count) or by the benchmark, which names
    # its trace targets in strings
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        str(ROOT / part) for part in ("src", "tests", "benchmarks")))
    out = subprocess.run([sys.executable, "-c", CENSUS], env=env, capture_output=True,
                         text=True, timeout=120, check=True).stdout
    ran = set(ast.literal_eval(out.splitlines()[-1]))
    modules = {path.name: ast.parse(path.read_text())
               for path in sorted((ROOT / "src" / "fano21").glob("*.py"))}
    unrun, listed_but_run, defined = [], [], set()
    for file, tree in modules.items():
        module = file.removesuffix(".py")
        for qualname, node in definitions(tree):
            name = f"{module}.{qualname}"
            defined.add(name)
            lines = {node.lineno, *(d.lineno for d in node.decorator_list)}
            if any((file, line) in ran for line in lines):
                listed_but_run += [name] if name in NOT_RUN else []
            elif name not in NOT_RUN and not is_typed_error_init(module, qualname):
                unrun.append(name)
    assert not unrun, f"run by no command or benchmark operation: {unrun}"
    assert not listed_but_run, f"listed in NOT_RUN but run: {listed_but_run}"
    stale = sorted(NOT_RUN.keys() - defined)
    assert not stale, f"listed in NOT_RUN but not defined: {stale}"

    library = set().union(*(read_names(tree) for name, tree in modules.items()
                            if name != "__init__.py"))
    benchmark = set()
    for path in sorted((ROOT / "benchmarks").glob("*.py")):
        tree = ast.parse(path.read_text())
        benchmark |= read_names(tree)
        benchmark.update(word for n in ast.walk(tree)
                         if isinstance(n, ast.Constant) and isinstance(n.value, str)
                         for word in re.findall(r"\w+", n.value))
    unread = [f"{name}:{node.name}" for name, tree in modules.items() for node in tree.body
              if isinstance(node, ast.ClassDef) and node.name not in library | benchmark]
    assert unread == []


def test_only_steiner_reads_the_isomorphism_kernel():
    # other modules search through isomorphisms, is_isomorphic,
    # automorphism_images or automorphism_chain, one boundary at which to
    # count the kernel's work
    assert set(library_readers("_isomorphism_kernel")) <= {"steiner.py"}


def test_library_raises_only_typed_errors():
    # an assert or an AssertionError would reach the CLI as a traceback
    found = []
    for path in sorted((ROOT / "src" / "fano21").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Assert) or (
                isinstance(node, ast.Raise) and "AssertionError" in ast.unparse(node)
            ):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []
