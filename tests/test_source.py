import ast
import re
from pathlib import Path

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


# Library definitions that only tests read, kept as oracles and helpers.
TEST_ONLY = {
    "generate_group": "the closure of generators, the oracle for the groups the library builds",
    "map_sts": "relabels a system, for the isomorphism and relabelling tests",
    "rotation_from_cycles": "builds a rotation from literal cycles, for the embedding tests",
}


def test_every_definition_has_a_reader():
    # each top-level function or class is read by a library module (the
    # re-exports of __init__ do not count), by the benchmark, which names
    # its trace targets in strings, or is a listed test oracle
    modules = {path.name: ast.parse(path.read_text())
               for path in sorted((ROOT / "src" / "fano21").glob("*.py"))}
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
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and node.name not in library | benchmark | TEST_ONLY.keys()]
    assert unread == []
    assert not TEST_ONLY.keys() & (library | benchmark)  # a listed name that gained a reader


def test_only_steiner_reads_the_isomorphism_kernel():
    # other modules search through isomorphisms, is_isomorphic or
    # automorphism_chain, one boundary at which to count the kernel's work
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
