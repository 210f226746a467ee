import ast
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


def library_readers(name: str) -> list[str]:
    """The library modules that name ``name``, as a variable, an attribute
    or an import."""
    readers = []
    for path in sorted((ROOT / "src" / "fano21").glob("*.py")):
        tree = ast.parse(path.read_text())
        names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        names |= {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
        names |= {a.name for n in ast.walk(tree) if isinstance(n, ast.ImportFrom) for a in n.names}
        if name in names:
            readers.append(path.name)
    return readers


def test_only_perms_reads_the_closure_oracle():
    # the library proves each group as it builds it; group_from_elements,
    # which proves closure, is for tests
    assert set(library_readers("group_from_elements")) <= {"perms.py"}


def test_only_perms_and_kirkman_read_the_stabilizer():
    # the common, oriented and algebra groups are pruned kernel searches and
    # the colour group a one-class test; the filter stays for the KTS group
    # and the #61 oracle
    assert set(library_readers("stabilizer")) <= {"perms.py", "kirkman.py"}


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
