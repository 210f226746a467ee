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


def test_only_perms_reads_the_closure_oracle():
    # the library proves each group as it builds it; group_from_elements,
    # which proves closure, is for tests
    readers = []
    for path in sorted((ROOT / "src" / "fano21").glob("*.py")):
        tree = ast.parse(path.read_text())
        names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        names |= {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
        names |= {a.name for n in ast.walk(tree) if isinstance(n, ast.ImportFrom) for a in n.names}
        if "group_from_elements" in names and path.name != "perms.py":
            readers.append(path.name)
    assert readers == []
