"""No module of the package, the suite or tools/ imports a name it never uses."""
import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
# __init__.py imports names only to re-export them.
FILES = sorted([p for p in (ROOT / "src" / "kronlab").glob("*.py") if p.name != "__init__.py"]
               + list((ROOT / "tests").glob("*.py")) + list((ROOT / "tools").glob("*.py")))


def unused_imports(source: str) -> list[str]:
    """Names bound by an import statement that no other node refers to."""
    tree = ast.parse(source)
    imported = {}  # bound name -> line
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}"
            for line, name in sorted((line, name) for name, line in imported.items())
            if name not in used]


@pytest.mark.parametrize("path", FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_unused_import_is_found():
    assert unused_imports("import os\nfrom a.b import c as d, e\ne()\n") == \
        ["line 1: os", "line 2: d"]
    assert unused_imports("import os.path\nos.path.join()\n") == []
