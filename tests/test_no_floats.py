"""No module of the package holds a float literal or calls float(): every
comparison the package makes is between exact integers or Fractions, so no
float can enter one.  Strings, docstrings among them, are not counted."""
import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted((ROOT / "src" / "kronlab").glob("*.py"))


def floats(source: str) -> list[str]:
    """The float and complex literals and the float(...) calls in source."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            found.append(f"line {node.lineno}: literal {node.value!r}")
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "float"):
            found.append(f"line {node.lineno}: float() call")
    return found


def test_package_modules_are_found():
    assert {p.name for p in FILES} >= {"__init__.py", "cli.py", "oracle.py", "exact_arith.py"}


@pytest.mark.parametrize("path", FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_float_in_package(path):
    assert floats(path.read_text()) == []


def test_float_is_found():
    assert floats("x = 0.5\ny = float(x)\nz = 2j\n") == \
        ["line 1: literal 0.5", "line 2: float() call", "line 3: literal 2j"]
    assert floats('"""0.1"""\nv = "0.1.0"\nw = 1 / 2\nu = int("3")\n') == []
