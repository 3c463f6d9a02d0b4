"""README's ``## Library`` code block runs against the package as it is, so a
name the package no longer has, left in the docs, fails the suite."""
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_block_runs():
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    assert "triple_constants" in block
    exec(compile(block, f"{README.name} (## Library)", "exec"), {})
