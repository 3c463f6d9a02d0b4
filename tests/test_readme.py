"""README's ``## Library`` code block runs against the package as it is, so a
name the package no longer has, left in the docs, fails the suite.  Its
"Removed names" list works the other way: a retired name that comes back
fails it too."""
import importlib
import pkgutil
import re
import types
from pathlib import Path

import kronlab

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_block_runs():
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    assert "triple_constants" in block
    exec(compile(block, f"{README.name} (## Library)", "exec"), {})


def test_exports_match_public_names_and_removed_names_stay_gone():
    """kronlab.__all__ is exactly the package's public non-module names, and
    no name of README's "Removed names" list (on each item, the backticked
    names before its first colon) is defined in the package or its modules."""
    public = {name for name, value in vars(kronlab).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert sorted(kronlab.__all__) == sorted(public)

    text = README.read_text(encoding="utf-8")
    block = text.split("\nRemoved names", 1)[1].split("\n\n", 2)[1]
    removed = {name for item in re.split(r"^- ", block, flags=re.MULTILINE)[1:]
               for name in re.findall(r"`(\w+)`", item.split(": ", 1)[0])}
    assert {"toggle_reduce", "alpha_witness", "angular_norm",
            "nearest_int_distance", "nearest_int"} <= removed
    modules = [kronlab] + [importlib.import_module(f"kronlab.{info.name}")
                           for info in pkgutil.iter_modules(kronlab.__path__)]
    assert len(modules) > 5
    for module in modules:
        assert not removed & set(dir(module)), module.__name__
