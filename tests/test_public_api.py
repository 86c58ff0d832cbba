"""The package root exports exactly what the README's "Library use" shows."""

import ast
import re
from pathlib import Path

import cged

README = Path(__file__).resolve().parent.parent / "README.md"


def readme_root_imports() -> set[str]:
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library use", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    names = set()
    for node in ast.parse(block).body:
        if isinstance(node, ast.ImportFrom) and node.module == "cged":
            names.update(alias.name for alias in node.names)
    return names


def test_all_matches_the_readme_library_block():
    names = readme_root_imports()
    assert names, "the README's Library use block imports nothing from cged"
    assert set(cged.__all__) == names | {"__version__"}
    assert len(cged.__all__) == len(set(cged.__all__))
    for name in cged.__all__:
        assert hasattr(cged, name), name
