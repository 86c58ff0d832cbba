"""The README shows exactly the package root's exports ("Library use") and
the cost flags, one per ``CostModel`` field ("Cost model"), and its command
lines and GXL example are ones the code accepts."""

import ast
import dataclasses
import re
import shlex
from pathlib import Path

import cged
from cged.cli import build_parser
from cged.costs import CostModel
from cged.dataset import parse_gxl

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


def readme_block(heading: str, lang: str = "") -> str:
    """The first fenced block after ``heading`` in the README."""
    section = README.read_text(encoding="utf-8").split(heading, 1)[1]
    return re.search(rf"```{lang}\n(.*?)```", section, re.S).group(1)


def test_cost_flags_match_the_readme_table():
    section = README.read_text(encoding="utf-8").split("### Cost model\n", 1)[1]
    rows = [[cell.strip(" `") for cell in line.strip("|").split("|")]
            for line in section.split("\n## ", 1)[0].splitlines()
            if line.startswith("| `--")]
    assert [(flag, name, float(default)) for flag, name, default, _ in rows] == [
        ("--" + f.name.replace("_", "-"), f.name, f.default)
        for f in dataclasses.fields(CostModel)]


def test_readme_command_lines_parse():
    lines = [line for line in readme_block("## Command line", "sh").splitlines()
             if line.startswith("cged ")]
    assert len(lines) >= 5
    parser = build_parser()
    for line in lines:
        argv = shlex.split(line)[1:]
        # an unknown flag or value exits here with argparse's usage error
        assert parser.parse_args(argv).command == argv[0], line


def test_readme_gxl_example_parses():
    g = parse_gxl(readme_block("### Datasets", "xml"))
    assert g.name == "my-graph"
    assert g.order == 3 and g.size == 2 and g.edge_label(1, 2) == 2.5
