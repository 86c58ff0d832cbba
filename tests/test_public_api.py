"""The README shows exactly the package root's exports ("Library use") and
the keys a cost-model file accepts ("Cost model files"), and its command
lines and debug-format example are ones the code accepts."""

import ast
import re
import shlex
from pathlib import Path

import cged
from cged.cli import build_parser
from cged.costs import CostModel, _CONFIG_KEYS, parse_cost_config
from cged.dataset import parse_debug_graph

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


def test_config_keys_match_the_readme_block():
    block = readme_block("### Cost model files (`--config`)")
    keys = [line.split("=", 1)[0].strip() for line in block.splitlines() if "=" in line]
    assert keys == list(_CONFIG_KEYS)
    # the block is a valid file that spells out the defaults
    assert parse_cost_config(block) == CostModel()


def test_readme_command_lines_parse():
    lines = [line for line in readme_block("## Command line", "sh").splitlines()
             if line.startswith("cged ")]
    assert len(lines) >= 5
    parser = build_parser()
    for line in lines:
        argv = shlex.split(line)[1:]
        # an unknown flag or value exits here with argparse's usage error
        assert parser.parse_args(argv).command == argv[0], line


def test_readme_debug_format_example_parses():
    g = parse_debug_graph(readme_block("### Datasets"))
    assert g.order > 0 and g.size > 0
