"""The README's CLI examples and environment variables match the CLI, and
the package's exports resolve."""

import ast
import importlib
import re
import shlex
from pathlib import Path

import quadorbit
import quadorbit.algebra as algebra
import quadorbit.cli as cli

README = Path(__file__).resolve().parents[1] / "README.md"


def _cli_block() -> str:
    text = README.read_text()
    section = text[text.index("## CLI") :]
    return section[section.index("```sh") : section.index("```", section.index("```sh") + 5)]


def test_readme_cli_examples_parse():
    lines = [line for line in _cli_block().splitlines() if line.startswith("quadorbit ")]
    assert lines
    parser = cli.build_parser()
    for line in lines:
        args = parser.parse_args(shlex.split(line)[1:])
        assert callable(args.func), line


def test_readme_env_vars_match_cli():
    documented = set(re.findall(r"QUADORBIT_[A-Z_]+", README.read_text()))
    read = set(re.findall(r"QUADORBIT_[A-Z_]+", Path(cli.__file__).read_text()))
    assert documented == read


def test_algebra_exports_resolve():
    missing = [name for name in algebra.__all__ if not hasattr(algebra, name)]
    assert missing == []


def test_package_imports_exist():
    # Every name quadorbit/__init__.py imports from a submodule is defined there.
    tree = ast.parse(Path(quadorbit.__file__).read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    missing = []
    for node in imports:
        module = importlib.import_module("." * node.level + (node.module or ""), "quadorbit")
        missing += [f"{node.module}.{alias.name}" for alias in node.names if not hasattr(module, alias.name)]
    assert missing == []
