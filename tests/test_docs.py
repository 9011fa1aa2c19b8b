"""The README's CLI examples and environment variables match the CLI."""

import re
import shlex
from pathlib import Path

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
