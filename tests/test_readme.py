"""README's library entry points must import and run, its shell examples
must parse, its command table and ``verify`` paragraph must name the CLI's
commands and suites, and every module attribute it names must exist, so a
deleted or renamed public name, constant, command, flag or suite, or a
changed signature, fails here rather than in a reader's session."""

import argparse
import importlib
import pathlib
import pkgutil
import re
import shlex

import numpy as np

import ocran
from ocran.cli import build_parser
from ocran.verify import SUITE_NAMES, random_gaussian_scenario

from helpers import save_scenario

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def entry_point_block() -> str:
    """The first python block under "Library entry points"."""
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library entry points", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def entry_point_imports() -> list[str]:
    """The import lines of the entry-point block."""
    return [line for line in entry_point_block().splitlines()
            if line.startswith(("from ", "import "))]


def test_library_entry_points_import():
    lines = entry_point_imports()
    assert len(lines) >= 5
    for line in lines:
        exec(line, {})


def test_library_entry_points_run(tmp_path, monkeypatch, capsys):
    # the block reads "scenario.json" from the working directory: a small
    # Gaussian scenario, L = 2 users and K = 2 relays
    save_scenario(random_gaussian_scenario(np.random.default_rng(0), 2, 2),
                  tmp_path / "scenario.json")
    monkeypatch.chdir(tmp_path)
    exec(entry_point_block(), {})
    assert len(capsys.readouterr().out.splitlines()) == 2


def test_shell_examples_parse():
    # every `ocran ...` line of a sh block, comments dropped
    text = README.read_text(encoding="utf-8")
    lines = [line for block in re.findall(r"```sh\n(.*?)```", text, re.S)
             for line in block.splitlines() if line.startswith("ocran ")]
    assert len(lines) >= 3
    parser = build_parser()
    for line in lines:
        try:
            parser.parse_args(shlex.split(line, comments=True)[1:])
        except SystemExit as exc:
            raise AssertionError(f"README example does not parse: {line}") from exc


def test_command_table_names_every_subcommand():
    text = README.read_text(encoding="utf-8")
    table = text.split("| command | what it does |", 1)[1].split("\n\n", 1)[0]
    listed = re.findall(r"^\| `([a-z-]+)` \|", table, re.M)
    (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    assert sorted(listed) == sorted(sub.choices)


def test_verify_paragraph_names_every_suite():
    text = README.read_text(encoding="utf-8")
    paragraph = text.split("`verify` runs five seeded suites", 1)[1].split("\n\n", 1)[0]
    for name in SUITE_NAMES:
        assert f"`{name}`" in paragraph


def test_named_module_attributes_exist():
    # every backticked `module.NAME` or `ocran.module.NAME` whose module is
    # one of the package's, such as `core.SAMPLER_BLOCK`
    modules = {m.name for m in pkgutil.iter_modules(ocran.__path__)}
    text = README.read_text(encoding="utf-8")
    named = {(module, name) for module, name in re.findall(r"`(?:ocran\.)?(\w+)\.(\w+)`", text)
             if module in modules}
    assert ("core", "SAMPLER_BLOCK") in named and len(named) >= 5
    for module, name in sorted(named):
        assert hasattr(importlib.import_module(f"ocran.{module}"), name), f"{module}.{name}"
