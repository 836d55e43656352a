"""README's library entry points must import and run, so a deleted or
renamed public name, or a changed signature, fails here rather than in a
reader's session."""

import pathlib
import re

import numpy as np

from ocran.core import save_scenario
from ocran.verify import random_gaussian_scenario

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
