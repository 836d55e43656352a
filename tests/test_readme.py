"""README's library entry points must import, so a deleted or renamed public
name fails here rather than in a reader's session."""

import pathlib
import re

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def entry_point_imports() -> list[str]:
    """The import lines of the first python block under "Library entry points"."""
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library entry points", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    return [line for line in block.splitlines() if line.startswith(("from ", "import "))]


def test_library_entry_points_import():
    lines = entry_point_imports()
    assert len(lines) >= 5
    for line in lines:
        exec(line, {})
