"""The README's "Library" section: its example runs, and its list of
top-level exports is `relsync.__all__`."""

from __future__ import annotations

import re
from pathlib import Path

import relsync

README = Path(__file__).resolve().parent.parent / "README.md"


def library_section() -> str:
    text = README.read_text(encoding="utf-8")
    start = text.index("## Library")
    return text[start : text.index("\n## ", start + 1)]


def test_library_example_runs():
    (block,) = re.findall(r"```python\n(.*?)```", library_section(), re.DOTALL)
    # an import that no longer resolves raises here, as does a failed assert
    exec(compile(block, str(README), "exec"), {})


def test_listed_exports_are_the_top_level_exports():
    paragraph = library_section().split("Top-level exports:", 1)[1].split("\n\n", 1)[0]
    assert sorted(re.findall(r"`(\w+)`", paragraph)) == sorted(relsync.__all__)
