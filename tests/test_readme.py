"""The README's Python quick start runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def quick_start() -> str:
    """The first ```python block after the "Python quick start" heading."""
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Python quick start") :]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_quick_start_runs():
    namespace: dict = {}
    exec(compile(quick_start(), str(README), "exec"), namespace)
    assert namespace["eta_map"].shape == (401, 1501)
    assert namespace["d"].shape == namespace["f"].shape
