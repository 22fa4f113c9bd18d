"""The README's Python examples run, and the LP example prints what its comment says."""

from __future__ import annotations

import contextlib
import io
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.S | re.M)


def printed_by(source: str) -> str:
    """What running ``source`` prints."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(source, str(README), "exec"), {"__name__": "readme"})
    return out.getvalue()


@pytest.mark.parametrize("source", BLOCKS, ids=[f"block-{k}" for k in range(len(BLOCKS))])
def test_every_python_block_of_the_readme_runs(source):
    printed_by(source)


def test_the_lp_example_prints_its_comment():
    (source,) = [block for block in BLOCKS if "sspsim.lp" in block]
    comments = [line.split("#", 1)[1].strip() for line in source.splitlines() if line.startswith("print(")]
    assert comments == ["1.0 [0.0, -1.0]"]
    assert printed_by(source).splitlines() == comments
