import contextlib
import io
import re
from pathlib import Path

import qbaker

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_quick_start_runs():
    """The README's Python quick start runs as written and prints overlap 1.0."""
    text = README.read_text(encoding="utf-8")
    section = text.split("## Quick start", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {})
    overlap = float(out.getvalue().splitlines()[0])
    assert abs(overlap - 1.0) < 1e-12


def test_every_export_resolves():
    """Each name in `qbaker.__all__` is an attribute of the package, so a
    removed function cannot stay listed."""
    assert [name for name in qbaker.__all__ if not hasattr(qbaker, name)] == []
