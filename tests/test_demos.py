"""Every demo runs to completion in its own process, with nothing on stderr,
and the README's Library snippet runs as written."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from chardeg import spec_text

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted(p.name for p in (ROOT / "demos").glob("*.py"))


def run_demo(name):
    src = str(ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}
    return subprocess.run(
        [sys.executable, str(ROOT / "demos" / name)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


@pytest.mark.parametrize("name", DEMOS)
def test_demo_runs_cleanly(name):
    done = run_demo(name)
    assert done.returncode == 0
    assert done.stderr == ""
    if name == "small_group_census.py":
        assert "24 isomorphism classes in total" in done.stdout


def test_all_four_demos_are_covered():
    assert DEMOS == [
        "character_degrees.py",
        "g_table.py",
        "small_group_census.py",
        "theorem_scans.py",
    ]


def test_readme_library_snippet_runs():
    """The README's Library code block imports from the package root and
    gets the values its comments state."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = text.split("## Library", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    scope = {}
    exec(compile(block, "README.md", "exec"), scope)
    assert scope["multiset"].group_order == 3420
    assert (scope["report"].min_order, spec_text(scope["report"].witness_specs[0])) == (
        56,
        "frob:2^3:7",
    )
