"""Every demo runs to completion in its own process, with nothing on stderr."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

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
