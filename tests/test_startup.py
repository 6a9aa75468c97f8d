"""Start-up: what importing the package, the CLI and each command loads.

The pytest process has already imported every module, so each check that
reads sys.modules runs in a fresh interpreter of its own.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import chardeg

SRC = str(Path(chardeg.__file__).resolve().parents[1])
PATH = os.environ.get("PYTHONPATH")
ENV = {**os.environ, "PYTHONPATH": SRC + (os.pathsep + PATH if PATH else "")}
ENGINE = {"chardeg.degrees", "chardeg.smallgroups", "chardeg.solver", "chardeg.cache"}


def loaded_after(code: str) -> set[str]:
    """The modules a fresh interpreter holds after running code: chardeg's
    own and numpy, if loaded."""
    probe = (
        f"{code}\nimport json, sys\n"
        "print(json.dumps([m for m in sys.modules if m == 'numpy' or m.startswith('chardeg')]))"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=ENV, timeout=60
    )
    assert done.returncode == 0, done.stderr
    return set(json.loads(done.stdout.splitlines()[-1]))


def test_import_package_loads_no_submodule():
    assert loaded_after("import chardeg") == {"chardeg"}


def test_import_cli_loads_neither_numpy_nor_the_engine():
    loaded = loaded_after("import chardeg.cli")
    assert "numpy" not in loaded
    assert not loaded & ENGINE, loaded


@pytest.mark.parametrize(
    "argv", [["--version"], ["gvalue"], ["no-such-command"], ["scan-a", "--max-p", "x"]]
)
def test_version_and_usage_errors_load_no_numpy(argv):
    """`python -m chardeg` itself, each module it imports listed on stderr."""
    done = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "chardeg", *argv],
        capture_output=True, text=True, env=ENV, timeout=60,
    )
    assert done.returncode == (0 if argv == ["--version"] else 2)
    imported = {
        line.rsplit("|", 1)[-1].strip()
        for line in done.stderr.splitlines()
        if line.startswith("import time:")
    }
    assert "numpy" not in {m.split(".")[0] for m in imported}
    assert {m for m in imported if m.startswith("chardeg")} == {
        "chardeg", "chardeg.cli", "chardeg.errors"
    }


@pytest.mark.parametrize("command", ["scan-a", "scan-b", "kanold"])
def test_scans_load_neither_the_engine_nor_the_search(command):
    loaded = loaded_after(
        "import contextlib, io\nfrom chardeg.cli import run\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert run([{command!r}, '--max-p', '100', '--no-timestamp']) == 0"
    )
    assert not loaded & {"chardeg.degrees", "chardeg.smallgroups", "chardeg.cache"}, loaded


def test_every_public_name_is_its_home_modules():
    homes = {}
    for module in ("catalog", "degrees", "smallgroups", "solver"):
        mod = importlib.import_module(f"chardeg.{module}")
        homes.update({name: getattr(mod, name) for name in mod.__all__})
    names = [n for n in chardeg.__all__ if n != "__version__"]
    assert len(names) == 12
    for name in names:
        assert getattr(chardeg, name) is homes[name], name


def test_star_import_and_dir():
    namespace = {}
    exec("from chardeg import *", namespace)
    assert set(chardeg.__all__) <= set(namespace)
    assert namespace["__version__"] == chardeg.__version__
    assert set(chardeg.__all__) <= set(dir(chardeg))


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        chardeg.no_such_name  # noqa: B018
    assert not hasattr(chardeg, "DegreeMultiset")  # not re-exported
