"""Every jamcast module imports on its own in a fresh interpreter, without warnings."""

import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import jamcast

SRC = Path(jamcast.__file__).resolve().parents[1]
# `jamcast.__main__` is the `python -m jamcast` entry point: importing it runs the CLI
MODULES = ["jamcast"] + sorted(
    m.name
    for m in pkgutil.walk_packages(jamcast.__path__, "jamcast.")
    if m.name != "jamcast.__main__"
)


def test_every_module_is_listed():
    assert {"jamcast.parallel", "jamcast.trees.engine", "jamcast.cli"} <= set(MODULES)


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_in_a_fresh_interpreter(module):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    result = subprocess.run(
        [sys.executable, "-W", "error", "-c", f"import {module}"],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
