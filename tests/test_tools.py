"""The discovery scripts under tools/ reproduce the frozen data files.

Each script runs on a copy of src/ and tools/, so the data it writes
lands in the copy and the committed files are only read.
"""

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DATA = Path("src") / "nbcensus" / "data"


@pytest.fixture
def checkout(tmp_path):
    ignore = shutil.ignore_patterns("__pycache__")
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=ignore)
    shutil.copytree(ROOT / "tools", tmp_path / "tools", ignore=ignore)
    return tmp_path


def run_tool(checkout: Path, script: str, *args: str):
    return subprocess.run([sys.executable, f"tools/{script}", *args],
                          cwd=checkout, capture_output=True, text=True,
                          timeout=600)


@pytest.mark.parametrize("script,data", [
    ("discover_catalog.py", "motif_patterns.json"),
    ("discover_walks.py", "walk_classes.json"),
])
def test_tool_reproduces_frozen_data(checkout, script, data):
    (checkout / DATA / data).unlink()
    result = run_tool(checkout, script)
    assert result.returncode == 0, result.stdout + result.stderr
    assert ((checkout / DATA / data).read_bytes()
            == (ROOT / DATA / data).read_bytes())


@pytest.mark.parametrize("script,data", [
    ("discover_catalog.py", "motif_patterns.json"),
    ("discover_walks.py", "walk_classes.json"),
])
def test_tool_refuses_arguments_without_writing(checkout, script, data):
    (checkout / DATA / data).write_text("untouched")
    result = run_tool(checkout, script, "--help")
    assert result.returncode == 2
    assert result.stderr.startswith("usage: ")
    assert (checkout / DATA / data).read_text() == "untouched"
