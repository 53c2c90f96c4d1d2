"""The README's scripts run to completion at small arguments."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

SCRIPTS = (("no_swap_experiment.py", "--sizes", "8,16"),)


@pytest.mark.parametrize("script", SCRIPTS, ids=[s[0] for s in SCRIPTS])
def test_script_exits_0(script):
    name, *args = script
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout and "UNEXPECTED" not in done.stdout


def test_every_script_is_run_here_and_named_in_the_readme():
    # a script added or deleted without this table and the README is caught
    on_disk = {path.name for path in (ROOT / "scripts").glob("*.py")}
    assert on_disk == {name for name, *_ in SCRIPTS}
    readme = (ROOT / "README.md").read_text()
    assert [name for name in sorted(on_disk) if f"scripts/{name}" not in readme] == []
