"""Smoke test: each demo script, and README's library quick start, runs and prints something."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def quick_start() -> str:
    """The Python block under README's "Library quick start" heading."""
    section = (ROOT / "README.md").read_text().split("## Library quick start", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


# the interpreter arguments of each run, by test id
RUNS = {script.name: [str(script)] for script in DEMOS}
RUNS["readme_quick_start"] = ["-c", quick_start()]


def test_demos_found():
    assert DEMOS


@pytest.mark.parametrize("script", RUNS)
def test_demo_runs(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, *RUNS[script]], cwd=ROOT, env=env, capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip()
