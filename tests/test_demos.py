"""Every script in demos/ and every python block of README.md runs to
completion against this package."""
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import permlab

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README_BLOCKS = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text("utf-8"), re.S)


def _run(args):
    # the child imports the permlab this test imported, installed or not
    src = str(Path(permlab.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    out = _run([str(demo)])
    assert out.returncode == 0, out.stderr
    assert "Traceback" not in out.stderr
    assert out.stdout


def test_readme_python_blocks_run():
    assert README_BLOCKS
    for block in README_BLOCKS:
        out = _run(["-c", block])
        assert out.returncode == 0, out.stderr
