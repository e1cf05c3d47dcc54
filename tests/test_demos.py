"""Each demo runs to completion as a script, from an empty directory."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import vprkit as vk

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_the_three_demos_are_found():
    assert [demo.name[:3] for demo in DEMOS] == ["01_", "02_", "03_"]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda demo: demo.stem)
def test_demo_exits_zero(demo, tmp_path):
    # The demo imports the vprkit these tests import.
    package_root = str(Path(vk.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, str(demo)],
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    assert done.stdout
    assert not any(tmp_path.iterdir())  # the demos write no files
