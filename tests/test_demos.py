"""The demo scripts run to completion against the current API.

Each demo runs in a subprocess from a copy in ``tmp_path``, so a plot it
writes next to itself lands there and not in the source tree.
"""

import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import ivastream

DEMOS = Path(__file__).resolve().parent.parent / "demos"
SRC = Path(ivastream.__file__).resolve().parent.parent


def run_demo(name: str, tmp_path: Path) -> str:
    script = tmp_path / name
    shutil.copy(DEMOS / name, script)
    path = os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])
    result = subprocess.run(
        [sys.executable, str(script)],
        cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    return result.stdout


@pytest.mark.parametrize("name", ["01_batch_separation.py", "02_streaming_separation.py"])
def test_demo_runs(name, tmp_path):
    run_demo(name, tmp_path)


@pytest.mark.slow
def test_moving_source_demo_runs(tmp_path):
    # the package's one four-arm runner: a table row per arm, each with a
    # finite improvement in dB
    stdout = run_demo("03_moving_source_tracking.py", tmp_path)
    rows = [line.split() for line in stdout.splitlines() if " dB " in line]
    assert [row[0] for row in rows] == ["iss(all)", "iss(one)", "ip(all)", "ip(one)"]
    for _, _, _, improvement, unit, _ in rows:
        assert unit == "dB" and math.isfinite(float(improvement))
