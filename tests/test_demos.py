"""The quick demos run to completion.

Each demo is a script run in its own interpreter, as a reader would run it.
Demo 06, which spawns the worker pool and takes several seconds, is left out.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import beamtrack

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize(
    "script",
    [
        "01_array_geometry_and_steering.py",
        "02_fading_and_motion.py",
        "03_sounding_identities.py",
        "04_tracking_a_known_channel.py",
        "05_adaptive_beam_design.py",
    ],
)
def test_demo_exits_0(script):
    src = str(Path(beamtrack.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(DEMOS / script)], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
