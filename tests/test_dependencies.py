"""The package runs on numpy alone.

numpy and scipy each ship their own BLAS with its own thread pool, and the
tracker's small products ran many times slower when calls alternated between
the two.  Importing scipy also costs most of the package's import time, which
every spawned batch worker pays again.
"""

import os
import subprocess
import sys
from pathlib import Path

import beamtrack

_SCRIPT = """
import sys
import beamtrack
import beamtrack.cli
from beamtrack.simulate import ScenarioConfig, run_frame

cfg = ScenarioConfig(L=1, M_T=4, M_R=4, N_T=2, N_R=2, frame_length=3e-4,
                     fine_step=1e-4, num_runs=1, seed=7)
record = run_frame(cfg, 0)
assert not record.diverged
print(",".join(sorted(name for name in sys.modules if name.split(".")[0] == "scipy")))
"""


def test_import_and_run_load_no_scipy():
    env = dict(os.environ)
    src = str(Path(beamtrack.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _SCRIPT], env=env, capture_output=True, text=True,
        check=True,
    )
    assert proc.stdout.strip() == ""
