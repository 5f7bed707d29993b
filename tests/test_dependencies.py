"""An in-process run loads only what it runs: numpy alone, and no pool modules.

numpy and scipy each ship their own BLAS with its own thread pool, and the
tracker's small products ran many times slower when calls alternated between
the two.  Importing scipy also costs most of the package's import time, which
every spawned batch worker pays again.

Modules a run never calls still cost start-up time and resident memory.  Only
a batch that spawns workers needs ``multiprocessing`` and
``concurrent.futures``, and the run summary avoids numpy's ``median`` and
``quantile``, which import ``numpy.ma``.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import beamtrack

_SCRIPT = """
import json
import sys
import tempfile

import beamtrack
from beamtrack.cli import cmd_simulate

tiny = dict(L=1, M_T=4, M_R=4, N_T=2, N_R=2, frame_length=3e-4, fine_step=1e-4,
            num_runs=2, seed=7)
with tempfile.TemporaryDirectory() as out:
    overrides = [f"{key}={value}" for key, value in tiny.items()]
    assert cmd_simulate(None, overrides + [f"output_dir={out}"]) == 0
print(json.dumps(sorted(sys.modules)))
"""


@pytest.fixture(scope="module")
def loaded_modules():
    """Modules loaded by an in-process `simulate` call, summary included."""
    env = dict(os.environ, BEAMTRACK_THREADS="1")
    src = str(Path(beamtrack.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _SCRIPT], env=env, capture_output=True, text=True,
        check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize(
    "family", ["scipy", "multiprocessing", "concurrent.futures", "numpy.ma"]
)
def test_in_process_run_loads_no(loaded_modules, family):
    loaded = [m for m in loaded_modules if m == family or m.startswith(family + ".")]
    assert loaded == []
