"""``env.stop_children``: a run ends with no process of its own alive."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]

#: Run in a fresh interpreter: stop_children kills every child of the
#: process that calls it, which must not be pytest.
SCRIPT = """
import subprocess, sys
from multiprocessing import resource_tracker, shared_memory
from bench import env

shm = shared_memory.SharedMemory(create=True, size=64)  # spawns the tracker
shm.close()
shm.unlink()
tracker = resource_tracker._resource_tracker._pid
stray = subprocess.Popen([sys.executable, "-c", "import time; time.sleep(600)"])
before = env.child_pids()
assert tracker in before and stray.pid in before, (tracker, stray.pid, before)
env.stop_children()
print(env.child_pids())
"""


def test_stop_children_ends_tracker_and_strays():
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT], cwd=ROOT, capture_output=True, text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
    assert done.stderr == ""  # the tracker ended without complaint
