"""Hermetic runs: a scrubbed environment and a fingerprint.

One ``python3 -m bench.run`` is one run in a fresh interpreter, so one
workload's imports, allocator state and forked workers never reach the
next one's numbers. ``prepare()`` must run before anything under
``src/`` is imported: the program reads its ``REPRO_*`` knobs at import
time (``REPRO_OBS``, ``REPRO_PAIRS``, ``REPRO_TIER`` ...), so scrubbing
them afterwards would be too late.
"""

from __future__ import annotations

import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / "bench" / "out"

#: One driver process plus the service's two workers.
MIN_CORES = 2


def cores() -> int:
    """Cores this process may run on (affinity-aware)."""
    return len(os.sched_getaffinity(0))


def prepare() -> None:
    """Make this process a hermetic benchmark process, or refuse."""
    if cores() < MIN_CORES:
        raise SystemExit(
            f"bench: refusing to run on {cores()} core(s): the serve "
            f"workloads are one driver plus two workers and need >= {MIN_CORES}"
        )
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"bench: the program is not at {SRC}; nothing to measure")
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    sys.path.insert(0, str(SRC))


def child_pids() -> list[int]:
    """Processes whose parent is this one, reaped or not (from ``/proc``)."""
    me, found = os.getpid(), []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path("/proc", entry, "stat").read_text()
        except OSError:  # ended while we looked
            continue
        # "pid (comm) state ppid ..."; comm may hold spaces and brackets.
        if int(stat.rpartition(")")[2].split()[1]) == me:
            found.append(int(entry))
    return found


def stop_children() -> None:
    """Stop every process this run started and wait until each has ended.

    ``QueryService.close`` joins its workers, but one process outlives
    it: creating the first shared-memory segment spawns Python's
    ``multiprocessing.resource_tracker``, which only ends once its parent
    has gone — after this process's exit, still running when the caller
    looks. It is stopped here (its pipe closed, then waited for), and so
    is anything else a failed run left behind, on every way out.
    """
    import multiprocessing
    import signal
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():  # also reaps the ended
        child.kill()
        child.join()
    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        try:
            stop()  # closes the tracker's pipe and waits for its exit
        except (OSError, ChildProcessError):
            pass
    for pid in child_pids():
        try:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        except (ProcessLookupError, ChildProcessError):
            pass


def git_commit() -> str | None:
    """HEAD of the checkout, or None when it is not a git repository."""
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
        capture_output=True, text=True, timeout=30,
    )
    return (done.stdout.strip() or None) if done.returncode == 0 else None


def fingerprint() -> dict:
    """What the numbers were measured on; stamped on every result."""
    import numpy
    import scipy

    return {
        "machine": platform.machine(),
        "cpu_count": cores(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": git_commit(),
    }


def fingerprint_id(fp: dict) -> str:
    """File-name form of the fingerprint (the commit is not part of it)."""
    return (
        f"{fp['machine']}-{fp['cpu_count']}cpu-py{fp['python']}"
        f"-np{fp['numpy']}-sp{fp['scipy']}"
    )
