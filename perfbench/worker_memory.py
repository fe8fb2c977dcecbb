"""Engine worker entry point that also records the worker's own peak RSS.

``CampaignWorkload`` rebinds ``repro.core.engine._pooled_worker`` to
:func:`pooled_worker` in the benchmark process, so every engine worker it
spawns unpickles and runs this function instead.  It runs the engine's own
worker unchanged and then writes the worker's ``VmHWM`` to a file named by
its pid in the directory named by ``HWM_DIR_ENV``.  ``VmHWM`` counts only
the pages of the process image after ``exec``; the kernel's ``ru_maxrss``
for a reaped child also counts the parent's pages from before it, so it can
never read below the benchmark process's own RSS.

This module imports nothing of the benchmark, so a worker carries none of
the benchmark's memory.
"""

from __future__ import annotations

import os

from repro.core import engine

#: Environment variable naming the directory that collects worker peaks.
HWM_DIR_ENV = "PERFBENCH_WORKER_HWM_DIR"

_engine_worker = engine._pooled_worker


def peak_rss_kb(pid="self") -> int:
    """``VmHWM`` of a live process, in kB."""
    with open(f"/proc/{pid}/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError(f"no VmHWM in /proc/{pid}/status")


def pooled_worker(conn, *args) -> None:
    try:
        _engine_worker(conn, *args)
    finally:
        directory = os.environ[HWM_DIR_ENV]
        with open(os.path.join(directory, str(os.getpid())), "w") as out:
            out.write(str(peak_rss_kb()))
