"""Run one child process and account for it alone.

``getrusage(RUSAGE_CHILDREN)`` sums CPU over every child reaped so far and
keeps a running maximum of max-RSS, so it cannot attribute either to one
invocation.  ``os.wait4`` returns the rusage of the one child it reaps.
"""

from __future__ import annotations

import os
import signal
import subprocess
import threading
import time
from dataclasses import dataclass


@dataclass(frozen=True)
class Outcome:
    wall_s: float  # from spawn to exit
    cpu_s: float  # user plus system
    maxrss_mb: float
    returncode: int
    timed_out: bool


def spawn(argv, *, cwd, env, stdout_path, stderr_path, timeout: float) -> Outcome:
    """Run ``argv`` to completion, killing it after ``timeout`` seconds."""
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdin=subprocess.DEVNULL, stdout=out, stderr=err)
    lock = threading.Lock()
    state = {"exited": False, "timed_out": False}

    def kill_if_running():
        # The child is reaped only after ``exited`` is set under the lock,
        # so this never signals a reused pid.
        with lock:
            if not state["exited"]:
                state["timed_out"] = True
                os.kill(proc.pid, signal.SIGKILL)

    timer = threading.Timer(timeout, kill_if_running)
    timer.start()
    try:
        # Wait for the exit without reaping, so the wall time excludes the
        # rusage bookkeeping below and the pid stays ours until wait4.
        os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
        wall = time.perf_counter() - start
        with lock:
            state["exited"] = True
    except BaseException:
        with lock:
            state["exited"] = True
            os.kill(proc.pid, signal.SIGKILL)
        os.wait4(proc.pid, 0)
        proc.returncode = -signal.SIGKILL
        raise
    finally:
        timer.cancel()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Outcome(
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        maxrss_mb=usage.ru_maxrss / 1024.0,  # Linux reports KiB
        returncode=proc.returncode,
        timed_out=state["timed_out"],
    )
