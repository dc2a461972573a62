"""Run one CLI invocation in a forked child, one at a time.

The parent has imported ``poissonkit.cli`` and has run none of its code, so
every child starts from the state a fresh ``poissonkit`` process has after
import: no algebra built by an earlier operation survives into the next.
The child times ``run_command(argv)`` from entry to the exit code it returns,
sends the verdict (and, when traced, its spans) back through a pipe, and
exits; the parent reads the child's peak RSS from ``wait4``.  An untraced
child also samples the host's speed while it works (hostspeed.py) and
reports its time-to-verdict corrected for it as ``verdict_s``.
"""

from __future__ import annotations

import json
import os
import select
import signal
import sys
import time
import traceback

from hostspeed import SpeedProbe
from tracing import Tracer


def _child(argv: list[str], traced: bool) -> dict:
    from poissonkit import cli

    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, 1)
    os.dup2(devnull, 2)
    tracer = Tracer() if traced else None
    speed = None if traced else SpeedProbe()
    if tracer:
        tracer.install()
    if speed:
        speed.start()
    start = time.perf_counter()
    try:
        code, report = cli.run_command(argv)
    except Exception:  # an escaped exception is an error verdict, reported with its traceback
        code, report = None, None
        error = traceback.format_exc(limit=3)
    elapsed = time.perf_counter() - start
    if speed:
        speed.stop()
    sys.stdout.flush()
    result = {"exit": code, "elapsed_s": elapsed,
              "values": {} if report is None else {str(k): str(v) for k, v in report.values.items()}}
    if speed:
        result["verdict_s"] = speed.correct(elapsed)
    if code is None:
        result["error"] = error
    if tracer:
        tracer.remove()
        result["trace"] = tracer.export()
    return result


def run_op(argv: list[str], traced: bool = False, timeout_s: float = 60.0) -> dict:
    """Verdict, time-to-verdict and peak RSS of one CLI invocation in a fresh child.

    ``elapsed_s`` is the wall time; untraced, ``verdict_s`` is the same time at reference host speed.
    """
    sys.stdout.flush()
    sys.stderr.flush()
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:  # child: never return into the parent's stack
        os.close(read_fd)
        try:
            payload = json.dumps(_child(list(argv), traced)).encode()
        except BaseException:
            payload = json.dumps({"exit": None, "elapsed_s": 0.0, "error": traceback.format_exc(limit=3)}).encode()
        try:
            with os.fdopen(write_fd, "wb") as out:
                out.write(payload)
        finally:
            os._exit(0)

    os.close(write_fd)
    chunks = []
    deadline = time.monotonic() + timeout_s
    timed_out = False
    with os.fdopen(read_fd, "rb") as pipe:
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                timed_out = True
                os.kill(pid, signal.SIGKILL)
                break
            ready, _, _ = select.select([pipe], [], [], remaining)
            if ready:
                chunk = os.read(pipe.fileno(), 1 << 20)
                if not chunk:
                    break
                chunks.append(chunk)
    _, status, usage = os.wait4(pid, 0)
    peak_rss_mb = usage.ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux
    if timed_out:
        return {"exit": None, "elapsed_s": timeout_s, "error": f"timed out after {timeout_s} s",
                "peak_rss_mb": peak_rss_mb}
    try:
        result = json.loads(b"".join(chunks))
    except ValueError:
        result = {"exit": None, "elapsed_s": 0.0, "error": f"child ended without a result (status {status})"}
    result["peak_rss_mb"] = peak_rss_mb
    return result
