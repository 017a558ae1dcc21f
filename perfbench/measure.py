"""Measurements taken outside the workload's timed passes: fresh-interpreter
set-up and CLI start, peak memory, and standalone verification timing."""

from __future__ import annotations

import os
import resource
import statistics
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from pathlib import Path

from .speed import NEIGHBOURS, SpeedMeter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CHILD_TIMEOUT_S = 60
FRESH_RUNS = 9  # timed fresh interpreters per figure, after one untimed
VERIFY_ROUNDS = 5


def _child_env() -> dict:
    env = dict(os.environ)
    paths = [str(SRC), str(ROOT)]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def fresh_interpreter_s(argv: list[str]) -> float:
    """Median time of FRESH_RUNS fresh ``python`` processes at the reference
    speed, after one untimed run that warms the file cache (and leaves
    compiled bytecode behind unless PYTHONDONTWRITEBYTECODE is set).

    The speed probe runs in this process before and after each child, so
    this process and its children share one CPU until the measurement
    ends.  The wait blocks in waitpid:
    ``subprocess.run(timeout=...)`` polls with sleeps of up to 50 ms,
    which would quantize the measurement, so a timer thread enforces the
    time limit instead.
    """
    with _pinned():
        return _fresh_interpreter_s([sys.executable, *argv])


@contextmanager
def _pinned():
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(allowed)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, allowed)


def _fresh_interpreter_s(cmd: list[str]) -> float:
    env = _child_env()
    speed = SpeedMeter()
    spans = []
    for i in range(FRESH_RUNS + 1):
        for _ in range(NEIGHBOURS):
            speed.tick()
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            cmd, cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL
        )
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            code = proc.wait()
        finally:
            watchdog.cancel()
        t1 = time.perf_counter()
        if code != 0:
            raise subprocess.CalledProcessError(code, cmd)
        if i:
            spans.append((t0, t1))
    for _ in range(NEIGHBOURS):
        speed.tick()
    return statistics.median((b - a) * speed.scale(a, b) for a, b in spans)


def setup_s(workload: str, seed: int) -> float:
    """Fresh interpreter: import treepack and build the workload's inputs."""
    code = (
        "from perfbench.workloads import WORKLOADS; "
        f"WORKLOADS[{workload!r}]({seed}).build()"
    )
    return fresh_interpreter_s(["-c", code])


def cli_cold_start_s(seed: int) -> float:
    return fresh_interpreter_s(
        ["-m", "treepack.cli", "gen", "--n", "12", "--seed", str(seed)]
    )


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def verification_us(pairs) -> tuple[float, float]:
    """Median per-call microseconds of ``is_complete`` and ``orientation``
    over (family, labeling) pairs, each round timing every pair once."""
    from treepack import packing

    def per_call(fn, reps):
        samples = []
        for _ in range(VERIFY_ROUNDS):
            t0 = time.perf_counter()
            for _ in range(reps):
                for family, lab in pairs:
                    fn(family, lab)
            samples.append((time.perf_counter() - t0) / (reps * len(pairs)) * 1e6)
        return statistics.median(samples)

    return per_call(packing.is_complete, 40), per_call(packing.orientation, 4)
