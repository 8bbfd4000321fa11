"""Process hygiene of the benchmark harness.

Run from the root of a checkout::

    python3 -m pytest perfbench/tests -q

Each test drives ``perfbench/run.py`` as a subprocess, the way the
benchmark is run, and checks from outside that nothing it started
outlives it: no process, no ``/dev/shm/repro-shm*`` segment, no temp
root.
"""

from __future__ import annotations

import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
RUN = [sys.executable, str(BENCH_DIR / "run.py")]
sys.path.insert(0, str(BENCH_DIR))

from common import descendants, shm_segments  # noqa: E402


def _wait_for(predicate, timeout: float, what: str) -> None:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.05)
    raise AssertionError(f"timed out waiting for {what}")


def _alive(pid: int) -> bool:
    try:
        state = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
    except OSError:
        return False
    return state[0] != "Z"


def _start_serve_run(seconds: int = 60) -> tuple[subprocess.Popen, Path]:
    proc = subprocess.Popen(
        RUN + ["--workload", "serve-mixed", "--seed", "1",
               "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        start_new_session=True)
    tmp_root = ROOT / ".perfbench-tmp" / f"run-{proc.pid}"
    # mid-load: set-up has published the front and the job stream has
    # submitted jobs beyond the set-up ones
    jobs = tmp_root / "serve-root" / "jobs"
    _wait_for(lambda: (tmp_root / "serve-root" / "fronts").is_dir()
              and jobs.is_dir() and len(list(jobs.iterdir())) >= 8,
              60.0, "serve-mixed to reach its measuring window")
    time.sleep(1.0)
    return proc, tmp_root


@pytest.mark.parametrize("sig", [signal.SIGINT, signal.SIGTERM])
def test_interrupted_serve_run_leaves_nothing(sig):
    shm_before = shm_segments()
    proc, tmp_root = _start_serve_run()
    started = descendants(proc.pid)
    assert started, "the run should have a server child mid-load"
    try:
        proc.send_signal(sig)
        out, _ = proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait(timeout=10)
    assert proc.returncode != 0
    assert b'"correct"' not in out, "an interrupted run printed a result"
    assert not [pid for pid in started if _alive(pid)]
    assert shm_segments() - shm_before == set()
    assert not tmp_root.exists()


def test_refuses_to_run_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "exhaustive-cold",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, timeout=60)
    assert proc.returncode != 0
    assert b'"correct"' not in proc.stdout
    assert not (tmp_path / ".perfbench-tmp").exists()
