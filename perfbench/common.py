"""Shared plumbing of the repo benchmark: paths, child processes, hygiene.

Every process the benchmark starts runs in its own session, so a whole
process tree can be signalled as one group and looked up afterwards by
session id.  :class:`Children` owns those processes; :func:`leftovers`
is the after-run check that nothing the run started is still alive, that
no ``/dev/shm/repro-shm*`` segment appeared, and that the temp root is
gone.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SPEC = json.loads((BENCH_DIR / "spec.json").read_text())
TMP_PARENT = ROOT / ".perfbench-tmp"
SHM_DIR = Path("/dev/shm")
SHM_PREFIX = "repro-shm"

#: seconds a stopped child gets to drain after SIGTERM before SIGKILL
TERM_GRACE_S = 10.0


class BenchError(RuntimeError):
    """A correctness check or a child process failed."""


def require_checkout() -> None:
    """Fail unless the program's sources sit next to the benchmark."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"no program sources at {SRC / 'repro'}; run the "
                         "benchmark from a full checkout")


def import_repro():
    """Import the checkout's ``repro`` package (never an installed one)."""
    require_checkout()
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import repro
    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        raise BenchError(f"imported repro from {repro.__file__}, "
                         f"expected {SRC / 'repro'}")
    return repro


def kernel_specs(section: dict, seed: int) -> list[tuple[str, dict]]:
    """The section's ``(kernel, params)`` list with seeded input variants."""
    variant = seed % SPEC["variants"]
    out = []
    for name, params in section["kernels" if "kernels" in section
                                 else "published"]:
        params = dict(params)
        if name in section.get("seeded", ()):
            params["seed"] = variant
        out.append((name, params))
    return out


def spec_label(name: str, params: dict) -> str:
    return name + "(" + ",".join(f"{k}={params[k]}"
                                 for k in sorted(params)) + ")"


def digest(*arrays) -> str:
    h = hashlib.sha256()
    for arr in arrays:
        h.update(str(arr.dtype).encode())
        h.update(str(arr.shape).encode())
        h.update(arr.tobytes())
    return h.hexdigest()[:32]


def now() -> float:
    """System-wide monotonic clock, comparable across processes."""
    return time.monotonic()


def vmhwm_mb(pid: int | str = "self") -> float:
    """Peak resident set (VmHWM) of a live process in MB."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise BenchError(f"no VmHWM for pid {pid}")


def reset_peak_rss() -> None:
    """Reset this process's VmHWM to its current resident set."""
    Path("/proc/self/clear_refs").write_text("5")


def median(values) -> float:
    values = sorted(values)
    if not values:
        raise BenchError("median of no values")
    mid = len(values) // 2
    if len(values) % 2:
        return float(values[mid])
    return (values[mid - 1] + values[mid]) / 2.0


def percentile(values, q: float) -> float:
    """Nearest-rank percentile ``q`` in (0, 100] of ``values``."""
    values = sorted(values)
    if not values:
        raise BenchError("percentile of no values")
    rank = max(1, math.ceil(q / 100.0 * len(values)))
    return float(values[rank - 1])


# ---------------------------------------------------------------- children


def child_env(tmp_root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    env["TMPDIR"] = str(tmp_root)
    env["PYTHONWARNINGS"] = "ignore::RuntimeWarning"
    return env


class Children:
    """Processes started by one benchmark run, each in its own session."""

    def __init__(self, tmp_root: Path):
        self.tmp_root = tmp_root
        self.procs: list[subprocess.Popen] = []
        self.sessions: set[int] = set()

    def spawn(self, argv: list[str], **kw) -> subprocess.Popen:
        kw.setdefault("stdin", subprocess.DEVNULL)
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(self.tmp_root),
                                start_new_session=True, **kw)
        self.procs.append(proc)
        self.sessions.add(proc.pid)  # session id == leader pid
        return proc

    def run_worker(self, argv: list[str], timeout: float) -> dict:
        """Run a worker to completion; return its last-line JSON result."""
        proc = self.spawn(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True)
        try:
            out, err = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            self.stop(proc, grace=0.0)
            raise BenchError(f"worker {argv[1:3]} timed out after {timeout}s")
        finally:
            if proc.poll() is None:
                self.stop(proc, grace=0.0)
        if proc.returncode != 0:
            raise BenchError(f"worker {argv[1:3]} exited {proc.returncode}:\n"
                             + err[-4000:])
        lines = out.strip().splitlines()
        if not lines:
            raise BenchError(f"worker {argv[1:3]} printed no result")
        return json.loads(lines[-1])

    @staticmethod
    def stop(proc: subprocess.Popen, grace: float = TERM_GRACE_S) -> None:
        """SIGTERM (drain), wait up to ``grace`` s, then SIGKILL the group."""
        if proc.poll() is None and grace > 0:
            try:
                proc.send_signal(signal.SIGTERM)
                proc.wait(timeout=grace)
            except (ProcessLookupError, subprocess.TimeoutExpired):
                pass
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
        try:
            proc.wait(timeout=TERM_GRACE_S)
        except subprocess.TimeoutExpired:
            pass
        for stream in (proc.stdout, proc.stderr):
            if stream is not None:
                stream.close()

    def stop_all(self) -> None:
        for proc in self.procs:
            self.stop(proc, grace=0.0 if proc.poll() is not None
                      else TERM_GRACE_S)
        # Anything that escaped its parent but kept the session dies too.
        for pid in session_members(self.sessions):
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass


def _stat_fields(pid: str) -> list[str] | None:
    try:
        raw = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return None
    # comm (field 2) may hold spaces; split after its closing paren
    return raw[raw.rindex(")") + 2:].split()


def session_members(sessions: set[int]) -> list[int]:
    """Live pids whose session id is one of ``sessions``."""
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        fields = _stat_fields(entry)
        # fields[0]=state, [1]=ppid, [2]=pgrp, [3]=session
        if fields and fields[0] != "Z" and int(fields[3]) in sessions:
            found.append(int(entry))
    return found


def descendants(pid: int) -> list[int]:
    """Live (non-zombie) descendants of ``pid``."""
    children: dict[int, list[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        fields = _stat_fields(entry)
        if fields and fields[0] != "Z":
            children.setdefault(int(fields[1]), []).append(int(entry))
    out, todo = [], [pid]
    while todo:
        for child in children.get(todo.pop(), []):
            out.append(child)
            todo.append(child)
    return out


def shm_segments() -> set[str]:
    if not SHM_DIR.is_dir():
        return set()
    return {p.name for p in SHM_DIR.iterdir()
            if p.name.startswith(SHM_PREFIX)}


def make_tmp_root() -> Path:
    TMP_PARENT.mkdir(exist_ok=True)
    root = TMP_PARENT / f"run-{os.getpid()}"
    shutil.rmtree(root, ignore_errors=True)
    root.mkdir()
    return root


def remove_tmp_root(root: Path) -> None:
    shutil.rmtree(root, ignore_errors=True)
    try:
        TMP_PARENT.rmdir()  # only when no other run is using it
    except OSError:
        pass


def leftovers(children: Children, shm_before: set[str],
              tmp_root: Path) -> list[str]:
    """What a finished run left behind; empty means clean."""
    problems = []
    alive = sorted(set(descendants(os.getpid()))
                   | set(session_members(children.sessions)))
    if alive:
        problems.append(f"processes still running: {alive}")
    new_shm = sorted(shm_segments() - shm_before)
    if new_shm:
        problems.append(f"shared-memory segments left: {new_shm}")
    if tmp_root.exists():
        problems.append(f"temp root left: {tmp_root}")
    return problems
