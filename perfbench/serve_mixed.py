"""Workload ``serve-mixed``: point queries beside a job stream, over HTTP.

``python -m repro serve`` runs as one child process (its own session) on
a temp root with one job worker.  Set-up spawns it and publishes the
query boundaries (exhaustive jobs) and one Pareto front (an optimize
job); it is repeated on fresh servers and roots, ``setup_s`` is the
median, and the last server serves the measuring window.  The window
runs two things at once:

* an **open loop** of GET queries at a fixed rate from a fixed number of
  threads, each on one keep-alive connection: mostly
  ``/v1/boundary/{key}?site&eps`` point queries, a fixed share of
  ``/v1/front/{key}?budget`` queries.  Each request is timed from its due
  time, so a stall also charges the requests queued behind it;
* a **closed loop** of jobs (one outstanding) cycling exhaustive, sample,
  compose and optimize on small kernels with distinct seeds.

Every point-query verdict is checked against the offline
:class:`repro.BoundaryPredictor` prediction on the published boundary,
which itself must equal offline ground truth bit for bit; every front
query against the offline front; every job must end ``done``.
"""

from __future__ import annotations

import http.client
import itertools
import json
import re
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Iterator
from urllib.parse import urlencode

from common import (SPEC, BenchError, Children, import_repro, kernel_specs,
                    median, now, percentile, vmhwm_mb)

SECTION = SPEC["serve-mixed"]
READY_TIMEOUT_S = 30.0
JOB_TIMEOUT_S = 60.0
HTTP_TIMEOUT_S = 30.0
_EXPOSITION_LINE = re.compile(r"^(repro_[A-Za-z0-9_]+)(\{[^}]*\})? (\S+)$")


class Http:
    """One keep-alive connection to the service."""

    def __init__(self, port: int):
        self.port = port
        self.conn = http.client.HTTPConnection("127.0.0.1", port,
                                               timeout=HTTP_TIMEOUT_S)

    def request(self, method: str, path: str, body: dict | None = None):
        payload = None if body is None else json.dumps(body).encode()
        headers = {} if body is None else {"Content-Type": "application/json"}
        try:
            self.conn.request(method, path, body=payload, headers=headers)
            resp = self.conn.getresponse()
            data = resp.read()
        except (OSError, http.client.HTTPException):
            self.conn.close()  # reconnects on the next request
            raise
        if resp.getheader("Connection", "").lower() == "close":
            self.conn.close()
        return resp.status, data

    def json(self, method: str, path: str, body: dict | None = None) -> dict:
        status, data = self.request(method, path, body)
        if status >= 400:
            raise BenchError(f"{method} {path} -> {status}: {data[:300]!r}")
        return json.loads(data)

    def close(self) -> None:
        self.conn.close()


def scrape(port: int) -> dict:
    """``/metrics`` as ``{name or name{labels}: value}``."""
    conn = Http(port)
    try:
        status, data = conn.request("GET", "/metrics")
    finally:
        conn.close()
    out = {}
    for line in data.decode().splitlines():
        m = _EXPOSITION_LINE.match(line)
        if m:
            out[m.group(1) + (m.group(2) or "")] = float(m.group(3))
    return out


class Server:
    """The ``repro serve`` child: start, wait ready, drain on stop."""

    def __init__(self, children: Children, tmp_root: Path, name: str):
        self.children = children
        self.root = tmp_root / name
        self.out_path = tmp_root / f"{name}.out"
        self.err_path = tmp_root / f"{name}.err"
        self.proc: subprocess.Popen | None = None
        self.port = 0

    def start(self) -> None:
        with open(self.out_path, "w") as out, open(self.err_path, "w") as err:
            self.proc = self.children.spawn(
                [sys.executable, "-m", "repro", "serve", "--root",
                 str(self.root), "--port", "0", *SECTION["server_args"]],
                stdout=out, stderr=err)
        deadline = now() + READY_TIMEOUT_S
        while now() < deadline:
            m = re.search(r"serving on http://[^:]+:(\d+)",
                          self.out_path.read_text())
            if m:
                self.port = int(m.group(1))
                break
            if self.proc.poll() is not None:
                raise BenchError("server exited during start-up:\n"
                                 + self.err_path.read_text()[-3000:])
            time.sleep(0.01)
        else:
            raise BenchError("server did not announce its port in time")
        conn = Http(self.port)
        try:
            conn.json("GET", "/healthz")
        finally:
            conn.close()

    def stop(self) -> int | None:
        """Drain (SIGTERM), wait, then kill the group; the exit code."""
        if self.proc is None:
            return None
        self.children.stop(self.proc)
        return self.proc.returncode


def submit_and_wait(conn: Http, request: dict) -> dict:
    """Submit one job and block until it is terminal; its final manifest."""
    job = conn.json("POST", "/v1/jobs", request)
    deadline = now() + JOB_TIMEOUT_S
    while True:
        manifest = conn.json("GET", f"/v1/jobs/{job['id']}")
        if manifest["state"] in ("done", "failed", "cancelled"):
            return manifest
        if now() > deadline:
            raise BenchError(f"job {job['id']} not terminal after "
                             f"{JOB_TIMEOUT_S}s")
        time.sleep(0.02)


class Published:
    """Offline view of the published boundaries and front."""

    def __init__(self, root: Path, seed: int):
        import_repro()
        from repro import (BoundaryPredictor, CampaignConfig,
                           evaluate_boundary, exhaustive_boundary, kernels,
                           run_campaign)
        from repro.io.store import load_boundary, load_front
        from repro.kernels.workload import workload_key

        self.keys, self.grids = [], []
        self.precision, self.recall, self.failures = [], [], []
        for name, params in kernel_specs(SECTION, seed):
            wl = kernels.build(name, **params)
            key = workload_key(wl.spec, wl.tolerance, wl.norm)
            truth = run_campaign(wl, CampaignConfig(
                mode="exhaustive", executor="serial",
                backend="interp")).exhaustive
            expect = exhaustive_boundary(truth)
            served = load_boundary(root / "boundaries"
                                   / f"boundary-{key}.npz")
            if served.thresholds.tobytes() != expect.thresholds.tobytes():
                self.failures.append(f"published boundary {key} differs "
                                     "from offline ground truth")
            predictor = BoundaryPredictor(wl.trace)
            quality = evaluate_boundary(predictor, served, truth)
            self.precision.append(quality.precision)
            self.recall.append(quality.recall)
            self.keys.append(key)
            self.grids.append((predictor.injected_error_grid,
                               predictor.predict_masked(served)))

        name, params = SECTION["front"]
        wl = kernels.build(name, **params)
        self.front_key = workload_key(wl.spec, wl.tolerance, wl.norm)
        front, _ = load_front(root / "fronts" / f"front-{self.front_key}.npz")
        self.front_choice = {}
        for budget in SECTION["front_budgets"]:
            idx = front.best_for_budget(budget)
            self.front_choice[budget] = (
                None if idx is None else (float(front.costs[idx]),
                                          float(front.residuals[idx])))


def schedule(pub: Published, seed: int, seconds: float) -> list[tuple]:
    """``(offset_s, path, expected)`` of every query in the window."""
    import numpy as np
    rng = np.random.default_rng([seed, 11])
    n = max(1, int(SECTION["qps"] * seconds))
    budgets = SECTION["front_budgets"]
    out = []
    for i in range(n):
        offset = i / SECTION["qps"]
        if rng.random() < SECTION["front_share"]:
            budget = budgets[int(rng.integers(0, len(budgets)))]
            out.append((offset,
                        f"/v1/front/{pub.front_key}?budget={budget!r}",
                        ("front", pub.front_choice[budget])))
            continue
        k = int(rng.integers(0, len(pub.keys)))
        errors, masked = pub.grids[k]
        site = int(rng.integers(0, errors.shape[0]))
        bit = int(rng.integers(0, errors.shape[1]))
        eps = float(errors[site, bit])
        query = urlencode({"site": site, "eps": repr(eps)})
        out.append((offset, f"/v1/boundary/{pub.keys[k]}?{query}",
                    ("point", bool(masked[site, bit]))))
    return out


def check_reply(expected: tuple, body: dict) -> bool:
    kind, want = expected
    if kind == "point":
        return body.get("masked") is want
    chosen = body.get("chosen")
    if want is None:
        return chosen is None
    return chosen is not None and (chosen["cost"], chosen["residual_sdc"]) \
        == want


def query_thread(port: int, t0: float, items: list[tuple],
                 out: list[tuple]) -> None:
    """Send ``items`` on one keep-alive connection at their due times."""
    conn = Http(port)
    try:
        for offset, path, expected in items:
            due = t0 + offset
            delay = due - now()
            if delay > 0:
                time.sleep(delay)
            sent = now()
            try:
                status, data = conn.request("GET", path)
                ok = status == 200 and check_reply(expected, json.loads(data))
            except (OSError, http.client.HTTPException, ValueError):
                ok = False
            out.append((due, sent, now(), ok))
    finally:
        conn.close()


def job_request(index: int, seed: int) -> dict:
    job = SECTION["job_cycle"][index % len(SECTION["job_cycle"])]
    params = dict(job["params"])
    options = dict(job.get("options", {}))
    distinct = 1000 * (seed % SPEC["variants"] + 1) + index
    if "seed_param" in job:
        params[job["seed_param"]] = distinct
    if "seed_option" in job:
        options[job["seed_option"]] = distinct
    return {"kernel": job["kernel"], "params": params, "mode": job["mode"],
            "options": options}


def job_stream(port: int, seed: int, until: float,
               indices: Iterator[int]) -> tuple[list, float]:
    """Closed loop of jobs until ``until``, numbered from ``indices``.

    Returns the final manifests and the share of the stream's wall spent
    inside the timed submit/wait calls.
    """
    conn = Http(port)
    manifests, busy, start = [], 0.0, now()
    try:
        while now() < until:
            t0 = now()
            request = job_request(next(indices), seed)
            manifests.append(submit_and_wait(conn, request))
            busy += now() - t0
    finally:
        conn.close()
    return manifests, busy / (now() - start)


def window(port: int, pub: Published, seed: int, seconds: float,
           traced: bool, indices: Iterator[int]) -> dict:
    """One measuring window: open-loop queries beside the job stream."""
    items = schedule(pub, seed, seconds)
    before = scrape(port) if traced else {}
    threads_n = SECTION["threads"]
    results: list[list[tuple]] = [[] for _ in range(threads_n)]
    t0 = now() + 0.05
    threads = [threading.Thread(target=query_thread,
                                args=(port, t0, items[k::threads_n],
                                      results[k]), daemon=True)
               for k in range(threads_n)]
    for th in threads:
        th.start()
    manifests, busy_frac = job_stream(port, seed, t0 + seconds, indices)
    for th in threads:
        th.join(timeout=seconds + 60.0)
        if th.is_alive():
            raise BenchError("query thread did not finish")
    wall = now() - t0
    after = scrape(port) if traced else {}
    samples = [r for rs in results for r in rs]
    return summarize(samples, manifests, busy_frac, wall, before, after,
                     traced)


def kind_medians(manifests: list[dict], start: str, end: str) -> dict:
    """Median ``end - start`` seconds per job kind (mode).

    Job kinds differ by up to 15x in duration, so each kind gets its own
    median; one median over the mix would jump between kinds.
    """
    by_kind: dict[str, list[float]] = {}
    for m in manifests:
        by_kind.setdefault(m["request"]["mode"], []).append(m[end] - m[start])
    return {kind: median(values) for kind, values in by_kind.items()}


def summarize(samples, manifests, busy_frac, wall, before, after,
              traced) -> dict:
    failures = []
    latency = [(done - due) * 1e3 for due, _, done, _ in samples]
    late = [(sent - due) * 1e3 for due, sent, _, _ in samples]
    bad = sum(1 for *_, ok in samples if not ok)
    if bad:
        failures.append(f"{bad} queries failed or disagreed with the "
                        "offline prediction")
    max_late = max(late)
    behind = max_late > SECTION["late_limit_ms"]
    if behind:
        failures.append(f"generator fell behind its schedule by "
                        f"{max_late:.0f} ms")
    not_done = [m["id"] for m in manifests if m["state"] != "done"]
    if not_done:
        failures.append(f"jobs not done: {not_done}")
    cycle = len(SECTION["job_cycle"])
    if len(manifests) < cycle:
        raise BenchError("no whole job cycle finished in the measuring "
                         "window")
    # timings over whole cycles of done jobs (a failed one is counted
    # above and may have no start time)
    whole = [m for m in manifests[:len(manifests) // cycle * cycle]
             if m["state"] == "done"]
    bmodes = SECTION["boundary_modes"]
    bjobs = [m for m in whole if m["request"]["mode"] in bmodes]
    run_s = sum(m["finished_unix"] - m["started_unix"] for m in bjobs)
    exps = sum(m["summary"].get("n_experiments", 0) for m in bjobs)
    turnaround = kind_medians(whole, "created_unix", "finished_unix")
    if len(turnaround) < len({job["mode"] for job in SECTION["job_cycle"]}):
        raise BenchError(f"a job kind never finished: {not_done}")
    e2e = {
        "time_to_boundary_s": sum(turnaround[mode] for mode in bmodes),
        "exps_per_s": exps / run_s,
        "job_turnaround_s": sum(turnaround.values()),
    }
    layers = {
        "serve.query_p50_ms": percentile(latency, 50),
        "serve.query_p99_ms": percentile(latency, 99),
        "serve.query_samples": len(latency),
        "serve.generator_late_ms": percentile(late, 99),
        "serve.job_queue_s": sum(kind_medians(
            whole, "created_unix", "started_unix").values()),
        "serve.job_run_s": sum(kind_medians(
            whole, "started_unix", "finished_unix").values()),
        "unaccounted_frac": 1.0 - busy_frac,
    }
    if traced:
        layers.update(server_layers(before, after,
                                    layers["serve.query_p99_ms"]))
    return {"e2e": e2e, "layers": layers, "failures": failures,
            "attempted": len(samples) + len(manifests),
            # a late generator fails the whole window: its numbers are
            # not a measurement at the offered rate
            "failed": len(samples) if behind else bad + len(not_done),
            "traced": traced, "wall_s": wall}


def server_layers(before: dict, after: dict, client_p99_ms: float) -> dict:
    """Per-layer numbers from two ``/metrics`` scrapes around a window."""
    def delta(name):
        return after.get(f"repro_{name}", 0.0) - before.get(f"repro_{name}",
                                                             0.0)

    def quantile(name, q):
        return after.get(f'repro_{name}{{quantile="{q}"}}', 0.0)

    replay_s = delta("replay_batch_seconds_sum")
    compile_s = delta("replay_compile_seconds_sum")
    hits, misses = delta("serve_artifact_hit"), delta("serve_artifact_miss")
    chits, cmiss = delta("compose_cache_hit"), delta("compose_cache_miss")
    server_p99_us = quantile("serve_query_us", "0.99")
    return {
        "engine.compile_s": compile_s,
        "engine.compiles": delta("replay_compiles"),
        "engine.replay_s": replay_s,
        "engine.batches": delta("replay_batches"),
        "engine.lanes": delta("replay_lanes"),
        "engine.rows_per_s": (delta("replay_instruction_rows") / replay_s
                              if replay_s else 0.0),
        "parallel.chunks": delta("phase_a_chunk_seconds_count"),
        "compose.experiments": delta("compose_experiments"),
        "compose.cache_hit_frac": chits / (chits + cmiss)
        if chits + cmiss else 0.0,
        "optimize.candidates": delta("optimize_candidates"),
        "io.store_writes": delta("store_writes"),
        "io.store_write_s": delta("store_write_seconds_sum"),
        "io.write_bytes": delta("store_write_bytes")
        + delta("checkpoint_write_bytes"),
        "io.checkpoint_writes": delta("checkpoint_chunks_written")
        + delta("checkpoint_partials_written"),
        "serve.http_requests": delta("serve_http_requests"),
        "serve.http_errors": delta("serve_http_errors"),
        "serve.query_server_p50_us": quantile("serve_query_us", "0.5"),
        "serve.query_server_p99_us": server_p99_us,
        "serve.query_wait_ms": client_p99_ms - server_p99_us / 1e3,
        "serve.artifact_hit_frac": hits / (hits + misses)
        if hits + misses else 0.0,
    }


def publish(port: int, seed: int) -> list[dict]:
    """Set-up jobs: exhaustive boundaries to query, one optimize front."""
    requests = [{"kernel": name, "params": params, "mode": "exhaustive"}
                for name, params in kernel_specs(SECTION, seed)]
    name, params = SECTION["front"]
    requests.append({"kernel": name, "params": params, "mode": "optimize",
                     "options": {"budget": SECTION["front_budget"],
                                 "seed": 0}})
    conn = Http(port)
    try:
        manifests = [submit_and_wait(conn, req) for req in requests]
    finally:
        conn.close()
    failed = [m["id"] for m in manifests if m["state"] != "done"]
    if failed:
        raise BenchError(f"set-up jobs did not finish: {failed}")
    return manifests


def set_up(ctx, name: str) -> tuple[Server, float]:
    """Start a server on a fresh root and publish the set-up artifacts.

    On error the caller's :class:`Children` stops the server.
    """
    server = Server(ctx.children, ctx.tmp_root, name)
    t_spawn = now()
    server.start()
    publish(server.port, ctx.seed)
    return server, now() - t_spawn


def stop_server(server: Server, failures: list[str]) -> None:
    code = server.stop()
    if code != 0:
        failures.append(f"server {server.root.name} exited {code} "
                        "after drain")


def run(ctx) -> list[dict]:
    """Set up ``setups`` times (the last server serves the window)."""
    failures: list[str] = []
    setup_times = []
    for i in range(SECTION["setups"] - 1):
        server, seconds = set_up(ctx, f"setup-root-{i}")
        setup_times.append(seconds)
        stop_server(server, failures)
    server, seconds = set_up(ctx, "serve-root")
    setup_times.append(seconds)
    passes = []
    try:
        pub = Published(server.root, ctx.seed)
        plan = [(ctx.seconds, False)] if not ctx.trace else \
            [(ctx.seconds / 2, False), (ctx.seconds / 2, True)]
        indices = itertools.count()  # distinct job seeds across windows
        for seconds, traced in plan:
            res = window(server.port, pub, ctx.seed, seconds, traced,
                         indices)
            res["e2e"]["setup_s"] = median(setup_times)
            res["e2e"]["boundary_precision"] = min(pub.precision)
            res["e2e"]["boundary_recall"] = min(pub.recall)
            passes.append(res)
        failures += pub.failures
        rss = vmhwm_mb(server.proc.pid)
        for res in passes:
            res["e2e"]["peak_rss_mb"] = rss
    finally:
        stop_server(server, failures)
    if passes:
        passes[-1]["failures"] += failures
        passes[-1]["failed"] += len(failures)
    return passes
