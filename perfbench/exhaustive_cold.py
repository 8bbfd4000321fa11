"""Workload ``exhaustive-cold``: one-shot ground-truth campaigns, cold.

Each pass is a fresh interpreter, as every CLI invocation is: it imports
the program, builds the kernel mix and runs one exhaustive campaign per
kernel with the CLI's defaults, checks every grid against its stored
reference digest and scores the exact boundary (§3.6).

Run as a script it is the pass itself (``--worker``); :func:`run` is the
parent side that repeats passes for the measuring window.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from common import (BENCH_DIR, SPEC, BenchError, digest, import_repro,
                    kernel_specs, now, spec_label, vmhwm_mb)

SECTION = SPEC["exhaustive-cold"]
REFS_PATH = BENCH_DIR / "refs.json"
#: a new pass starts only while the whole run stays under this many seconds
PASS_CAP_S = 120.0


def reference_digests() -> dict:
    if not REFS_PATH.is_file():
        raise BenchError(f"missing reference digests {REFS_PATH}")
    return json.loads(REFS_PATH.read_text())


def grid_digest(exhaustive, boundary) -> str:
    return digest(exhaustive.outcomes, exhaustive.injected_errors,
                  boundary.thresholds)


def worker(seed: int, t_spawn: float, trace: bool) -> dict:
    """One pass; ``t_spawn`` is the parent's clock when it spawned us."""
    import_repro()
    from repro import (BoundaryPredictor, CampaignConfig, evaluate_boundary,
                       exhaustive_boundary, kernels, run_campaign)
    from repro.obs.trace import RecordingSink
    from layers import campaign_layers, merge_snapshots

    refs = reference_digests()
    layers: dict = {"kernels.build_s": 0.0, "kernels.tape_rows": 0,
                    "engine.golden_s": 0.0}
    workloads = []
    for name, params in kernel_specs(SECTION, seed):
        t0 = time.perf_counter()
        wl = kernels.build(name, **params)
        t1 = time.perf_counter()
        wl.trace
        t2 = time.perf_counter()
        layers["kernels.build_s"] += t1 - t0
        layers["engine.golden_s"] += t2 - t1
        layers["kernels.tape_rows"] += len(wl.program)
        workloads.append((name, params, wl))
    setup_s = now() - t_spawn

    failures: list[str] = []
    sink = RecordingSink() if trace else None
    snapshots, precision, recall = [], [], []
    campaign_s = scored_s = cfg_s = 0.0
    experiments = retries = cfg_exps = cfg_hang = 0
    for name, params, wl in workloads:
        config = CampaignConfig(**SECTION["campaign"], metrics=trace,
                                trace_sink=sink)
        t0 = time.perf_counter()
        result = run_campaign(wl, config)
        wall = time.perf_counter() - t0
        campaign_s += wall
        grid = result.exhaustive
        experiments += int(grid.outcomes.size)
        if result.health is not None:
            retries += int(result.health.retries)
        snapshots.append(result.metrics)
        t0 = time.perf_counter()
        boundary = exhaustive_boundary(grid)
        quality = evaluate_boundary(BoundaryPredictor(wl.trace), boundary,
                                    grid)
        scored_s += time.perf_counter() - t0
        precision.append(quality.precision)
        recall.append(quality.recall)

        label = spec_label(name, params)
        want = refs.get(label)
        got = grid_digest(grid, boundary)
        if want is None:
            failures.append(f"{label}: no reference digest")
        elif got != want:
            failures.append(f"{label}: digest {got} != reference {want}")
        counts = grid.outcome_counts()
        if name == SECTION["all_classes_kernel"] \
                and min(counts.values()) == 0:
            failures.append(f"{label}: an outcome class is missing: {counts}")
        if name in SECTION["cfg_kernels"]:
            cfg_s += wall
            cfg_exps += int(grid.outcomes.size)
            cfg_hang += int(counts.get("HANG", 0))

    e2e = {
        "setup_s": setup_s,
        "time_to_boundary_s": campaign_s,
        "exps_per_s": experiments / campaign_s,
        "boundary_precision": min(precision),
        "boundary_recall": min(recall),
        "peak_rss_mb": vmhwm_mb(),
    }
    if trace:
        layers.update(campaign_layers(merge_snapshots(snapshots),
                                      sink.records,
                                      SECTION["campaign"]["n_workers"],
                                      campaign_s))
        layers.update({
            "cfg.campaign_s": cfg_s,
            "cfg.exps_per_s": cfg_exps / cfg_s if cfg_s else 0.0,
            "cfg.hang_frac": cfg_hang / cfg_exps if cfg_exps else 0.0,
            "parallel.retries": retries,
        })
    accounted = (layers["kernels.build_s"] + layers["engine.golden_s"]
                 + campaign_s + scored_s)
    return {"e2e": e2e, "layers": layers, "failures": failures,
            "attempted": len(workloads), "failed": len(failures),
            "accounted_s": accounted}


def run(ctx) -> list[dict]:
    """Repeat fresh-interpreter passes until the window is used."""
    passes: list[dict] = []
    start = now()
    while True:
        traced = ctx.trace and len(passes) % 2 == 1
        t_spawn = now()
        res = ctx.children.run_worker(
            [sys.executable, str(BENCH_DIR / "exhaustive_cold.py"),
             "--worker", "--seed", str(ctx.seed), "--t0", repr(t_spawn),
             "--trace", str(int(traced))],
            timeout=170.0)
        wall = now() - t_spawn
        res["traced"] = traced
        res["wall_s"] = wall
        res["e2e"]["job_turnaround_s"] = wall
        res["layers"]["unaccounted_frac"] = 1.0 - res["accounted_s"] / wall
        passes.append(res)
        elapsed = now() - start
        need_more = ctx.trace and len(passes) < 2
        if (elapsed >= ctx.seconds and not need_more) \
                or elapsed + wall > PASS_CAP_S:
            return passes


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--worker", action="store_true", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0)
    args = ap.parse_args()
    print(json.dumps(worker(args.seed, args.t0, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
