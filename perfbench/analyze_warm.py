"""Workload ``analyze-warm``: sampling, inference and search, warm.

One long-lived process (a notebook session, the optimize loop).  Set-up
builds the kernels, computes exhaustive ground truth (untimed) and runs
one untimed warm-up pass.  Each timed pass then runs, per kernel, a §3.4
adaptive campaign with a pinned seed scored against ground truth (§3.6),
a compositional campaign on a fresh summary cache, ``build_cost_model``
+ ``EnvelopeEvaluator.from_summaries`` and ``synthesize`` at the pinned
budget.  Every pass must reproduce the warm-up pass's boundaries and fronts.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
import time

from common import (BENCH_DIR, SPEC, digest, import_repro, kernel_specs, now,
                    reset_peak_rss, vmhwm_mb)

SECTION = SPEC["analyze-warm"]
#: a new pass starts only while the worker stays under this many seconds
PASS_CAP_S = 130.0


class Session:
    """The long-lived analysis state: kernels, ground truth, predictors."""

    def __init__(self, seed: int):
        import_repro()
        from repro import BoundaryPredictor, CampaignConfig, kernels, \
            run_campaign
        self.layers0 = {"kernels.build_s": 0.0, "kernels.tape_rows": 0,
                        "engine.golden_s": 0.0}
        self.kernels = []
        for name, params in kernel_specs(SECTION, seed):
            t0 = time.perf_counter()
            wl = kernels.build(name, **params)
            t1 = time.perf_counter()
            wl.trace
            t2 = time.perf_counter()
            self.layers0["kernels.build_s"] += t1 - t0
            self.layers0["engine.golden_s"] += t2 - t1
            self.layers0["kernels.tape_rows"] += len(wl.program)
            self.kernels.append((wl, BoundaryPredictor(wl.trace)))
        t0 = time.perf_counter()
        self.truth = [run_campaign(wl, CampaignConfig(
            mode="exhaustive", **SECTION["campaign"])).exhaustive
            for wl, _ in self.kernels]
        self.truth_s = time.perf_counter() - t0

    def run_pass(self, traced: bool) -> dict:
        from repro import CampaignConfig, evaluate_boundary, run_campaign
        from repro.obs.trace import RecordingSink
        from repro.optimize import (EnvelopeEvaluator, SearchConfig,
                                    build_cost_model, synthesize)
        from layers import campaign_layers, merge_snapshots

        # the pass's own peak: set-up's ground truth is the harness's work
        reset_peak_rss()
        t_pass = time.perf_counter()
        sink = RecordingSink() if traced else None
        obs = {"metrics": traced, "trace_sink": sink}
        search_cfg = SearchConfig(**SECTION["search"])
        snapshots, arrays = [], []
        ttb = samples = masked = 0.0
        compose_s = costmodel_s = search_s = scored_s = 0.0
        precision, recall, residuals = [], [], []
        sections = candidates = front_points = 0
        for (wl, predictor), truth in zip(self.kernels, self.truth):
            t0 = time.perf_counter()
            adaptive = run_campaign(wl, CampaignConfig(
                mode="adaptive", seed=SECTION["adaptive_seed"],
                **SECTION["campaign"], **obs))
            ttb += time.perf_counter() - t0
            snapshots.append(adaptive.metrics)
            samples += adaptive.sampled.n_samples
            masked += float(adaptive.sampled.masked_ratio()) \
                * adaptive.sampled.n_samples
            t0 = time.perf_counter()
            quality = evaluate_boundary(predictor, adaptive.boundary, truth)
            scored_s += time.perf_counter() - t0
            precision.append(quality.precision)
            recall.append(quality.recall)

            cache_dir = tempfile.mkdtemp(prefix="compose-")
            try:
                t0 = time.perf_counter()
                comp = run_campaign(wl, CampaignConfig(
                    mode="compositional", compose={"cache_dir": cache_dir},
                    **SECTION["campaign"], **obs))
                t1 = time.perf_counter()
                model = build_cost_model(wl)
                evaluator = EnvelopeEvaluator.from_summaries(
                    model, comp.summaries, comp.boundary.space,
                    wl.tolerance, 1.0)
                t2 = time.perf_counter()
                synth = synthesize(evaluator, search_cfg,
                                   predictor=predictor,
                                   boundary=comp.boundary)
                t3 = time.perf_counter()
            finally:
                shutil.rmtree(cache_dir, ignore_errors=True)
            snapshots.append(comp.metrics)
            compose_s += t1 - t0
            costmodel_s += t2 - t1
            search_s += t3 - t2
            sections += comp.n_sections
            candidates += synth.n_candidates
            front_points += synth.front.n_points
            chosen = synth.chosen_index(search_cfg)
            residuals.append(float(synth.front.residuals[chosen]))
            arrays += [adaptive.boundary.thresholds, comp.boundary.thresholds,
                       synth.front.costs, synth.front.residuals,
                       synth.front.placements]

        wall = time.perf_counter() - t_pass
        front_s = compose_s + costmodel_s + search_s
        e2e = {
            "time_to_boundary_s": ttb,
            "exps_per_s": samples / ttb,
            "job_turnaround_s": wall,
            "boundary_precision": min(precision),
            "boundary_recall": min(recall),
            "peak_rss_mb": vmhwm_mb(),
        }
        layers = {
            "core.masked_sample_frac": masked / samples,
            "compose.sections": sections,
            "optimize.costmodel_s": costmodel_s,
            "optimize.search_s": search_s,
            "optimize.candidates": candidates,
            "optimize.candidates_per_s": candidates / search_s,
            "optimize.front_points": front_points,
            "optimize.front_s": front_s,
            "optimize.residual_sdc": sum(residuals) / len(residuals),
            "unaccounted_frac": 1.0 - (ttb + scored_s + front_s) / wall,
        }
        if traced:
            snap = merge_snapshots(snapshots)
            layers.update(campaign_layers(
                snap, sink.records, SECTION["campaign"]["n_workers"],
                ttb + compose_s))
        # adaptive, scoring, compositional and search calls per kernel
        return {"e2e": e2e, "layers": layers, "failures": [],
                "attempted": 4 * len(self.kernels), "failed": 0,
                "digest": digest(*arrays), "traced": traced, "wall_s": wall}


def worker(seed: int, t_spawn: float, seconds: float, trace: bool) -> dict:
    session = Session(seed)
    warm = session.run_pass(traced=False)
    setup_s = now() - t_spawn - session.truth_s
    passes = []
    start = now()
    while True:
        traced = trace and len(passes) % 2 == 1
        res = session.run_pass(traced)
        res["e2e"]["setup_s"] = setup_s
        res["layers"].update(session.layers0)
        if res["digest"] != warm["digest"]:
            res["failures"].append(
                f"pass {len(passes)} boundaries/fronts differ from the "
                "warm-up pass under the same seed")
            res["failed"] += 1
        passes.append(res)
        elapsed = now() - start
        need_more = trace and len(passes) < 2
        if (elapsed >= seconds and not need_more) \
                or now() - t_spawn + res["wall_s"] > PASS_CAP_S:
            return {"passes": passes}


def run(ctx) -> list[dict]:
    t_spawn = now()
    res = ctx.children.run_worker(
        [sys.executable, str(BENCH_DIR / "analyze_warm.py"), "--worker",
         "--seed", str(ctx.seed), "--t0", repr(t_spawn),
         "--seconds", str(ctx.seconds), "--trace", str(int(ctx.trace))],
        timeout=170.0)
    return res["passes"]


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--worker", action="store_true", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0)
    args = ap.parse_args()
    print(json.dumps(worker(args.seed, args.t0, args.seconds,
                            bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
