"""Repo benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  ``--trace 0`` reports every end-to-end
metric of ``BENCHMARK.json`` (medians over the run's passes); ``--trace
1`` alternates untraced and traced passes and reports every per-layer
metric from the traced ones, plus ``overhead.<metric>`` (traced minus
untraced median) for each end-to-end metric.  A human-readable table
goes first; the last stdout line is the JSON result.  The exit code is 0
only when every correctness check passed and the run left no process,
shared-memory segment or temp directory behind.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys

from common import (ROOT, BenchError, Children, leftovers, make_tmp_root,
                    median, remove_tmp_root, require_checkout, shm_segments)

WORKLOADS = ("exhaustive-cold", "analyze-warm", "serve-mixed")

#: (printed name, layer key, unit) of numbers only some workloads have;
#: printed in the table, not gated (every gated metric is on every
#: workload)
WORKLOAD_ONLY = (
    ("front_s", "optimize.front_s", "s"),
    ("front_residual_sdc", "optimize.residual_sdc", "ratio"),
    ("query_p50_ms", "serve.query_p50_ms", "ms"),
    ("query_p99_ms", "serve.query_p99_ms", "ms"),
    ("query_samples", "serve.query_samples", "count"),
    ("generator_late_ms", "serve.generator_late_ms", "ms"),
)


class Context:
    def __init__(self, seed: int, seconds: float, trace: bool,
                 children: Children):
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.children = children
        self.tmp_root = children.tmp_root


class Terminated(BaseException):
    """SIGTERM: unwind through every ``finally`` like Ctrl-C does."""


def _on_sigterm(signum, frame):
    raise Terminated()


def workload_runner(name: str):
    if name == "exhaustive-cold":
        import exhaustive_cold as mod
    elif name == "analyze-warm":
        import analyze_warm as mod
    else:
        import serve_mixed as mod
    return mod.run


def aggregate(bench: dict, passes: list[dict], trace: bool) -> dict:
    """The run's metrics from its passes (see the module docstring)."""
    untraced = [p for p in passes if not p["traced"]]
    e2e_median = {m["name"]: median(p["e2e"][m["name"]] for p in untraced)
                  for m in bench["end_to_end"]}
    if not trace:
        return {m["name"]: {"value": e2e_median[m["name"]], "unit": m["unit"]}
                for m in bench["end_to_end"]}
    traced = [p for p in passes if p["traced"]]
    out = {}
    for m in bench["per_layer"]:
        name = m["name"]
        if name.startswith("overhead."):
            base = name[len("overhead."):]
            value = median(p["e2e"][base] for p in traced) - e2e_median[base]
        else:
            value = median(p["layers"].get(name, 0.0) for p in traced)
        out[name] = {"value": value, "unit": m["unit"]}
    return out


def print_table(workload: str, metrics: dict, passes: list,
                trace: bool) -> None:
    print(f"workload {workload}: {len(passes)} passes "
          f"({sum(p['traced'] for p in passes)} traced)")
    for name, entry in metrics.items():
        print(f"  {name:32s} {entry['value']:>16.6g} {entry['unit']}")
    if not trace:
        layers = [p["layers"] for p in passes if not p["traced"]]
        for name, key, unit in WORKLOAD_ONLY:
            if all(key in lay for lay in layers):
                value = median(lay[key] for lay in layers)
                print(f"  {name:32s} {value:>16.6g} {unit}")
    for p in passes:
        for failure in p["failures"]:
            print(f"  FAILED: {failure}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        require_checkout()
        bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (BenchError, OSError, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    signal.signal(signal.SIGTERM, _on_sigterm)
    tmp_root = make_tmp_root()
    shm_before = shm_segments()
    children = Children(tmp_root)
    # numpy seeds must be non-negative; any integer maps to one input set
    ctx = Context(args.seed % 2**32, args.seconds, bool(args.trace), children)
    passes, error = [], None
    try:
        passes = workload_runner(args.workload)(ctx)
    except BenchError as exc:
        error = str(exc)
    except (KeyboardInterrupt, Terminated):
        error = "interrupted"
    finally:
        # a second Ctrl-C must not cut the clean-up short
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        signal.signal(signal.SIGTERM, signal.SIG_IGN)
        children.stop_all()
        remove_tmp_root(tmp_root)
    problems = leftovers(children, shm_before, tmp_root)
    if error or not passes:
        print(f"perfbench: {args.workload} failed: {error}", file=sys.stderr)
        for problem in problems:
            print(f"perfbench: {problem}", file=sys.stderr)
        return 1

    metrics = aggregate(bench, passes, bool(args.trace))
    print_table(args.workload, metrics, passes, bool(args.trace))
    for problem in problems:
        print(f"  FAILED: {problem}")
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes) + len(problems)
    correct = failed == 0 and not any(p["failures"] for p in passes)
    print(f"  {'failed_frac':32s} {failed / attempted:>16.6g} ratio")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
