"""Per-layer metrics read from the campaign counters and spans.

Layer numbers come from outside the program: the harness's own timers
around calls into each layer's public functions, plus the counters and
spans the program already exports (``CampaignConfig(metrics=True,
trace_sink=...)`` in-process, ``/metrics`` for the service).  A layer a
workload does not go through reports 0.
"""

from __future__ import annotations

from common import median


def hist_quantile(snapshot: dict, name: str, q: float) -> float:
    from repro.obs.metrics import Histogram
    payload = snapshot.get("histograms", {}).get(name)
    if not payload or not payload.get("count"):
        return 0.0
    return float(Histogram.from_dict(payload).quantile(q))


def hist_sum(snapshot: dict, name: str) -> float:
    return float(snapshot.get("histograms", {}).get(name, {}).get("sum", 0.0))


def hist_count(snapshot: dict, name: str) -> int:
    return int(snapshot.get("histograms", {}).get(name, {}).get("count", 0))


def counter(snapshot: dict, name: str) -> float:
    return float(snapshot.get("counters", {}).get(name, 0))


def span_walls(spans: list[dict], name: str) -> list[float]:
    return [float(s["wall_s"]) for s in spans if s.get("name") == name]


def campaign_layers(snapshot: dict, spans: list[dict], n_workers: int,
                    campaign_s: float) -> dict:
    """engine / parallel / core / compose / io numbers of traced campaigns.

    ``snapshot`` is the merged ``result.metrics`` of the campaigns,
    ``spans`` their span records and ``campaign_s`` their summed wall.
    """
    compile_s = hist_sum(snapshot, "replay.compile_seconds")
    replay_s = hist_sum(snapshot, "replay.batch_seconds")
    chunk_s = hist_sum(snapshot, "phase_a.chunk_seconds")
    phase_a = sum(span_walls(spans, "campaign.phase_a"))
    rounds = span_walls(spans, "campaign.adaptive.round")
    hits = counter(snapshot, "compose.cache.hit")
    misses = counter(snapshot, "compose.cache.miss")
    return {
        "engine.compile_s": compile_s,
        "engine.compiles": counter(snapshot, "replay.compiles"),
        "engine.compile_share": compile_s / campaign_s if campaign_s else 0.0,
        "engine.replay_s": replay_s,
        "engine.batches": counter(snapshot, "replay.batches"),
        "engine.lanes": counter(snapshot, "replay.lanes"),
        "engine.rows_per_s": (counter(snapshot, "replay.instruction_rows")
                              / replay_s if replay_s else 0.0),
        "parallel.chunks": hist_count(snapshot, "phase_a.chunk_seconds"),
        "parallel.chunk_p50_s": hist_quantile(
            snapshot, "phase_a.chunk_seconds", 0.5),
        "parallel.chunk_p99_s": hist_quantile(
            snapshot, "phase_a.chunk_seconds", 0.99),
        "parallel.busy_frac": (chunk_s / (n_workers * phase_a)
                               if phase_a else 0.0),
        "core.phase_a_s": phase_a,
        "core.phase_b_s": sum(span_walls(spans, "campaign.phase_b")),
        "core.rounds": counter(snapshot, "adaptive.rounds"),
        "core.round_p50_s": median(rounds) if rounds else 0.0,
        "core.samples": counter(snapshot, "adaptive.round_samples"),
        "compose.section_s": sum(span_walls(spans, "compose.section")),
        "compose.merge_s": sum(span_walls(spans, "compose.merge")),
        "compose.experiments": counter(snapshot, "compose.experiments"),
        "compose.cache_hit_frac": (hits / (hits + misses)
                                   if hits + misses else 0.0),
        "io.store_writes": counter(snapshot, "store.writes"),
        "io.store_write_s": hist_sum(snapshot, "store.write_seconds"),
        "io.write_bytes": (counter(snapshot, "store.write_bytes")
                           + counter(snapshot, "checkpoint.write_bytes")),
        "io.checkpoint_writes": (counter(snapshot, "checkpoint.chunks_written")
                                 + counter(snapshot,
                                           "checkpoint.partials_written")),
    }


def merge_snapshots(snapshots) -> dict:
    from repro.obs.metrics import MetricsRegistry
    registry = MetricsRegistry()
    for snap in snapshots:
        if snap:
            registry.merge(snap)
    return registry.snapshot()
