"""Offline caching advice: rank backends by their repeated scans.

:func:`rank_metrics` backs the ``repro optimizer advise`` CLI.  It reads
a telemetry metrics dump, which carries per-backend scan-signature
counters, and surfaces the backends with the most scans to reclaim by
turning the optimizer on.
"""

from __future__ import annotations


def _metric_entries(metrics: dict, section: str, name: str) -> list[dict]:
    payload = metrics.get("metrics", metrics)
    return [entry for entry in payload.get(section, ())
            if entry.get("name") == name]


def rank_metrics(metrics: dict, top: int = 5) -> list[dict]:
    """Advice from a telemetry metrics dump (``repro telemetry dump``).

    Consumes the ``scan_signature_{hits,misses}_total`` counters: a
    backend with many repeated signatures (high hit potential) and many
    cold misses is the first place to enable the optimizer.
    """
    tallies: dict[str, dict] = {}
    for name, field_name in (("scan_signature_hits_total", "hits"),
                             ("scan_signature_misses_total", "misses")):
        for entry in _metric_entries(metrics, "counters", name):
            backend_name = entry.get("labels", {}).get("backend", "?")
            tally = tallies.setdefault(backend_name,
                                       {"hits": 0, "misses": 0})
            tally[field_name] += int(entry.get("value", 0))
    advice = []
    for backend_name in sorted(tallies):
        tally = tallies[backend_name]
        total = tally["hits"] + tally["misses"]
        if not total:
            continue
        advice.append({
            "backend": backend_name,
            "scans": total,
            "shared_or_cached": tally["hits"],
            "cold": tally["misses"],
            "hit_rate": tally["hits"] / total,
            "action": ("working set is repeat-heavy: enable the "
                       "optimizer's scan cache"
                       if tally["hits"] * 2 >= total else
                       "mostly distinct scans: caching pays less here"),
        })
    advice.sort(key=lambda item: (-item["scans"], item["backend"]))
    return advice[:top]
