"""Exposition: Prometheus text format and JSON renderers.

Both renderers accept either a live :class:`MetricsRegistry` or the
plain dict produced by ``MetricsRegistry.to_dict()`` (the form
``render_json`` writes to a ``metrics.json`` dump), so the CLI can
re-render dumps offline.
"""

from __future__ import annotations

import json
import re
from typing import Dict, Iterable, List, Mapping, Set, Tuple, Union

from .metrics import LogHistogram, MetricsRegistry

_NAME_RE = re.compile(r"[^a-zA-Z0-9_:]")
SUMMARY_QUANTILES = (0.5, 0.9, 0.95, 0.99)


def _coerce(registry: Union[MetricsRegistry, Mapping]) -> dict:
    if isinstance(registry, MetricsRegistry):
        return registry.to_dict()
    return dict(registry)


def _prom_name(name: str) -> str:
    return _NAME_RE.sub("_", f"repro_{name}")


def _prom_labels(
    labels: Mapping[str, str],
    extra: Union[Mapping[str, object], Iterable[Tuple[str, object]]] = (),
) -> str:
    merged: Dict[str, object] = dict(labels)
    merged.update(dict(extra))
    pairs = sorted(merged.items())
    if not pairs:
        return ""
    body = ",".join(f'{_NAME_RE.sub("_", k)}="{v}"' for k, v in pairs)
    return "{" + body + "}"


def render_prometheus(registry: Union[MetricsRegistry, Mapping]) -> str:
    """Prometheus text exposition format.

    Histograms are exposed as summaries (quantile series + ``_count`` +
    an approximate ``_sum`` reconstructed from bucket midpoints; the
    registry deliberately stores no float sum — see metrics.py).
    """
    payload = _coerce(registry)
    lines: List[str] = []
    typed: Set[str] = set()

    def _type_line(name: str, kind: str) -> None:
        if name not in typed:
            lines.append(f"# TYPE {name} {kind}")
            typed.add(name)

    for entry in payload.get("counters", []):
        name = _prom_name(entry["name"])
        _type_line(name, "counter")
        lines.append(f"{name}{_prom_labels(entry.get('labels', {}))} {entry['value']}")
    for entry in payload.get("gauges", []):
        name = _prom_name(entry["name"])
        _type_line(name, "gauge")
        lines.append(f"{name}{_prom_labels(entry.get('labels', {}))} {entry['value']}")
    for entry in payload.get("histograms", []):
        name = _prom_name(entry["name"])
        _type_line(name, "summary")
        hist = LogHistogram.from_dict(entry)
        labels = entry.get("labels", {})
        for q in SUMMARY_QUANTILES:
            value = hist.quantile(q)
            lines.append(f"{name}{_prom_labels(labels, {'quantile': q})} {value}")
        lines.append(f"{name}_count{_prom_labels(labels)} {hist.count}")
        lines.append(f"{name}_sum{_prom_labels(labels)} {hist.approx_sum()}")
    return "\n".join(lines) + ("\n" if lines else "")


def render_json(registry: Union[MetricsRegistry, Mapping], indent: int = 2) -> str:
    return json.dumps(_coerce(registry), indent=indent, sort_keys=True)


def load_metrics(path: str) -> dict:
    """Load a metrics dump for offline rendering.

    Accepts either a raw ``MetricsRegistry.to_dict()`` document (what
    ``render_json`` writes) or one wrapped as ``{"metrics": {...}}``.
    """
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if "metrics" in doc and "counters" not in doc:
        return doc["metrics"]
    return doc
