"""Druid-like analytics engine with pluggable aggregators (Section 7.1)."""

from .aggregators import (
    AggregatorFactory, AggregatorState, DoubleSumAggregator,
    MomentsSketchAggregator, StreamingHistogramAggregator, registry,
)
from .engine import DruidEngine, Segment

__all__ = [
    "AggregatorFactory", "AggregatorState", "DoubleSumAggregator",
    "MomentsSketchAggregator", "StreamingHistogramAggregator", "registry",
    "DruidEngine", "Segment",
]
