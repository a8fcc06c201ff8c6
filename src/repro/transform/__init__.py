"""Bulk transformation of massive datasets (paper, Section 5.1)."""

from repro.transform.chunked import (
    ChunkSource,
    transform_nonstandard_chunked,
    transform_standard_chunked,
)
from repro.transform.report import TransformReport
from repro.transform.vitter import vitter_io_cost, vitter_transform_standard

__all__ = [
    "ChunkSource",
    "TransformReport",
    "transform_nonstandard_chunked",
    "transform_standard_chunked",
    "vitter_io_cost",
    "vitter_transform_standard",
]
