"""The paper's primary contribution: the SHIFT and SPLIT operations,
their multidimensional forms, their inverses, and the plan-compilation
layer that caches their index structure."""

from repro.core.nonstandard_ops import (
    apply_chunk_nonstandard,
    apply_chunk_nonstandard_uncached,
    extract_region_nonstandard,
    shift_regions_nonstandard,
    shift_split_counts_nonstandard,
    split_contributions_nonstandard,
    split_weights_nonstandard,
)
from repro.core.plans import (
    NonStandardChunkPlan,
    StandardChunkPlan,
    clear_plan_caches,
    get_nonstandard_plan,
    get_standard_plan,
    plan_cache_stats,
)
from repro.core.shiftsplit1d import (
    AxisShiftSplit,
    axis_shift_split,
    shift_target_indices,
    split_contributions,
    split_weights,
)
from repro.core.standard_ops import (
    apply_chunk_standard,
    apply_chunk_standard_uncached,
    chunk_axis_maps,
    contribution_tensor,
    extract_region_standard,
    extract_region_transform_standard,
    extract_region_transform_standard_uncached,
    shift_split_region_counts,
)

__all__ = [
    "AxisShiftSplit",
    "NonStandardChunkPlan",
    "StandardChunkPlan",
    "apply_chunk_nonstandard",
    "apply_chunk_nonstandard_uncached",
    "apply_chunk_standard",
    "apply_chunk_standard_uncached",
    "axis_shift_split",
    "chunk_axis_maps",
    "clear_plan_caches",
    "contribution_tensor",
    "extract_region_nonstandard",
    "extract_region_standard",
    "extract_region_transform_standard",
    "extract_region_transform_standard_uncached",
    "get_nonstandard_plan",
    "get_standard_plan",
    "plan_cache_stats",
    "shift_regions_nonstandard",
    "shift_split_counts_nonstandard",
    "shift_split_region_counts",
    "shift_target_indices",
    "split_contributions",
    "split_contributions_nonstandard",
    "split_weights",
    "split_weights_nonstandard",
]
