"""Transformation algebra (system S7, paper §4); its catalogue of kinds
is :data:`repro.transform.spec.CATALOGUE`."""

from repro.transform.distribution import (
    distribute, distribution_legal, distribution_matrix,
)
from repro.transform.matrices import (
    Transformation, alignment, compose, identity, permutation, reversal,
    scaling, skew, statement_reorder,
)
from repro.transform.spec import (
    CATALOGUE, Schedule, parse_schedule, parse_spec, spec_ops,
)
from repro.transform.tiling import (
    TILE_LADDER, fuse, fuse_legal, fuse_site_offset, fuse_sites, jamming_matrix,
    loop_path_by_var, strip_mine, tile, tile_var_for, tiling_matrix,
)

__all__ = [
    "Transformation", "identity", "permutation", "skew", "reversal",
    "scaling", "alignment", "statement_reorder", "compose",
    "distribute", "distribution_matrix", "jamming_matrix",
    "distribution_legal", "parse_spec", "parse_schedule", "Schedule",
    "spec_ops", "CATALOGUE", "tile", "strip_mine", "fuse", "fuse_legal",
    "fuse_site_offset", "fuse_sites", "tiling_matrix", "loop_path_by_var",
    "tile_var_for", "TILE_LADDER",
]
