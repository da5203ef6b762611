"""Resource libraries: area/delay tradeoff curves per operation kind and width.

An HLS resource library maps every synthesizable operation kind and bit width
to a set of *speed grades*: implementation variants of the same function with
different delay and area (e.g. ripple-carry vs. carry-lookahead adders,
different multiplier architectures).  The paper's Table 1 shows such curves
for a TSMC 90 nm library; :func:`tsmc90_library` reproduces those two curves
verbatim and extrapolates the remaining kinds/widths with a parametric model.
"""

from repro.lib.resource import ResourceVariant, ResourceClass
from repro.lib.library import Library, TechnologyParameters
from repro.lib.characterize import characterize_class, default_kind_models, KindModel
from repro.lib.tsmc90 import (
    tsmc90_library,
    TABLE1_MUL_8x8,
    TABLE1_ADD_16,
)

__all__ = [
    "ResourceVariant",
    "ResourceClass",
    "Library",
    "TechnologyParameters",
    "characterize_class",
    "default_kind_models",
    "KindModel",
    "tsmc90_library",
    "TABLE1_MUL_8x8",
    "TABLE1_ADD_16",
]
