"""Picklable design factories for DSE sweeps.

A serial sweep happily accepts a lambda as its ``design_factory``, but
``SweepSession.run(points, workers=n)`` ships the factory to process-pool
workers, and lambdas and closures do not pickle (such a sweep runs serially).  These small frozen dataclasses are the picklable
equivalents: each one captures the workload parameters as fields and maps a
design point to a design in ``__call__``.

A factory receives the design point and reads ``point.latency``,
``point.clock_period`` and (where the workload supports it)
``point.pipeline_ii``, so one factory instance serves a whole sweep.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

from repro.ir.design import Design
from repro.workloads.idct import idct_design
from repro.workloads.interpolation import interpolation_design
from repro.workloads.resizer import resizer_design
from repro.workloads.generator import random_layered_design, segmented_design
from repro.workloads.kernels import (
    dct_butterfly_design,
    fft_stage_design,
    fir_design,
    matmul_design,
    sobel_design,
)

#: Kernel builders addressable by name (kept at module level so factories
#: pickle by reference, not by value).
KERNEL_BUILDERS: Dict[str, Callable[..., Design]] = {
    "fir": fir_design,
    "matmul": matmul_design,
    "dct_butterfly": dct_butterfly_design,
    "fft_stage": fft_stage_design,
    "sobel": sobel_design,
}


@dataclass(frozen=True)
class IDCTPointFactory:
    """Builds the paper's IDCT design for a Table 4 design point."""

    rows: int = 2
    width: int = 16

    def __call__(self, point) -> Design:
        return idct_design(latency=point.latency, rows=self.rows,
                           width=self.width,
                           clock_period=point.clock_period,
                           pipeline_ii=point.pipeline_ii)


@dataclass(frozen=True)
class KernelPointFactory:
    """Builds one of the named public-style kernels for a design point.

    ``params`` holds extra keyword arguments of the kernel builder (for
    example ``(("taps", 12),)`` for a 12-tap FIR) as a tuple of pairs so the
    factory stays hashable and picklable.
    """

    kernel: str
    width: int = 16
    params: Tuple[Tuple[str, object], ...] = ()

    def __post_init__(self):
        if self.kernel not in KERNEL_BUILDERS:
            raise ValueError(
                f"unknown kernel {self.kernel!r}; "
                f"expected one of {sorted(KERNEL_BUILDERS)}"
            )

    def __call__(self, point) -> Design:
        builder = KERNEL_BUILDERS[self.kernel]
        return builder(latency=point.latency, width=self.width,
                       clock_period=point.clock_period, **dict(self.params))


@dataclass(frozen=True)
class InterpolationPointFactory:
    """Builds the paper's Section II interpolation design for a design point.

    The interpolation workload's latency knob is its number of states, so
    ``point.latency`` maps to ``num_states``; ``unroll`` scales the number
    of multiply/add pairs.  This makes the paper's motivating example
    sweepable by ``SweepSession`` and the exploration layer alongside the
    IDCT and the public-style kernels.
    """

    unroll: int = 4
    data_width: int = 8
    accum_width: int = 16

    def __call__(self, point) -> Design:
        return interpolation_design(unroll=self.unroll,
                                    num_states=point.latency,
                                    data_width=self.data_width,
                                    accum_width=self.accum_width,
                                    name=f"interp_u{self.unroll}_l{point.latency}")


@dataclass(frozen=True)
class ResizerPointFactory:
    """Builds the Fig. 4 resizer design for a design point.

    The resizer's control structure is fixed by the paper (its CFG does not
    stretch with a latency budget), so every design point maps to the same
    structure regardless of ``point.latency`` — which makes it the
    degenerate-sweep stress case: the exploration store's fingerprint
    dedup collapses a whole latency sweep to a single flow evaluation per
    clock period.  Sweep the clock period instead to get a real trade-off.
    """

    width: int = 16

    def __call__(self, point) -> Design:
        return resizer_design(width=self.width)


@dataclass(frozen=True)
class SegmentedPointFactory:
    """Builds a fixed multi-basic-block design from primitive segment tuples.

    The segment encoding is :func:`repro.workloads.generator.segmented_design`'s
    — nested tuples of strings and integers — so the factory pickles for
    process-pool sweeps and hashes.  The design's
    control structure is fixed by the spec (like :class:`ResizerPointFactory`,
    ``point.latency`` does not stretch it); the clock period is taken from
    the design point.  This is the construction backend of the differential
    fuzzing scenarios in :mod:`repro.verify.scenarios`.
    """

    segments: Tuple[Tuple[object, ...], ...]
    inputs: Tuple[int, ...]
    outputs: int = 1
    tail_states: int = 0
    name: str = "segmented"
    carried: Tuple[Tuple[int, int, int], ...] = ()

    def __call__(self, point) -> Design:
        return segmented_design(self.segments, self.inputs,
                                outputs=self.outputs,
                                tail_states=self.tail_states,
                                name=self.name,
                                clock_period=point.clock_period,
                                carried=self.carried)


@dataclass(frozen=True)
class RandomPointFactory:
    """Builds a seeded random layered design for a design point."""

    seed: int = 0
    layers: int = 4
    ops_per_layer: int = 6
    width: int = 16

    def __call__(self, point) -> Design:
        return random_layered_design(seed=self.seed, layers=self.layers,
                                     ops_per_layer=self.ops_per_layer,
                                     latency=point.latency, width=self.width,
                                     clock_period=point.clock_period)


#: Every workload name :func:`resolve_factory` accepts.
WORKLOAD_NAMES: Tuple[str, ...] = ("idct", "interpolation", "resizer",
                                   "random") + tuple(sorted(KERNEL_BUILDERS))


def resolve_factory(workload: str, params: Optional[Dict[str, int]] = None):
    """The picklable factory for a workload name plus builder parameters.

    One registry serving every front end that names workloads by string —
    the ``repro explore`` CLI and the serve layer's sweep/explore jobs:
    ``"idct"``, ``"interpolation"``, ``"resizer"``, ``"random"`` or any
    :data:`KERNEL_BUILDERS` kernel.  ``params`` feed the factory's keyword
    knobs (``rows`` for the IDCT, ``seed``/``layers``/``ops_per_layer`` for
    the random workload, builder kwargs for the kernels).
    """
    params = dict(params or {})
    if workload == "idct":
        return IDCTPointFactory(rows=params.get("rows", 2),
                                width=params.get("width", 16))
    if workload == "interpolation":
        return InterpolationPointFactory(**params)
    if workload == "resizer":
        return ResizerPointFactory(**params)
    if workload == "random":
        return RandomPointFactory(seed=params.get("seed", 7),
                                  layers=params.get("layers", 4),
                                  ops_per_layer=params.get("ops_per_layer", 6))
    if workload in KERNEL_BUILDERS:
        width = params.pop("width", 16)
        return KernelPointFactory(workload, width=width,
                                  params=tuple(sorted(params.items())))
    raise ValueError(
        f"unknown workload {workload!r}; expected one of {list(WORKLOAD_NAMES)}")
