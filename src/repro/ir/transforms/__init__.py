"""IR-level transformations.

* :func:`unroll_loop` — expand ``k`` iterations of a straight-line loop
  into one acyclic design (the ground-truth witness for modulo schedules,
  run by the ``pipelined-vs-unrolled`` oracle).
"""

from repro.ir.transforms.unroll import unroll_loop

__all__ = ["unroll_loop"]
