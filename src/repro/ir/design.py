"""A :class:`Design` bundles one CFG and one DFG plus design constraints."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.ir.cfg import CFG
from repro.ir.dfg import DFG


@dataclass
class Design:
    """A behavioral design: control flow, data flow and constraints.

    Parameters
    ----------
    name:
        Design name (used in reports).
    cfg, dfg:
        The control- and data-flow graphs.  Every DFG operation must carry a
        ``birth_edge`` naming an existing CFG edge.
    clock_period:
        Target clock period in picoseconds (may be overridden per flow run).
    pipeline_ii:
        Initiation interval for pipelined designs; ``None`` means the design
        is not pipelined.
    allow_extra_states:
        Whether the scheduler's relaxation step may insert additional states
        (increase latency) when the schedule does not fit.
    attrs:
        Free-form metadata (source file, unroll factor, ...).
    """

    name: str
    cfg: CFG
    dfg: DFG
    clock_period: Optional[float] = None
    pipeline_ii: Optional[int] = None
    allow_extra_states: bool = False
    attrs: Dict[str, object] = field(default_factory=dict)

    # -- convenience -------------------------------------------------------------

    @property
    def num_states(self) -> int:
        """Number of state (wait) nodes in the CFG."""
        return len(self.cfg.state_nodes)

    def summary(self) -> Dict[str, object]:
        """A small dict describing the design, used in reports and logs."""
        kinds = {kind.value: count for kind, count in self.dfg.count_by_kind().items()}
        return {
            "name": self.name,
            "cfg_nodes": self.cfg.num_nodes,
            "cfg_edges": self.cfg.num_edges,
            "states": self.num_states,
            "operations": self.dfg.num_operations,
            "data_edges": self.dfg.num_edges,
            "op_kinds": kinds,
            "clock_period": self.clock_period,
            "pipeline_ii": self.pipeline_ii,
        }

    def copy(self, name: Optional[str] = None) -> "Design":
        return Design(
            name=name or self.name,
            cfg=self.cfg.copy(),
            dfg=self.dfg.copy(),
            clock_period=self.clock_period,
            pipeline_ii=self.pipeline_ii,
            allow_extra_states=self.allow_extra_states,
            attrs=dict(self.attrs),
        )

    def __repr__(self):  # pragma: no cover - cosmetic
        return (
            f"Design({self.name}: {self.dfg.num_operations} ops, "
            f"{self.num_states} states)"
        )
