"""The result object shared by all flows."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.rtl.area import AreaReport
from repro.rtl.datapath import Datapath
from repro.rtl.power import PowerReport
from repro.rtl.timing import StateTimingReport
from repro.sched.allocation import Allocation
from repro.sched.schedule import Schedule


@dataclass
class FlowResult:
    """Everything a flow produces for one design point."""

    flow: str
    design_name: str
    clock_period: float
    schedule: Schedule
    datapath: Datapath
    area: AreaReport
    power: PowerReport
    timing: StateTimingReport
    allocation: Allocation
    runtime_seconds: float
    scheduling_seconds: float
    latency_steps: int
    meets_timing: bool
    details: Dict[str, object] = field(default_factory=dict)

    @property
    def total_area(self) -> float:
        return self.area.total

    @property
    def total_power(self) -> float:
        return self.power.total

    @property
    def throughput(self) -> float:
        return self.power.throughput

    def metrics(self) -> Dict[str, object]:
        """The JSON-safe per-flow metrics shared by result stores, golden
        files and the exploration store (:meth:`DSEEntry.metrics` embeds
        one of these per flow).  Wall-clock fields are deliberately
        excluded so two runs of the same flow produce identical metrics."""
        return {
            "area": self.total_area,
            "power": self.total_power,
            "throughput": self.throughput,
            "latency_steps": self.latency_steps,
            "meets_timing": self.meets_timing,
            "fu_instances": self.datapath.num_instances,
            "registers": self.datapath.num_registers,
        }

    def objective(self, name: str) -> float:
        """One scalar objective of this flow run, by registered name.

        Supports every numeric key of :meth:`metrics` plus ``runtime_s``
        and ``scheduling_s`` (wall-clock objectives, available only on live
        :class:`FlowResult` objects — persisted metrics exclude them by
        design).  This is the accessor the Pareto toolbox documents for
        FlowResult-level objective extraction.
        """
        if name == "runtime_s":
            return float(self.runtime_seconds)
        if name == "scheduling_s":
            return float(self.scheduling_seconds)
        value = self.metrics().get(name)
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise KeyError(f"{name!r} is not a numeric objective of a flow result")
        return float(value)

    def summary(self) -> Dict[str, object]:
        return {
            "flow": self.flow,
            "design": self.design_name,
            "clock_period": self.clock_period,
            "latency_steps": self.latency_steps,
            "area": round(self.total_area, 1),
            "power": round(self.total_power, 4),
            "meets_timing": self.meets_timing,
            "fu_instances": self.datapath.num_instances,
            "registers": self.datapath.num_registers,
            "runtime_s": round(self.runtime_seconds, 4),
        }

    def describe(self) -> str:
        lines = [f"[{self.flow}] {self.design_name} @ {self.clock_period:.0f} ps"]
        lines.append(f"  {self.area.describe()}")
        lines.append(f"  {self.power.describe()}")
        lines.append(f"  latency: {self.latency_steps} states, "
                     f"meets timing: {self.meets_timing}")
        lines.append(f"  FUs: {self.datapath.num_instances}, "
                     f"registers: {self.datapath.num_registers}, "
                     f"runtime: {self.runtime_seconds:.3f} s")
        return "\n".join(lines)
