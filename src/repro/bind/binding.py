"""Functional-unit binding (resource sharing).

Operations of the same resource class scheduled in different control steps
may share one functional-unit instance.  The binder is *grade aware*: the
instance implementing a set of operations must be at least as fast as the
fastest grade required by any of them, so mixing a critical (fast) operation
into a pool of relaxed (slow) operations silently upgrades — and enlarges —
the shared unit.  The greedy cost model below therefore weighs the upgrade
cost and a small multiplexer penalty against the cost of opening a fresh
instance, which keeps fast and slow operations in separate pools whenever
that is the cheaper choice (the behaviour the paper's slack-based flow relies
on to retain its budgeted area savings through binding).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from operator import add
from typing import Dict, List, Optional, Set, Tuple

from repro.errors import BindingError
from repro.ir.design import Design
from repro.lib.library import Library
from repro.lib.resource import ResourceVariant
from repro.core.analysis_cache import default_cache
from repro.sched.allocation import ClassKey
from repro.sched.schedule import Schedule


@dataclass
class FUInstance:
    """One shared functional unit."""

    name: str
    class_key: ClassKey
    variant: ResourceVariant
    ops: List[str] = field(default_factory=list)
    steps: Set[int] = field(default_factory=set)

    @property
    def area(self) -> float:
        return self.variant.area

    @property
    def num_ops(self) -> int:
        return len(self.ops)


@dataclass
class Binding:
    """The ``bind: O -> Res`` mapping plus the instance list."""

    instances: List[FUInstance]
    op_to_instance: Dict[str, str]

    def instance_of(self, op_name: str) -> FUInstance:
        try:
            instance_name = self.op_to_instance[op_name]
        except KeyError:
            raise BindingError(f"operation {op_name!r} is not bound") from None
        return self.instance_by_name(instance_name)

    def instance_by_name(self, name: str) -> FUInstance:
        for instance in self.instances:
            if instance.name == name:
                return instance
        raise BindingError(f"unknown functional-unit instance {name!r}")

    def total_fu_area(self) -> float:
        # Not sum(), whose float rounding changed in Python 3.12: the golden
        # areas are these left-to-right sums.
        return reduce(add, (instance.area for instance in self.instances), 0)

    def instances_of_class(self, class_key: ClassKey) -> List[FUInstance]:
        return [i for i in self.instances if i.class_key == class_key]

    def describe(self) -> str:
        lines = [f"Binding: {len(self.instances)} instances, "
                 f"{len(self.op_to_instance)} operations"]
        for instance in sorted(self.instances, key=lambda i: i.name):
            lines.append(
                f"  {instance.name:<14} {instance.variant.name:<14} "
                f"area={instance.area:8.1f}  ops={sorted(instance.ops)}"
            )
        return "\n".join(lines)


def _conflicts(steps: Set[int], step: int, pipeline_ii: Optional[int]) -> bool:
    if pipeline_ii is not None and pipeline_ii >= 1:
        return any(existing % pipeline_ii == step % pipeline_ii for existing in steps)
    return step in steps


def bind_operations(
    design: Design,
    library: Library,
    schedule: Schedule,
    pipeline_ii: Optional[int] = None,
) -> Binding:
    """Bind all scheduled synthesizable operations to functional units.

    Sharing an instance costs one more source on each of its input
    multiplexers, estimated as the technology's 2-to-1 mux cost times the
    class width per operand.
    """
    pipeline_ii = pipeline_ii if pipeline_ii is not None else design.pipeline_ii
    technology = library.technology

    instances: List[FUInstance] = []
    op_to_instance: Dict[str, str] = {}
    counters: Dict[ClassKey, int] = {}

    table = default_cache().budget_template(design, library)
    ops = []
    for item in schedule.items:
        index = table.index.get(item.op)  # None for a constant
        key = None if index is None else table.class_keys[index]
        if key is None:
            continue
        variant = item.variant or table.classes[index].fastest
        ops.append((key, item.step, variant, design.dfg.op(item.op)))
    # Deterministic order: class, then step, then fastest-first inside a step
    # so critical operations claim fast instances before relaxed ones arrive.
    ops.sort(key=lambda entry: (entry[0], entry[1], entry[2].delay, entry[3].name))

    for key, step, variant, op in ops:
        width = key[1]
        penalty = technology.mux2_area_per_bit * width * len(op.operand_widths)
        best: Optional[Tuple[float, FUInstance, ResourceVariant]] = None
        for instance in instances:
            if instance.class_key != key:
                continue
            if _conflicts(instance.steps, step, pipeline_ii):
                continue
            # Sharing may require upgrading the instance to the faster grade.
            if variant.delay < instance.variant.delay:
                new_variant = variant
            else:
                new_variant = instance.variant
            upgrade_cost = max(0.0, new_variant.area - instance.variant.area)
            cost = upgrade_cost + penalty
            if best is None or cost < best[0]:
                best = (cost, instance, new_variant)
        new_instance_cost = variant.area
        if best is not None and best[0] < new_instance_cost:
            _, instance, new_variant = best
            instance.variant = new_variant
            instance.ops.append(op.name)
            instance.steps.add(step)
            op_to_instance[op.name] = instance.name
        else:
            index = counters.get(key, 0)
            counters[key] = index + 1
            instance = FUInstance(
                name=f"{key[0]}{key[1]}_u{index}",
                class_key=key,
                variant=variant,
                ops=[op.name],
                steps={step},
            )
            instances.append(instance)
            op_to_instance[op.name] = instance.name

    return Binding(instances=instances, op_to_instance=op_to_instance)
