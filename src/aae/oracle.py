"""Deterministic cost model standing in for real workload execution.

Assigns a total cost to (graph, workload, storage) and labels a storage
change 1 iff the old storage is strictly more expensive.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import ValidationError
from .features import ENGINES, StorageConfig
from .graphmodel import (
    NUM_KINDS,
    CATEGORY_KINDS,
    GraphStats,
    OperationKind,
    WorkloadProfile,
)

# Kinds whose cost depends on whether the touched property is indexed.
INDEX_SENSITIVE_KINDS = frozenset({
    OperationKind.GET_PROPERTY,
    OperationKind.FIND_PROPERTY,
    OperationKind.FIND,
    OperationKind.SET_PROPERTY,
    OperationKind.REMOVE_PROPERTY,
})

CREATE_KINDS = frozenset(CATEGORY_KINDS["create"])
TRAVERSE_KINDS = frozenset(CATEGORY_KINDS["traverse"])

# Per-index write-amplification on create operations.
MAINTENANCE_PER_INDEX = 0.1


def _default_base_cost() -> dict[str, tuple[float, ...]]:
    # Model microseconds per op. Traversals are priced at the columnar rate
    # on both engines; the native-graph discount is applied as a factor in
    # op_cost, so the effective native traversal cost is 5.0 * discount.
    costs = [0.0] * NUM_KINDS
    for kind in OperationKind:
        if kind in CREATE_KINDS:
            costs[kind.value] = 2.0
        elif kind in TRAVERSE_KINDS:
            costs[kind.value] = 5.0
        else:
            costs[kind.value] = 1.0
    return {engine: tuple(costs) for engine in ENGINES}


@dataclass(frozen=True)
class CostParams:
    """All constants of the cost model; serialized with every corpus."""

    base_cost: dict[str, tuple[float, ...]] = field(
        default_factory=_default_base_cost)
    index_speedup: float = 0.2
    traversal_native_discount: float = 0.5
    size_exponent: float = 1.0

    def __post_init__(self):
        if set(self.base_cost) != set(ENGINES):
            raise ValidationError(f"base_cost must list exactly {ENGINES}")
        costs = [c for engine in ENGINES for c in self.base_cost[engine]]
        for value in [*costs, self.index_speedup,
                      self.traversal_native_discount, self.size_exponent]:
            if (isinstance(value, bool) or not isinstance(value, (int, float))
                    or not -math.inf < value < math.inf):
                raise ValidationError(
                    f"cost parameters must be finite numbers, got {value!r}")
        for engine, table in self.base_cost.items():
            if len(table) != NUM_KINDS:
                raise ValidationError(
                    f"base_cost[{engine!r}] must list all {NUM_KINDS} kinds")
            if any(c <= 0 for c in table):
                raise ValidationError("base costs must be positive")
        if not 0 < self.index_speedup <= 1:
            raise ValidationError("index_speedup must lie in (0, 1]")
        if not 0 < self.traversal_native_discount <= 1:
            raise ValidationError(
                "traversal_native_discount must lie in (0, 1]")
        if self.size_exponent < 0:
            raise ValidationError("size_exponent must be >= 0")

    def to_dict(self) -> dict:
        return {
            "base_cost": {e: list(t) for e, t in self.base_cost.items()},
            "index_speedup": self.index_speedup,
            "traversal_native_discount": self.traversal_native_discount,
            "size_exponent": self.size_exponent,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "CostParams":
        return cls(
            base_cost={e: tuple(t) for e, t in d["base_cost"].items()},
            index_speedup=d["index_speedup"],
            traversal_native_discount=d["traversal_native_discount"],
            size_exponent=d["size_exponent"],
        )


def op_cost(kind: OperationKind, g: GraphStats, s: StorageConfig,
            prop_freq, params: CostParams) -> float:
    """Model cost of one operation of `kind` on graph `g` under storage `s`."""
    base = params.base_cost[s.engine][kind.value]
    size_factor = (
        1.0 + math.log10(1.0 + g.num_nodes + g.num_edges)
    ) ** params.size_exponent

    if kind in CREATE_KINDS:
        index_factor = 1.0 + MAINTENANCE_PER_INDEX * sum(s.index_bits)
    elif kind in INDEX_SENSITIVE_KINDS:
        alpha = params.index_speedup
        total = sum(prop_freq)
        if total > 0:
            index_factor = sum(
                f * (alpha if bit else 1.0)
                for f, bit in zip(prop_freq, s.index_bits)
            ) / total
        else:
            index_factor = sum(
                alpha if bit else 1.0 for bit in s.index_bits
            ) / max(1, len(s.index_bits))
    else:
        index_factor = 1.0

    if kind in TRAVERSE_KINDS and s.engine == "native-graph":
        traversal_factor = params.traversal_native_discount
    else:
        traversal_factor = 1.0

    return base * size_factor * index_factor * traversal_factor


def workload_cost(g: GraphStats, w: WorkloadProfile, s: StorageConfig,
                  params: CostParams) -> float:
    """Rate-weighted total cost of the workload, scaled by its query count.

    The sum runs in ascending kind order so the floating-point result is
    reproducible and matches a brute-force per-query expansion exactly.
    """
    total = 0.0
    for kind in OperationKind:
        rate = w.op_rates[kind.value]
        if rate == 0.0:
            continue
        per_query = op_cost(kind, g, s, w.property_freq, params)
        total += per_query * (rate * w.total_queries)
    return total


def label(g: GraphStats, w: WorkloadProfile, s_old: StorageConfig,
          s_new: StorageConfig, params: CostParams) -> int:
    """1 iff the old storage is strictly costlier; ties go to 0."""
    return int(workload_cost(g, w, s_old, params) >
               workload_cost(g, w, s_new, params))
