"""Deterministic cost model standing in for real workload execution.

Assigns a total cost to (graph, workload, storage) and labels a storage
change 1 iff the old storage is strictly more expensive.
"""
from __future__ import annotations

import math

from .features import ENGINES, StorageConfig
from .graphmodel import (
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

# Model microseconds per op, the same on both engines. Traversals are priced
# at the columnar rate; the native-graph discount is applied as a factor in
# op_cost, so the effective native traversal cost is 5.0 * discount.
BASE_COST = tuple(
    2.0 if kind in CREATE_KINDS else 5.0 if kind in TRAVERSE_KINDS else 1.0
    for kind in OperationKind)
INDEX_SPEEDUP = 0.2
TRAVERSAL_NATIVE_DISCOUNT = 0.5
SIZE_EXPONENT = 1.0


def cost_params() -> dict:
    """The cost model's constants as every corpus header records them."""
    return {
        "base_cost": {engine: list(BASE_COST) for engine in ENGINES},
        "index_speedup": INDEX_SPEEDUP,
        "traversal_native_discount": TRAVERSAL_NATIVE_DISCOUNT,
        "size_exponent": SIZE_EXPONENT,
    }


def op_cost(kind: OperationKind, g: GraphStats, s: StorageConfig,
            prop_freq) -> float:
    """Model cost of one operation of `kind` on graph `g` under storage `s`."""
    base = BASE_COST[kind.value]
    size_factor = (
        1.0 + math.log10(1.0 + g.num_nodes + g.num_edges)
    ) ** SIZE_EXPONENT

    if kind in CREATE_KINDS:
        index_factor = 1.0 + MAINTENANCE_PER_INDEX * sum(s.index_bits)
    elif kind in INDEX_SENSITIVE_KINDS:
        alpha = INDEX_SPEEDUP
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
        traversal_factor = TRAVERSAL_NATIVE_DISCOUNT
    else:
        traversal_factor = 1.0

    return base * size_factor * index_factor * traversal_factor


def workload_cost(g: GraphStats, w: WorkloadProfile,
                  s: StorageConfig) -> float:
    """Rate-weighted total cost of the workload, scaled by its query count.

    The sum runs in ascending kind order so the floating-point result is
    reproducible and matches a brute-force per-query expansion exactly.
    """
    total = 0.0
    for kind in OperationKind:
        rate = w.op_rates[kind.value]
        if rate == 0.0:
            continue
        per_query = op_cost(kind, g, s, w.property_freq)
        total += per_query * (rate * w.total_queries)
    return total


def label(g: GraphStats, w: WorkloadProfile, s_old: StorageConfig,
          s_new: StorageConfig) -> int:
    """1 iff the old storage is strictly costlier; ties go to 0."""
    return int(workload_cost(g, w, s_old) > workload_cost(g, w, s_new))
