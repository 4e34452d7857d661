"""Synthetic graph-dataset statistics, workload generation, and the storage
configurations a workload runs on.

Everything here is a pure function of (arguments, seed) so corpora are
reproducible byte-for-byte.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from .errors import ConfigurationError, ValidationError

RATE_TOL = 1e-9
ZIPF_EXPONENT = 1.1


class OperationKind(IntEnum):
    """The 19 basic graph query operations, grouped in 5 categories.

    Serialized indices are the enum values; the order is frozen.
    """

    # create
    ADD_VERTEX = 0
    ADD_EDGE = 1
    ADD_PROPERTY = 2
    # read
    GET_COUNT = 3
    GET_PROPERTY = 4
    FIND_PROPERTY = 5
    FIND = 6
    # update
    SET_PROPERTY = 7
    # delete
    REMOVE_VERTEX = 8
    REMOVE_EDGE = 9
    REMOVE_PROPERTY = 10
    # traverse
    IN = 11
    OUT = 12
    ALL = 13
    T_FILTER = 14
    ALL_IN_PATH_BFS = 15
    ALL_IN_PATH_BFS_LABELED = 16
    SHORT_PATH = 17
    SHORT_PATH_LABELED = 18


CATEGORIES = ("create", "read", "update", "delete", "traverse")

CATEGORY_KINDS = {
    "create": (OperationKind.ADD_VERTEX, OperationKind.ADD_EDGE,
               OperationKind.ADD_PROPERTY),
    "read": (OperationKind.GET_COUNT, OperationKind.GET_PROPERTY,
             OperationKind.FIND_PROPERTY, OperationKind.FIND),
    "update": (OperationKind.SET_PROPERTY,),
    "delete": (OperationKind.REMOVE_VERTEX, OperationKind.REMOVE_EDGE,
               OperationKind.REMOVE_PROPERTY),
    "traverse": (OperationKind.IN, OperationKind.OUT, OperationKind.ALL,
                 OperationKind.T_FILTER, OperationKind.ALL_IN_PATH_BFS,
                 OperationKind.ALL_IN_PATH_BFS_LABELED,
                 OperationKind.SHORT_PATH, OperationKind.SHORT_PATH_LABELED),
}

NUM_KINDS = len(OperationKind)


@dataclass(frozen=True)
class GraphStats:
    """Statistical and structural summary of one graph dataset; entry i of
    `property_cardinalities` is the cardinality of property type i."""

    num_nodes: int
    num_edges: int
    data_size: int
    num_node_types: int
    num_edge_types: int
    property_cardinalities: tuple[int, ...]

    @property
    def num_property_types(self) -> int:
        return len(self.property_cardinalities)

    def __post_init__(self):
        if min(self.num_nodes, self.num_edges, self.data_size) < 0:
            raise ValidationError("counts must be non-negative")
        if min(self.num_node_types, self.num_edge_types,
               self.num_property_types) < 1:
            raise ValidationError("type counts must be >= 1")
        if any(card < 1 for card in self.property_cardinalities):
            raise ValidationError("property cardinalities must be >= 1")


@dataclass(frozen=True)
class WorkloadProfile:
    """Normalized operation rates plus per-property access frequencies."""

    op_rates: tuple[float, ...]
    property_freq: tuple[float, ...]
    total_queries: int

    def __post_init__(self):
        if len(self.op_rates) != NUM_KINDS:
            raise ValidationError(f"op_rates must have {NUM_KINDS} entries")
        if abs(sum(self.op_rates) - 1.0) > RATE_TOL:
            raise ValidationError("op_rates must sum to 1")
        if any(r < 0 or r > 1 for r in self.op_rates):
            raise ValidationError("op_rates must lie in [0, 1]")
        if any(f < 0 or f > 1 for f in self.property_freq):
            raise ValidationError("property_freq entries must lie in [0, 1]")
        if self.total_queries < 1:
            raise ValidationError("total_queries must be >= 1")


ENGINES = ("native-graph", "columnar")


@dataclass(frozen=True)
class StorageConfig:
    """One storage solution: engine category plus per-property index bits."""

    engine: str
    index_bits: tuple[int, ...]

    def __post_init__(self):
        if self.engine not in ENGINES:
            raise ValidationError(f"unknown engine: {self.engine!r}")
        if any(b not in (0, 1) for b in self.index_bits):
            raise ValidationError("index_bits must be 0/1")

    def storage_id(self) -> str:
        bits = "".join(str(b) for b in self.index_bits)
        return f"{self.engine}:{bits}"


# Counts for the named dataset profiles (nodes, edges, node types, edge
# types, property types).
_NAMED_PROFILES = {
    "freebase-small": (480577, 314753, 1, 1814, 3),
    "freebase-middle": (4264156, 3147537, 1, 2912, 3),
    "ldbc": (184328, 767894, 8, 15, 62),
}

BYTES_PER_ELEMENT = 64

# Ranges for the random profile, chosen so an assembled feature vector
# always fits the default max_len of 256 (29 + 4*P <= 256).
_RANDOM_NODE_RANGE = (10**3, 10**7)
_RANDOM_PROPERTY_RANGE = (1, 48)
_CARDINALITY_RANGE = (2, 10**4)


def generate_graph_stats(profile_name: str, seed: int) -> GraphStats:
    """Build a GraphStats for a named dataset profile or a seeded random one.

    Named profiles pin the published counts exactly; cardinalities (not
    published) are drawn from the seed. data_size is modeled as
    64*(nodes+edges) bytes.
    """
    rng = np.random.default_rng(seed)
    if profile_name in _NAMED_PROFILES:
        nodes, edges, node_types, edge_types, prop_types = \
            _NAMED_PROFILES[profile_name]
    elif profile_name == "random":
        nodes = int(rng.integers(_RANDOM_NODE_RANGE[0],
                                 _RANDOM_NODE_RANGE[1] + 1))
        edges = int(rng.integers(nodes // 2, 3 * nodes + 1))
        node_types = int(rng.integers(1, 21))
        edge_types = int(rng.integers(1, 51))
        prop_types = int(rng.integers(_RANDOM_PROPERTY_RANGE[0],
                                      _RANDOM_PROPERTY_RANGE[1] + 1))
    else:
        raise ConfigurationError(f"unknown dataset profile: {profile_name!r}")
    cards = rng.integers(_CARDINALITY_RANGE[0], _CARDINALITY_RANGE[1] + 1,
                         size=prop_types)
    return GraphStats(
        num_nodes=nodes,
        num_edges=edges,
        data_size=BYTES_PER_ELEMENT * (nodes + edges),
        num_node_types=node_types,
        num_edge_types=edge_types,
        property_cardinalities=tuple(int(c) for c in cards),
    )


def profile_names() -> tuple[str, ...]:
    return tuple(_NAMED_PROFILES) + ("random",)


def generate_workload(stats: GraphStats, mix, seed: int) -> WorkloadProfile:
    """Draw a workload whose per-category rate mass matches `mix`.

    `mix` gives the 5 category fractions (create, read, update, delete,
    traverse). Within a category the mass is split by a seeded simplex
    draw; property access frequencies follow a seeded Zipf shape scaled
    into (0, 1].
    """
    mix = [float(m) for m in mix]
    if len(mix) != len(CATEGORIES):
        raise ValidationError(f"mix must have {len(CATEGORIES)} entries")
    if any(m < 0 for m in mix):
        raise ValidationError("mix entries must be >= 0")
    if abs(sum(mix) - 1.0) > RATE_TOL:
        raise ValidationError(f"mix must sum to 1, got {sum(mix)!r}")

    rng = np.random.default_rng(seed)
    rates = np.zeros(NUM_KINDS)
    for cat, frac in zip(CATEGORIES, mix):
        kinds = CATEGORY_KINDS[cat]
        simplex = rng.dirichlet(np.ones(len(kinds)))
        for kind, share in zip(kinds, simplex):
            rates[kind.value] = frac * share
    rates /= rates.sum()

    p = stats.num_property_types
    ranks = rng.permutation(p)
    freq = (ranks + 1.0) ** -ZIPF_EXPONENT

    return WorkloadProfile(
        op_rates=tuple(float(r) for r in rates),
        property_freq=tuple(float(f) for f in freq),
        total_queries=int(rng.integers(100, 10001)),
    )
