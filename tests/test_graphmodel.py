import numpy as np
import pytest

from aae import graphmodel
from aae.errors import ConfigurationError, ValidationError
from aae.graphmodel import (
    CATEGORIES,
    CATEGORY_KINDS,
    NUM_KINDS,
    GraphStats,
    OperationKind,
    generate_graph_stats,
    generate_workload,
)

TABLE_MIX = (0.38, 0.15, 0.02, 0.13, 0.32)


class TestOperationKind:
    def test_nineteen_kinds_indexed_in_order(self):
        assert NUM_KINDS == 19
        assert [k.value for k in OperationKind] == list(range(19))

    def test_category_partition(self):
        seen = [k for kinds in CATEGORY_KINDS.values() for k in kinds]
        assert sorted(seen) == list(OperationKind)
        assert len(CATEGORY_KINDS["create"]) == 3
        assert len(CATEGORY_KINDS["read"]) == 4
        assert len(CATEGORY_KINDS["update"]) == 1
        assert len(CATEGORY_KINDS["delete"]) == 3
        assert len(CATEGORY_KINDS["traverse"]) == 8

    def test_category_property(self):
        assert OperationKind.ADD_VERTEX in CATEGORY_KINDS["create"]
        assert OperationKind.SHORT_PATH_LABELED in CATEGORY_KINDS["traverse"]
        assert OperationKind.SET_PROPERTY in CATEGORY_KINDS["update"]


class TestGenerateGraphStats:
    def test_ldbc_counts(self):
        g = generate_graph_stats("ldbc", 123)
        assert g.num_nodes == 184328
        assert g.num_edges == 767894
        assert g.num_node_types == 8
        assert g.num_edge_types == 15
        assert g.num_property_types == 62

    def test_freebase_small_counts(self):
        g = generate_graph_stats("freebase-small", 0)
        assert g.num_nodes == 480577
        assert g.num_edges == 314753
        assert g.num_edge_types == 1814
        assert g.num_property_types == 3

    def test_freebase_middle_counts(self):
        g = generate_graph_stats("freebase-middle", 0)
        assert g.num_nodes == 4264156
        assert g.num_edges == 3147537

    def test_data_size_convention(self):
        g = generate_graph_stats("ldbc", 0)
        assert g.data_size == 64 * (184328 + 767894)

    def test_random_is_deterministic(self):
        a = generate_graph_stats("random", 7)
        b = generate_graph_stats("random", 7)
        assert a == b

    def test_random_ranges(self):
        for seed in range(20):
            g = generate_graph_stats("random", seed)
            assert 10**3 <= g.num_nodes <= 10**7
            for card in g.property_cardinalities:
                assert 2 <= card <= 10**4

    def test_unknown_profile(self):
        with pytest.raises(ConfigurationError):
            generate_graph_stats("neo4j", 0)


class TestGraphStatsValidation:
    def test_negative_count_rejected(self):
        with pytest.raises(ValidationError):
            GraphStats(num_nodes=-1, num_edges=0, data_size=0,
                       num_node_types=1, num_edge_types=1,
                       property_cardinalities=(1,))

    def test_no_property_types_rejected(self):
        with pytest.raises(ValidationError, match="type counts must be >= 1"):
            GraphStats(num_nodes=1, num_edges=0, data_size=64,
                       num_node_types=1, num_edge_types=1,
                       property_cardinalities=())

    def test_zero_cardinality_rejected(self):
        with pytest.raises(ValidationError,
                           match="property cardinalities must be >= 1"):
            GraphStats(num_nodes=1, num_edges=0, data_size=64,
                       num_node_types=1, num_edge_types=1,
                       property_cardinalities=(3, 0))


def category_sum(w, cat):
    return sum(w.op_rates[k.value] for k in CATEGORY_KINDS[cat])


class TestGenerateWorkload:
    def test_table_mix_category_sums(self, small_stats):
        w = generate_workload(small_stats, TABLE_MIX, seed=5)
        for cat, expected in zip(CATEGORIES, TABLE_MIX):
            assert category_sum(w, cat) == pytest.approx(expected, abs=1e-9)
        assert sum(w.op_rates) == pytest.approx(1.0, abs=1e-9)

    def test_degenerate_create_only_mix(self, small_stats):
        w = generate_workload(small_stats, (1, 0, 0, 0, 0), seed=2)
        for kind in OperationKind:
            if kind in CATEGORY_KINDS["create"]:
                continue
            assert w.op_rates[kind.value] == 0.0
        assert sum(w.op_rates) == pytest.approx(1.0, abs=1e-9)

    def test_determinism(self, small_stats):
        a = generate_workload(small_stats, TABLE_MIX, seed=9)
        b = generate_workload(small_stats, TABLE_MIX, seed=9)
        assert a == b

    def test_mix_must_sum_to_one(self, small_stats):
        with pytest.raises(ValidationError):
            generate_workload(small_stats, (0.5, 0.5, 0.5, 0, 0), seed=0)

    def test_negative_mix_rejected(self, small_stats):
        with pytest.raises(ValidationError):
            generate_workload(small_stats, (1.2, -0.2, 0, 0, 0), seed=0)

    def test_property_freq_in_unit_interval(self, ldbc_stats):
        w = generate_workload(ldbc_stats, TABLE_MIX, seed=11)
        assert len(w.property_freq) == ldbc_stats.num_property_types
        assert all(0 <= f <= 1 for f in w.property_freq)
        # Zipf shape: the top-ranked property has frequency 1
        assert max(w.property_freq) == pytest.approx(1.0)

    @pytest.mark.parametrize("seed", range(10))
    def test_random_mixes_keep_invariants(self, small_stats, seed):
        rng = np.random.default_rng(seed)
        mix = rng.dirichlet(np.ones(5))
        w = generate_workload(small_stats, mix, seed=seed)
        assert sum(w.op_rates) == pytest.approx(1.0, abs=1e-9)
        for cat, expected in zip(CATEGORIES, mix):
            assert category_sum(w, cat) == pytest.approx(expected, abs=1e-9)
