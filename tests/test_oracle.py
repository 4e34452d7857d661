import math

import numpy as np
import pytest

from aae import graphmodel, oracle
from aae.errors import ParseError
from aae.features import StorageConfig, read_corpus, write_corpus
from aae.graphmodel import (
    CATEGORY_KINDS,
    GraphStats,
    OperationKind,
    WorkloadProfile,
)
from aae.oracle import (
    BASE_COST,
    INDEX_SPEEDUP,
    TRAVERSAL_NATIVE_DISCOUNT,
    cost_params,
    label,
    op_cost,
    workload_cost,
)
from conftest import corpus_header


def stats(nodes=100, edges=50, props=3):
    return GraphStats(num_nodes=nodes, num_edges=edges,
                      data_size=64 * (nodes + edges),
                      num_node_types=1, num_edge_types=1,
                      property_cardinalities=(10,) * props)


def workload(rates, freq=(0.5, 0.5, 0.5), n=100):
    return WorkloadProfile(op_rates=tuple(rates), property_freq=freq,
                           total_queries=n)


def single_kind_rates(kind):
    rates = [0.0] * 19
    rates[kind.value] = 1.0
    return rates


@pytest.fixture
def no_size_factor(monkeypatch):
    monkeypatch.setattr(oracle, "SIZE_EXPONENT", 0.0)


@pytest.fixture
def neutral_factors(monkeypatch, no_size_factor):
    monkeypatch.setattr(oracle, "INDEX_SPEEDUP", 1.0)
    monkeypatch.setattr(oracle, "TRAVERSAL_NATIVE_DISCOUNT", 1.0)


class TestOpCost:
    def test_neutral_factors_give_base_cost(self, neutral_factors):
        g = stats()
        s = StorageConfig(engine="columnar", index_bits=(1, 0, 1))
        for kind in OperationKind:
            expected = BASE_COST[kind.value]
            if kind in CATEGORY_KINDS["create"]:
                expected *= 1.2  # two index bits set
            assert op_cost(kind, g, s, (0.5, 0.5, 0.5)) == \
                pytest.approx(expected)

    def test_find_property_fully_indexed(self, no_size_factor):
        g = stats()
        s = StorageConfig(engine="columnar", index_bits=(1, 1, 1))
        cost = op_cost(OperationKind.FIND_PROPERTY, g, s,
                       (1 / 3, 1 / 3, 1 / 3))
        assert cost == pytest.approx(
            BASE_COST[OperationKind.FIND_PROPERTY] * 0.2)

    def test_add_vertex_index_maintenance(self):
        # Straight-line recomputation of the documented formula:
        # base 2.0 * size factor * (1 + 0.1 * 4).
        g = stats(nodes=1000, edges=500, props=4)
        s = StorageConfig(engine="native-graph", index_bits=(1, 1, 1, 1))
        size_factor = 1.0 + math.log10(1.0 + 1000 + 500)
        expected = 2.0 * size_factor * 1.4
        got = op_cost(OperationKind.ADD_VERTEX, g, s,
                      (0.25, 0.25, 0.25, 0.25))
        assert got == pytest.approx(expected, rel=1e-12)

    def test_traversal_discount_only_on_native(self, no_size_factor):
        g = stats()
        bits = (0, 0, 0)
        native = op_cost(OperationKind.SHORT_PATH, g,
                         StorageConfig("native-graph", bits),
                         (0.5, 0.5, 0.5))
        columnar = op_cost(OperationKind.SHORT_PATH, g,
                           StorageConfig("columnar", bits),
                           (0.5, 0.5, 0.5))
        assert native == pytest.approx(columnar * 0.5)

    def test_index_factor_weighted_by_frequency(self, no_size_factor):
        g = stats()
        s = StorageConfig(engine="columnar", index_bits=(1, 0, 0))
        # all accesses hit the indexed property
        hot = op_cost(OperationKind.FIND_PROPERTY, g, s, (1.0, 0.0, 0.0))
        assert hot == pytest.approx(1.0 * 0.2)
        # none do
        cold = op_cost(OperationKind.FIND_PROPERTY, g, s, (0.0, 1.0, 0.0))
        assert cold == pytest.approx(1.0)


class TestWorkloadCost:
    def test_single_kind_workload(self):
        g = stats()
        s = StorageConfig(engine="columnar", index_bits=(0, 0, 0))
        w = workload(single_kind_rates(OperationKind.ADD_VERTEX), n=100)
        per_op = op_cost(OperationKind.ADD_VERTEX, g, s, w.property_freq)
        assert workload_cost(g, w, s) == pytest.approx(100 * per_op)

    def test_linear_in_total_queries(self):
        g = stats()
        s = StorageConfig(engine="native-graph", index_bits=(1, 0, 0))
        w1 = workload(single_kind_rates(OperationKind.FIND), n=100)
        w2 = workload(single_kind_rates(OperationKind.FIND), n=200)
        assert workload_cost(g, w2, s) == workload_cost(g, w1, s) * 2

    def test_brute_force_expansion_exact(self):
        # Expand the workload into an explicit per-query list; per-kind
        # sums use math.fsum (exactly rounded), combined in ascending kind
        # order. n is a power of two so rates are dyadic and the
        # rate-weighted form matches bit for bit.
        g = stats()
        s = StorageConfig(engine="columnar", index_bits=(0, 1, 0))
        n = 1024
        counts = [0] * 19
        counts[OperationKind.ADD_EDGE.value] = 100
        counts[OperationKind.FIND_PROPERTY.value] = 700
        counts[OperationKind.SHORT_PATH.value] = 224
        rates = [c / n for c in counts]
        w = workload(rates, n=n)

        brute = 0.0
        for kind in OperationKind:
            per_query = [op_cost(kind, g, s, w.property_freq)
                         for _ in range(counts[kind.value])]
            brute += math.fsum(per_query)
        assert workload_cost(g, w, s) == brute

    def test_positivity(self):
        rng = np.random.default_rng(0)
        g = stats()
        for _ in range(20):
            mix = rng.dirichlet(np.ones(5))
            w = graphmodel.generate_workload(g, mix, int(rng.integers(1e6)))
            bits = tuple(int(b) for b in rng.integers(0, 2, 3))
            s = StorageConfig(engine="columnar", index_bits=bits)
            assert workload_cost(g, w, s) > 0


class TestLabel:
    def test_identical_storage_ties_to_zero(self):
        g = stats()
        s = StorageConfig(engine="columnar", index_bits=(1, 0, 0))
        w = workload(single_kind_rates(OperationKind.FIND))
        assert label(g, w, s, s) == 0

    def test_new_index_on_hot_property_wins(self):
        g = stats()
        rates = [0.0] * 19
        rates[OperationKind.FIND_PROPERTY.value] = 0.9
        rates[OperationKind.GET_COUNT.value] = 0.1
        w = workload(rates, freq=(1.0, 0.0, 0.0))
        s_old = StorageConfig(engine="columnar", index_bits=(0, 0, 0))
        s_new = StorageConfig(engine="columnar", index_bits=(1, 0, 0))
        assert workload_cost(g, w, s_old) > \
            workload_cost(g, w, s_new)
        assert label(g, w, s_old, s_new) == 1

    def test_antisymmetry(self):
        rng = np.random.default_rng(42)
        g = stats()
        for _ in range(50):
            mix = rng.dirichlet(np.ones(5))
            w = graphmodel.generate_workload(g, mix, int(rng.integers(1e6)))
            a = StorageConfig(
                engine="native-graph",
                index_bits=tuple(int(b) for b in rng.integers(0, 2, 3)))
            b = StorageConfig(
                engine="columnar",
                index_bits=tuple(int(b) for b in rng.integers(0, 2, 3)))
            assert not (label(g, w, a, b) == 1
                        and label(g, w, b, a) == 1)

    def test_index_monotonicity_without_creates(self):
        # with no create operations, adding an index can only help
        rng = np.random.default_rng(7)
        g = stats()
        for _ in range(30):
            mix = rng.dirichlet(np.ones(4))
            full_mix = (0.0, mix[0], mix[1], mix[2], mix[3])
            w = graphmodel.generate_workload(g, full_mix,
                                             int(rng.integers(1e6)))
            bits = [int(b) for b in rng.integers(0, 2, 3)]
            if all(bits):
                bits[0] = 0
            more = list(bits)
            more[more.index(0)] = 1
            base = workload_cost(
                g, w, StorageConfig("columnar", tuple(bits)))
            indexed = workload_cost(
                g, w, StorageConfig("columnar", tuple(more)))
            assert indexed <= base


class TestCostParamsValidation:
    """A corpus header's cost_params must be the cost model's constants."""

    def assert_refused(self, tmp_path, bad):
        path = tmp_path / "corpus.jsonl"
        write_corpus(path, corpus_header(cost_params=bad), [])
        with pytest.raises(ParseError, match="cost_params") as exc:
            read_corpus(path)
        assert exc.value.line == 1, bad

    def test_rejects_zero_base_cost(self, tmp_path):
        assert all(cost > 0 for cost in BASE_COST)
        params = cost_params()
        self.assert_refused(tmp_path, {**params, "base_cost": {
            e: list(BASE_COST[:-1]) + [0.0] for e in params["base_cost"]}})

    def test_rejects_out_of_range_speedup(self, tmp_path):
        assert 0 < INDEX_SPEEDUP <= 1
        assert 0 < TRAVERSAL_NATIVE_DISCOUNT <= 1
        params = cost_params()
        for field, bad in (("index_speedup", 0.0), ("index_speedup", 0.3),
                           ("traversal_native_discount", 1.5)):
            self.assert_refused(tmp_path, {**params, field: bad})

    def test_rejects_booleans_and_non_finite_numbers(self, tmp_path):
        params = cost_params()
        costs = params["base_cost"]
        for bad in (True, False, math.nan, math.inf, -math.inf, "1.0", None):
            for field in ("index_speedup", "traversal_native_discount",
                          "size_exponent"):
                self.assert_refused(tmp_path, {**params, field: bad})
            table = [bad] + costs["columnar"][1:]
            self.assert_refused(tmp_path, {
                **params, "base_cost": {**costs, "columnar": table}})

    def test_rejects_unknown_or_missing_engine(self, tmp_path):
        params = cost_params()
        costs = params["base_cost"]
        self.assert_refused(tmp_path, {**params, "base_cost": {
            **costs, "extra-engine": costs["columnar"]}})
        self.assert_refused(tmp_path, {
            **params, "base_cost": {"columnar": costs["columnar"]}})

    def test_dict_roundtrip(self, tmp_path):
        params = cost_params()
        assert params["base_cost"] == {
            e: list(BASE_COST) for e in ("native-graph", "columnar")}
        path = tmp_path / "corpus.jsonl"
        write_corpus(path, corpus_header(), [])
        header, _ = read_corpus(path)
        assert header["cost_params"] == params
