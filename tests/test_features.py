import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aae import graphmodel
from aae.errors import CapacityError, ParseError, ValidationError
from aae.features import (
    DEFAULT_MAX_LEN,
    PAD_VALUE,
    EvaluationInstance,
    StorageConfig,
    assemble,
    encode_storage,
    extract_dataset_features,
    extract_workload_features,
    instance_from_record,
    instance_to_record,
    read_corpus,
    write_corpus,
)
from aae.graphmodel import GraphStats, WorkloadProfile
from aae.oracle import cost_params
from conftest import corpus_header


def minimal_stats():
    return GraphStats(num_nodes=1, num_edges=0, data_size=64,
                      num_node_types=1, num_edge_types=1,
                      property_cardinalities=(1,))


def three_prop_stats():
    return GraphStats(num_nodes=100, num_edges=200, data_size=64 * 300,
                      num_node_types=2, num_edge_types=3,
                      property_cardinalities=(10, 20, 5))


def uniform_workload(stats, freq=None):
    rates = tuple([1 / 19] * 18 + [1 - 18 / 19])
    if freq is None:
        freq = tuple([0.5] * stats.num_property_types)
    return WorkloadProfile(op_rates=rates, property_freq=freq,
                           total_queries=100)


class TestDatasetFeatures:
    def test_ldbc_head(self, ldbc_stats):
        vec = extract_dataset_features(ldbc_stats)
        expected = [
            math.log1p(64 * (184328 + 767894)),
            math.log1p(184328),
            math.log1p(767894),
            8.0, 15.0, 62.0,
        ]
        assert vec[:6] == pytest.approx(expected)

    def test_minimal_graph(self):
        vec = extract_dataset_features(minimal_stats())
        assert vec.tolist() == pytest.approx(
            [math.log1p(64), math.log1p(1), 0.0, 1.0, 1.0, 1.0,
             math.log1p(1)])

    @pytest.mark.parametrize("seed", range(5))
    def test_length(self, seed):
        g = graphmodel.generate_graph_stats("random", seed)
        vec = extract_dataset_features(g)
        assert vec.size == 6 + g.num_property_types


class TestWorkloadFeatures:
    def test_rate_block_sums_to_one(self, small_stats):
        w = graphmodel.generate_workload(
            small_stats, (0.38, 0.15, 0.02, 0.13, 0.32), seed=1)
        vec = extract_workload_features(w)
        assert vec[:19].sum() == pytest.approx(1.0)

    def test_uniform_rates(self):
        stats = three_prop_stats()
        vec = extract_workload_features(uniform_workload(stats))
        assert vec[:18] == pytest.approx(np.full(18, 1 / 19))
        assert vec.size == 19 + 3

    def test_zero_property_freq(self):
        stats = three_prop_stats()
        w = uniform_workload(stats, freq=(0.0, 0.0, 0.0))
        vec = extract_workload_features(w)
        assert vec[19:].tolist() == [0.0, 0.0, 0.0]


class TestEncodeStorage:
    def test_native_no_indexes(self):
        s = StorageConfig(engine="native-graph", index_bits=(0, 0, 0))
        assert encode_storage(s).tolist() == [1, 0, 0, 0, 0]

    def test_columnar_with_index(self):
        s = StorageConfig(engine="columnar", index_bits=(0, 1, 0))
        assert encode_storage(s).tolist() == [0, 1, 0, 1, 0]

    @pytest.mark.parametrize("engine", ["native-graph", "columnar"])
    def test_engine_block_is_one_hot(self, engine):
        s = StorageConfig(engine=engine, index_bits=(1, 1))
        block = encode_storage(s)[:2]
        assert block.sum() == 1.0
        assert set(block.tolist()) <= {0.0, 1.0}

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValidationError):
            StorageConfig(engine="document", index_bits=())


class TestAssemble:
    def test_three_property_layout(self):
        stats = three_prop_stats()
        w = uniform_workload(stats)
        s = StorageConfig(engine="columnar", index_bits=(1, 0, 0))
        inst = assemble(stats, w, s, s, max_len=DEFAULT_MAX_LEN)
        assert int(inst.mask.sum()) == (6 + 3) + (19 + 3) + (2 + 3) + (2 + 3)
        assert np.all(inst.vector[41:] == PAD_VALUE)
        assert np.all(inst.mask[41:] == 0)
        assert np.all(inst.mask[:41] == 1)

    def test_exact_fit_has_full_mask(self):
        stats = three_prop_stats()
        w = uniform_workload(stats)
        s = StorageConfig(engine="native-graph", index_bits=(0, 0, 0))
        inst = assemble(stats, w, s, s, max_len=41)
        assert inst.mask.sum() == 41

    def test_identity_storage_blocks_match(self):
        stats = three_prop_stats()
        w = uniform_workload(stats)
        s = StorageConfig(engine="columnar", index_bits=(0, 1, 1))
        inst = assemble(stats, w, s, s, max_len=64)
        old_block = inst.vector[31:36]
        new_block = inst.vector[36:41]
        assert old_block.tolist() == new_block.tolist()

    def test_capacity_error_names_required_length(self):
        stats = three_prop_stats()
        w = uniform_workload(stats)
        s = StorageConfig(engine="columnar", index_bits=(0, 0, 0))
        with pytest.raises(CapacityError) as exc:
            assemble(stats, w, s, s, max_len=40)
        assert exc.value.required == 41

    def test_storage_sizing_checked(self):
        stats = three_prop_stats()
        w = uniform_workload(stats)
        s = StorageConfig(engine="columnar", index_bits=(0, 0))
        with pytest.raises(ValidationError):
            assemble(stats, w, s, s)

    def test_mask_zero_iff_pad_sentinel(self):
        rng = np.random.default_rng(0)
        for seed in range(10):
            g = graphmodel.generate_graph_stats("random", seed)
            mix = rng.dirichlet(np.ones(5))
            w = graphmodel.generate_workload(g, mix, seed)
            bits = tuple(int(b) for b in
                         rng.integers(0, 2, g.num_property_types))
            s = StorageConfig(engine="native-graph", index_bits=bits)
            inst = assemble(g, w, s, s)
            pad_positions = inst.mask == 0
            assert np.all(inst.vector[pad_positions] == PAD_VALUE)
            # rates and bits are non-negative, so no real entry collides
            # with the sentinel
            assert np.all(inst.vector[~pad_positions] >= 0)

    def test_distinct_inputs_distinct_vectors(self):
        rng = np.random.default_rng(1)
        seen = set()
        for seed in range(15):
            g = graphmodel.generate_graph_stats("random", seed)
            w = graphmodel.generate_workload(g, rng.dirichlet(np.ones(5)),
                                             seed)
            bits = tuple(int(b) for b in
                         rng.integers(0, 2, g.num_property_types))
            s_old = StorageConfig(engine="native-graph", index_bits=bits)
            s_new = StorageConfig(engine="columnar", index_bits=bits)
            inst = assemble(g, w, s_old, s_new)
            seen.add(inst.vector.tobytes())
        assert len(seen) == 15


class TestCorpusSerialization:
    def make_instance(self):
        stats = three_prop_stats()
        w = uniform_workload(stats)
        s = StorageConfig(engine="columnar", index_bits=(1, 0, 0))
        inst = assemble(stats, w, s, s, max_len=48)
        inst.label = 1
        inst.provenance = {"stats": "t:0", "workload": "w:0",
                           "s_old": s.storage_id(), "s_new": s.storage_id()}
        return inst

    def test_record_roundtrip(self):
        inst = self.make_instance()
        back = instance_from_record(instance_to_record(inst))
        assert back.label == 1
        assert back.mask.tolist() == inst.mask.tolist()
        assert back.provenance == inst.provenance
        assert back.vector == pytest.approx(inst.vector, rel=1e-8)

    def test_corpus_roundtrip(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        inst = self.make_instance()
        write_corpus(path, corpus_header(count=2, max_len=48, seed=3),
                     [inst, inst])
        header, instances = read_corpus(path)
        assert header["seed"] == 3
        assert len(instances) == 2

    def test_bad_header_raises_parse_error(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text("not json\n")
        with pytest.raises(ParseError):
            read_corpus(path)

        def assert_refused(field, header, instances):
            write_corpus(path, header, instances)
            with pytest.raises(ParseError, match=field) as exc:
                read_corpus(path)
            assert exc.value.line == 1, header[field]

        # The cost_params must be the cost model's to the JSON text: no
        # true for a 1.0, no other value, no engine less.
        params = cost_params()
        columnar = params["base_cost"]["columnar"]
        # test_oracle.py's TestCostParamsValidation tries every field.
        bad_params = [{"index_speedup": 5}, "garbage",
                      {**params, "index_speedup": 0.3},
                      {**params, "size_exponent": math.inf},
                      {**params, "base_cost": {"columnar": columnar}}]
        for bad in (True, math.nan):
            bad_params.append({**params, "base_cost": {
                **params["base_cost"], "columnar": [bad] + columnar[1:]}})
        for bad in bad_params:
            assert_refused("cost_params", corpus_header(
                count=1, max_len=48, cost_params=bad), [self.make_instance()])
        # The count is an int equal to the number of records: a corpus cut
        # at a line boundary is not a shorter corpus.
        for count in (5, 2, True, 3.0, None, "3"):
            assert_refused("count", corpus_header(count=count, max_len=48),
                           [self.make_instance()] * 3)
        # The max_len is an int >= 1: a true is no 1, and a header-only
        # corpus carries no bad one either.
        for max_len in (True, "x", 0, -1, 1.0, None):
            for instances in ([], [EvaluationInstance(np.array([1.0]))]):
                assert_refused("max_len", corpus_header(
                    count=len(instances), max_len=max_len), instances)
        # A header that is not a JSON object.
        for text in ("[]", '"aae-corpus-v1"', "1", "null"):
            path.write_text(text + "\n")
            with pytest.raises(ParseError, match="JSON object") as exc:
                read_corpus(path)
            assert exc.value.line == 1, text
        # Decode failures in the header: a byte that is not UTF-8, a
        # max_len past Python's int-digit limit, lists nested too deep.
        good = json.dumps({"format": "aae-corpus-v1", **corpus_header(
            profile="X", max_len=7)})
        for text in (good.replace('"X"', '"\udcff"'),
                     good.replace('"max_len": 7', '"max_len": ' + "9" * 5000),
                     "[" * 100_000 + "]" * 100_000):
            path.write_text(text + "\n", errors="surrogateescape")
            with pytest.raises(ParseError) as exc:
                read_corpus(path)
            assert exc.value.line == 1, text[:40]

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), length=st.integers(1, 64),
           count=st.integers(0, 5))
    def test_corpus_roundtrip_property(self, tmp_path_factory, data, length,
                                       count):
        header = corpus_header(count=count, max_len=length,
                               profile=data.draw(st.text()),
                               seed=data.draw(st.integers()))
        instances, refused = [], []
        for index in range(count):
            real = data.draw(st.lists(
                st.floats(allow_nan=False, allow_infinity=False),
                max_size=length))
            while real and real[-1] == PAD_VALUE:  # trailing -1s are pad
                real.pop()
            # A real entry that renders as -1 would read back as pad.
            if PAD_VALUE in [float(f"{v:.9g}") for v in real]:
                refused.append(index)
            instances.append(EvaluationInstance(
                vector=np.array(real + [PAD_VALUE] * (length - len(real))),
                label=data.draw(st.sampled_from([0, 1, None])),
                provenance=data.draw(st.dictionaries(st.text(), st.text(),
                                                     max_size=4))))
        path = tmp_path_factory.mktemp("corpus") / "corpus.jsonl"
        if refused:
            with pytest.raises(ValidationError,
                               match=f"^record {refused[0]}: "):
                write_corpus(path, header, instances)
            # The records before the refused one do not pass for a corpus.
            with pytest.raises(ParseError):
                read_corpus(path)
            return
        write_corpus(path, header, instances)
        back_header, back = read_corpus(path)
        assert back_header == {"format": "aae-corpus-v1", **header}
        assert len(back) == count
        for inst, got in zip(instances, back):
            assert got.mask.tolist() == inst.mask.tolist()
            assert got.label == inst.label
            assert got.provenance == inst.provenance
            assert got.vector.tolist() == [float(f"{v:.9g}")
                                           for v in inst.vector]

    def test_bad_record_reports_line(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        good = json.loads(instance_to_record(self.make_instance()))
        vector, mask = good["vector"], good["mask"]
        real = sum(mask)

        def record(**fields):
            return json.dumps({**good, **fields})

        bad_records = {
            "not json": "{broken",
            "json true label": record(label=True),
            "float label 1.0": record(label=1.0),
            "float label 0.0": record(label=0.0),
            "nan vector entry": record(vector=[math.nan] + vector[1:]),
            "true vector entry": record(vector=[True] + vector[1:]),
            "string vector entry": record(vector=["1.5"] + vector[1:]),
            "mask value 2": record(mask=[2] + mask[1:]),
            "true mask entries": record(mask=[bool(m) for m in mask]),
            "string mask entries": record(mask=[str(m) for m in mask]),
            "float mask entry": record(mask=[1.0] + mask[1:]),
            "mask not a prefix": record(
                mask=mask[:real - 1] + [0, 1] + mask[real + 1:]),
            "non-pad entry past the mask": record(
                vector=vector[:real + 1] + [3.0] + vector[real + 2:]),
            "mask 1 on a -1 entry": record(
                mask=mask[:real] + [1] + mask[real + 1:]),
            "scalar vector and mask": record(vector=3.0, mask=1),
            "nested vector": record(vector=[[v] for v in vector]),
            "shorter than the header's max_len": record(vector=vector[:-1],
                                                        mask=mask[:-1]),
            "provenance a number": record(provenance=5),
            "provenance a list": record(provenance=["t:0"]),
            "provenance value a number": record(provenance={"stats": 0}),
            "no provenance": json.dumps(
                {k: v for k, v in good.items() if k != "provenance"}),
            # Written as byte 0xff, inside a JSON string.
            "byte not utf-8": record(provenance={"note": "X"}).replace(
                "X", "\udcff"),
            "400-digit integer entry": record(vector=[10**400] + vector[1:]),
            "lists nested 100,000 deep": record(
                vector="X").replace('"X"', "[" * 100_000 + "]" * 100_000),
        }
        header = json.dumps({"format": "aae-corpus-v1", **corpus_header(
            count=2, max_len=len(vector))})
        path.write_text("\n".join([header, record(), record()]) + "\n")
        assert len(read_corpus(path)[1]) == 2
        for name, bad in bad_records.items():
            path.write_text("\n".join([header, record(), bad]) + "\n",
                            errors="surrogateescape")
            with pytest.raises(ParseError) as exc:
                read_corpus(path)
            assert exc.value.line == 3, name

        # A header max_len the records do not have fails at the first one.
        header = json.dumps({"format": "aae-corpus-v1", **corpus_header(
            count=2, max_len=999)})
        path.write_text("\n".join([header, record(), record()]) + "\n")
        with pytest.raises(ParseError, match="max_len") as exc:
            read_corpus(path)
        assert exc.value.line == 2
