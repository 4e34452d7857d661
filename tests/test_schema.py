"""Every field of a saved corpus or network, deleted or replaced by a value of
another JSON type, is refused with a ParseError on its header's line, or,
where any value is valid (provenance that no reader uses, a network seed of
0), reads back and saves again to the same bytes.

The fixed cases are enumerated, not sampled: each field meets each value on
every run, so a check missing from a header table, or a layer argument rule
that takes a bool, fails here every time. A hypothesis test then puts drawn
JSON values in drawn fields, where it asserts only that the file is refused
with a ParseError naming a line or else round-trips to the same bytes.
"""
import copy
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aae.classifiers import build
from aae.errors import ParseError, ValidationError
from aae.features import EvaluationInstance, read_corpus, write_corpus
from aae.nn import GRU, Dense, Network, load_network, save_network
from conftest import corpus_header

DELETE = object()
REPLACEMENTS = [DELETE, True, False, 1.5, "3", "x", None, [], {}, -1, 0]
# Corpus header fields that no reader uses: any value reads back.
PROVENANCE = ("profile", "seed")


def field_paths(header):
    """The path of every header field and of every field of a layer spec."""
    paths = [(name,) for name in header]
    for i, spec in enumerate(header.get("layers", [])):
        paths += [("layers", i, name) for name in spec]
    return paths


def edited(header, path, value):
    header = copy.deepcopy(header)
    *parents, name = path
    target = header
    for key in parents:
        target = target[key]
    if value is DELETE:
        del target[name]
    else:
        target[name] = value
    return header


def label(path, value):
    shown = "deleted" if value is DELETE else json.dumps(value)
    return f"{'/'.join(map(str, path))} {shown}"


def corpus_lines(tmp_path):
    instances = [EvaluationInstance(np.array([0.5, 2.0, -1.0]), label=1,
                                    provenance={"stats": "t:0"}),
                 EvaluationInstance(np.array([1.5, -1.0, -1.0]), label=0)]
    path = tmp_path / "corpus.jsonl"
    write_corpus(path, corpus_header(count=2, max_len=3), instances)
    return path.read_text().splitlines()


def round_trip_corpus(path, again):
    header, instances = read_corpus(path)
    write_corpus(again, {k: v for k, v in header.items() if k != "format"},
                 instances)
    return header


NETWORKS = {
    "scnn": lambda: build("scnn", 32, seed=3),
    "gru": lambda: build("gru", 16, seed=4),
    # A one-scalar step divides any input_len.
    "gru-step-1": lambda: Network([GRU(3), Dense(1, 3, "sigmoid")],
                                  arch="gru", input_len=5, seed=5),
}


def network_lines(tmp_path, name):
    net = NETWORKS[name]()
    net.initialize()
    path = tmp_path / "net.txt"
    save_network(net, path)
    return path.read_text().splitlines()


def test_corpus_header_fields(tmp_path):
    lines = corpus_lines(tmp_path)
    header = json.loads(lines[0])
    assert sorted(header) == ["cost_params", "count", "format", "max_len",
                              "profile", "seed"]
    path, again = tmp_path / "edited.jsonl", tmp_path / "again.jsonl"
    for field in header:
        for value in REPLACEMENTS:
            case = label((field,), value)
            new = edited(header, (field,), value)
            path.write_text("\n".join([json.dumps(new, separators=(",", ":")),
                                       *lines[1:]]) + "\n")
            if field in PROVENANCE:
                assert round_trip_corpus(path, again) == new, case
                assert again.read_bytes() == path.read_bytes(), case
                continue
            with pytest.raises(ParseError, match=field) as exc:
                read_corpus(path)
            assert exc.value.line == 1, case


@pytest.mark.parametrize("name", sorted(NETWORKS))
def test_network_fields(tmp_path, name):
    lines = network_lines(tmp_path, name)
    header = json.loads(lines[1])
    path, again = tmp_path / "edited.txt", tmp_path / "again.txt"
    for field in field_paths(header):
        for value in REPLACEMENTS:
            case = label(field, value)
            new = edited(header, field, value)
            path.write_text("\n".join([lines[0], json.dumps(
                new, separators=(",", ":")), *lines[2:]]) + "\n")
            if ((field == ("arch",) and type(value) is str)
                    or (field == ("seed",) and type(value) is int
                        and value >= 0)):
                save_network(load_network(path), again)
                assert again.read_bytes() == path.read_bytes(), case
                continue
            # A header field's refusal names it.
            match = field[0] if len(field) == 1 else None
            with pytest.raises(ParseError, match=match) as exc:
                load_network(path)
            assert exc.value.line == 2, case


@pytest.mark.parametrize("name", sorted(NETWORKS))
def test_layer_argument_rule(name):
    # Each argument of each layer, built directly: a ValidationError that
    # names the layer's kind and the argument, whatever numpy would do.
    net = NETWORKS[name]()
    for layer in net.layers:
        spec = layer.spec()
        args = {k: v for k, v in spec.items() if k != "kind"}
        for field in args:
            for value in REPLACEMENTS[1:]:
                with pytest.raises(ValidationError,
                                   match=f"^{layer.kind} {field} "):
                    type(layer)(**{**args, field: value})


# Ints stay small: the probe forward of a saved network runs on no rows, but
# its scan for the real columns still has the header's input_len entries.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 100) | st.floats()
    | st.text(max_size=4),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=3), inner, max_size=3)),
    max_leaves=5)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_drawn_values_are_refused_or_kept(tmp_path_factory, data):
    tmp_path = tmp_path_factory.mktemp("schema")
    name = data.draw(st.sampled_from(["corpus", *sorted(NETWORKS)]))
    corpus = name == "corpus"
    lines = corpus_lines(tmp_path) if corpus else network_lines(tmp_path,
                                                                name)
    at = 0 if corpus else 1
    header = json.loads(lines[at])
    field = data.draw(st.sampled_from(field_paths(header)))
    new = edited(header, field, data.draw(JSON_VALUES | st.just(DELETE)))
    lines[at] = json.dumps(new, separators=(",", ":"))
    path, again = tmp_path / "edited", tmp_path / "again"
    path.write_text("\n".join(lines) + "\n")
    try:
        if corpus:
            round_trip_corpus(path, again)
        else:
            save_network(load_network(path), again)
    except ParseError as exc:
        assert exc.line is not None
        return
    assert again.read_bytes() == path.read_bytes()
