"""Feature encoding: graph stats, workload, and storage into one padded vector.

The concatenation order [dataset | workload | s_old | s_new] is frozen;
reordering is a format-breaking change. The pad rule: an entry is real if and
only if it is not -1, and the real entries come first. Only corpus records
also store a mask (1 = real entry), which must agree with the rule.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (CapacityError, ParseError, ValidationError,
                     check_header, is_size)
from .graphmodel import ENGINES, GraphStats, StorageConfig, WorkloadProfile
from .oracle import cost_params

PAD_VALUE = -1.0
DEFAULT_MAX_LEN = 256
# LDBC has 62 property types, which needs 277 slots; its preset bumps the
# length to 320.
LDBC_MAX_LEN = 320


@dataclass
class EvaluationInstance:
    """One assembled, padded feature vector with optional label."""

    vector: np.ndarray
    label: int | None = None
    provenance: dict[str, str] = field(default_factory=dict)

    @property
    def mask(self) -> np.ndarray:
        """1 on each real entry, as a corpus record stores it."""
        return (self.vector != PAD_VALUE).astype(np.int8)


def extract_dataset_features(g: GraphStats) -> np.ndarray:
    """Length 6 + P vector; log1p applied to the unbounded magnitudes."""
    head = [
        math.log1p(g.data_size),
        math.log1p(g.num_nodes),
        math.log1p(g.num_edges),
        float(g.num_node_types),
        float(g.num_edge_types),
        float(g.num_property_types),
    ]
    tail = [math.log1p(card) for card in g.property_cardinalities]
    return np.array(head + tail, dtype=np.float64)


def extract_workload_features(w: WorkloadProfile) -> np.ndarray:
    """Length 19 + P vector: op rates in kind order, then property freqs."""
    return np.array(list(w.op_rates) + list(w.property_freq), dtype=np.float64)


def encode_storage(s: StorageConfig) -> np.ndarray:
    """Length 2 + P vector: engine one-hot then index bits."""
    return np.array([float(s.engine == e) for e in ENGINES]
                    + [float(b) for b in s.index_bits], dtype=np.float64)


def _check_sized(s: StorageConfig, g: GraphStats, name: str) -> None:
    if len(s.index_bits) != g.num_property_types:
        raise ValidationError(
            f"{name} has {len(s.index_bits)} index bits but the graph has "
            f"{g.num_property_types} property types"
        )


def assemble(g: GraphStats, w: WorkloadProfile, s_old: StorageConfig,
             s_new: StorageConfig,
             max_len: int = DEFAULT_MAX_LEN) -> EvaluationInstance:
    """Concatenate [dataset | workload | s_old | s_new] and pad to max_len."""
    _check_sized(s_old, g, "s_old")
    _check_sized(s_new, g, "s_new")
    if len(w.property_freq) != g.num_property_types:
        raise ValidationError("workload property_freq not sized to the graph")

    parts = np.concatenate([
        extract_dataset_features(g),
        extract_workload_features(w),
        encode_storage(s_old),
        encode_storage(s_new),
    ])
    if parts.size > max_len:
        raise CapacityError(required=parts.size, available=max_len)

    vector = np.full(max_len, PAD_VALUE, dtype=np.float64)
    vector[:parts.size] = parts
    return EvaluationInstance(vector=vector)


# ---------------------------------------------------------------------------
# Corpus serialization (JSON lines, one instance per line). Vector values are
# rendered at 9 significant digits for cross-platform reproducibility.

def _round9(x: float) -> float:
    return float(f"{x:.9g}")


def instance_to_record(inst: EvaluationInstance) -> str:
    mask = inst.mask
    real = int(mask.sum())
    # Only the real prefix is rounded; the pad is written as -1.0. If the
    # real entries do not all come first, a -1 falls in that prefix.
    vector = [_round9(v) for v in inst.vector[:real].tolist()]
    if PAD_VALUE in vector:
        raise ValidationError("a real-prefix entry is or renders as -1")
    record = {
        "vector": vector + [PAD_VALUE] * (mask.size - real),
        "mask": mask.tolist(),
        "label": inst.label,
        "provenance": inst.provenance,
    }
    return json.dumps(record, separators=(",", ":"))


def instance_from_record(line: str | bytes, lineno: int | None = None) -> EvaluationInstance:
    try:
        record = json.loads(line)
        label, provenance = record["label"], record["provenance"]
        # numpy would take a true or a "1.5" for a number, so check the JSON
        # types first; dict.values refuses a provenance that is no object.
        if not ({int, float}.issuperset(map(type, record["vector"]))
                and {int}.issuperset(map(type, record["mask"]))
                and {str}.issuperset(map(type, dict.values(provenance)))
                and (label is None or type(label) is int and label in (0, 1))):
            raise ValueError("entries must be numbers (mask: ints), the "
                             "label 0/1/null, provenance values strings")
        vector = np.array(record["vector"], dtype=np.float64)
    except (KeyError, TypeError, ValueError, OverflowError,
            RecursionError) as exc:
        raise ParseError(f"bad instance record: {exc}", line=lineno) from exc
    if not np.isfinite(vector).all():
        raise ParseError("vector holds a non-finite number", line=lineno)
    real = vector != PAD_VALUE
    # The mask entries are ints, so list equality compares them as 0 and 1.
    if not (record["mask"] == real.tolist() and real[:real.sum()].all()):
        raise ParseError("mask must be 1 on the entries other than -1, and "
                         "those must come first", line=lineno)
    return EvaluationInstance(vector=vector, label=label,
                              provenance=provenance)


def write_corpus(path, header: dict, instances) -> None:
    """Refuses what read_corpus would, and leaves an empty file."""
    header = {"format": "aae-corpus-v1", **header}
    with open(path, "w") as fh:
        try:
            check_header(header, _CORPUS_HEADER, line=None)
        except ParseError as exc:
            raise ValidationError(str(exc)) from exc
        if header["count"] != len(instances):
            raise ValidationError(f"header count {header['count']} is not "
                                  f"the {len(instances)} instances given")
        fh.write(json.dumps(header, separators=(",", ":")) + "\n")
        for index, inst in enumerate(instances):
            try:
                if inst.vector.size != header["max_len"]:
                    raise ValidationError(
                        f"vector has length {inst.vector.size}, the "
                        f"header's max_len is {header['max_len']}")
                fh.write(instance_to_record(inst) + "\n")
            except ValidationError as exc:
                fh.truncate(0)  # not a shorter corpus that reads cleanly
                raise ValidationError(f"record {index}: {exc}") from exc


def _is_cost_model(value) -> bool:
    return (json.dumps(value, sort_keys=True)  # as text: a true is no 1.0
            == json.dumps(cost_params(), sort_keys=True))


# Every corpus header field, each with its rule; all are required. profile
# and seed are provenance that no reader uses, and go unchecked.
_CORPUS_HEADER = {
    "format": ('"aae-corpus-v1"', lambda v: v == "aae-corpus-v1"),
    "cost_params": ("the cost model's cost_params()", _is_cost_model),
    "max_len": ("an int >= 1", is_size),
    "count": ("an int", lambda v: type(v) is int),
}


def read_corpus(path) -> tuple[dict, list[EvaluationInstance]]:
    # Lines stay bytes and json.loads decodes each, so a bad byte names it.
    with open(path, "rb") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise ParseError("empty corpus file", line=1)
    try:
        header = json.loads(lines[0])
    except (ValueError, RecursionError) as exc:
        raise ParseError(f"bad corpus header: {exc}", line=1) from exc
    check_header(header, _CORPUS_HEADER, line=1)
    length, instances = header["max_len"], []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        inst = instance_from_record(line, lineno=lineno)
        if inst.vector.size != length:
            raise ParseError(f"record has length {inst.vector.size}, the "
                             f"header's max_len is {length}", line=lineno)
        instances.append(inst)
    if header["count"] != len(instances):
        raise ParseError(f"header count {header['count']} is not the "
                         f"{len(instances)} records that follow", line=1)
    return header, instances
