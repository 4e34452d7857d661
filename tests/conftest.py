import numpy as np
import pytest

from aae import graphmodel
from aae.features import StorageConfig
from aae.oracle import cost_params


def corpus_header(count=0, max_len=1, **fields):
    """A complete corpus header as gen writes it (write_corpus adds the
    format), for `count` records of length `max_len`, with `fields` set."""
    return {"profile": "test", "seed": 0, "count": count, "max_len": max_len,
            "cost_params": cost_params(), **fields}


def numeric_gradient(loss_fn, array, eps=1e-4):
    """Central finite differences of loss_fn w.r.t. every entry of array."""
    grad = np.zeros_like(array)
    it = np.nditer(array, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        orig = array[idx]
        array[idx] = orig + eps
        plus = loss_fn()
        array[idx] = orig - eps
        minus = loss_fn()
        array[idx] = orig
        grad[idx] = (plus - minus) / (2 * eps)
    return grad


@pytest.fixture
def ldbc_stats():
    return graphmodel.generate_graph_stats("ldbc", 1)


@pytest.fixture
def small_stats():
    # 3 properties keeps hand-checked vector lengths manageable
    return graphmodel.generate_graph_stats("freebase-small", 1)


def storage(engine, bits):
    return StorageConfig(engine=engine, index_bits=tuple(bits))
