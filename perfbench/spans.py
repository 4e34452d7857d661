"""In-memory span tracing of aae's public callables, installed from outside.

The tracer replaces each traced callable with a wrapper on every object that
callers look it up on (a module, or a class for nn layers), records one span
per call, and restores the originals when uninstalled. Spans are kept in
memory and written out once, after the run.

A span's self time is its duration minus the durations of its direct child
spans. Counts such as rows or GRU steps are taken from the arguments and
results at the same boundaries.
"""
from __future__ import annotations

import functools
import inspect
import os
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

from aae import active, classifiers, cli, features, graphmodel, nn, oracle

ACTIVE_LOOP = "active.active_loop"
_TRAIN_SIGNATURE = inspect.signature(classifiers.train)


def _train_counts(tracer, result, args, kwargs):
    bound = _TRAIN_SIGNATURE.bind(*args, **kwargs)
    bound.apply_defaults()
    tracer.counts["classifiers.train.epochs_run"] += len(result)
    tracer.counts["classifiers.train.epochs_budget"] += \
        bound.arguments["epochs"]


def _predict_batch_counts(tracer, result, args, kwargs):
    rows = len(args[1])
    tracer.counts["classifiers.predict_batch.rows"] += rows
    if tracer.inside(ACTIVE_LOOP):
        tracer.counts["active.rows_scored"] += rows


def _active_loop_counts(tracer, result, args, kwargs):
    tracer.counts["active.active_loop.rounds"] += len(result[1])
    tracer.counts["active.pool_rows"] += len(args[0])


def _write_corpus_counts(tracer, result, args, kwargs):
    tracer.counts["features.write_corpus.rows"] += len(args[2])
    tracer.counts["features.write_corpus.bytes"] += os.path.getsize(args[0])


def _read_corpus_counts(tracer, result, args, kwargs):
    tracer.counts["features.read_corpus.rows"] += len(result[1])


def _gru_forward_counts(tracer, result, args, kwargs):
    mask = args[2]
    run = int(mask.any(axis=0).sum())
    tracer.counts["nn.GRU.steps_run"] += run
    tracer.counts["nn.GRU.steps_skipped"] += mask.shape[1] - run


def _conv_forward_counts(tracer, result, args, kwargs):
    layer, x = args[0], args[1]
    batch, _, out_len = result.shape
    tracer.counts["nn.Conv1D.flops"] += (
        2 * batch * layer.filters * x.shape[1] * layer.kernel_size * out_len)


def _conv_backward_counts(tracer, result, args, kwargs):
    # dW and dx each cost as much as the forward pass.
    layer, dy = args[0], args[1]
    batch, _, out_len = dy.shape
    tracer.counts["nn.Conv1D.flops"] += (
        4 * batch * layer.filters * layer.in_channels * layer.kernel_size
        * out_len)


# (span name, objects the callable is looked up on, attribute, count hook).
# aae.active binds train and predict_batch at import, so both modules are
# patched; nn layers are patched on their classes.
SPANS = [
    ("nn.Conv1D.forward", [nn.Conv1D], "forward", _conv_forward_counts),
    ("nn.Conv1D.backward", [nn.Conv1D], "backward", _conv_backward_counts),
    ("nn.MaxPool1D.forward", [nn.MaxPool1D], "forward", None),
    ("nn.MaxPool1D.backward", [nn.MaxPool1D], "backward", None),
    ("nn.GRU.forward", [nn.GRU], "forward", _gru_forward_counts),
    ("nn.GRU.backward", [nn.GRU], "backward", None),
    ("nn.Dense.forward", [nn.Dense], "forward", None),
    ("nn.Dense.backward", [nn.Dense], "backward", None),
    ("nn.Dense.backward", [nn.Dense], "backward_preact", None),
    ("nn.Network.forward", [nn.Network], "forward", None),
    ("nn.Network.loss_and_backward", [nn.Network], "loss_and_backward",
     None),
    ("nn.Network.sgd_step", [nn.Network], "sgd_step", None),
    ("nn.save_network", [nn], "save_network", None),
    ("classifiers.train", [classifiers, active], "train", _train_counts),
    ("classifiers.predict", [classifiers], "predict", None),
    ("classifiers.predict_batch", [classifiers, active], "predict_batch",
     _predict_batch_counts),
    (ACTIVE_LOOP, [active], "active_loop", _active_loop_counts),
    ("active.evaluate", [active], "evaluate", None),
    ("features.assemble", [features], "assemble", None),
    ("features.write_corpus", [features], "write_corpus",
     _write_corpus_counts),
    ("features.read_corpus", [features], "read_corpus", _read_corpus_counts),
    ("oracle.label", [oracle], "label", None),
    ("graphmodel.generate_workload", [graphmodel], "generate_workload", None),
    ("cli.main", [cli], "main", None),
    ("cli.generate_labeled_corpus", [cli], "generate_labeled_corpus", None),
]

# Called too often for a span each; only their calls are counted.
COUNTED = [("oracle.op_cost.calls", [oracle], "op_cost")]

COUNTS = [
    "nn.Conv1D.flops", "nn.GRU.steps_run", "nn.GRU.steps_skipped",
    "classifiers.train.epochs_run", "classifiers.train.epochs_budget",
    "classifiers.predict_batch.rows", "active.active_loop.rounds",
    "active.pool_rows", "active.rows_scored", "features.write_corpus.rows",
    "features.write_corpus.bytes", "features.read_corpus.rows",
    "oracle.op_cost.calls",
]


def _lookup(owner, attr):
    # Read a class attribute from its __dict__ so a method comes back as
    # the plain function, which is what has to be put back.
    return owner.__dict__[attr] if isinstance(owner, type) \
        else getattr(owner, attr)


class Tracer:
    """Collects spans and counts while installed; safe to install again."""

    def __init__(self):
        self.spans: list[tuple] = []  # (name, start, end, parent, unit)
        self.stats = defaultdict(lambda: [0, 0.0, 0.0])  # calls, s, self_s
        self.counts: Counter = Counter()
        self.unit = 0
        self._stack: list[list] = []  # [span index, child seconds, name]

    def inside(self, name: str) -> bool:
        """Whether a span of this name is open."""
        return any(frame[2] == name for frame in self._stack)

    def _span(self, name, fn, count):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            index = len(tracer.spans)
            parent = stack[-1][0] if stack else -1
            tracer.spans.append(None)
            frame = [index, 0.0, name]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                elapsed = end - start
                if stack:
                    stack[-1][1] += elapsed
                tracer.spans[index] = (name, start, end, parent, tracer.unit)
                entry = tracer.stats[name]
                entry[0] += 1
                entry[1] += elapsed
                entry[2] += elapsed - frame[1]
            if count is not None:
                count(tracer, result, args, kwargs)
            return result

        return wrapper

    def _counter(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    @contextmanager
    def installed(self):
        """Patch every traced callable; restore the originals on exit."""
        wrappers = [(owners, attr,
                     self._span(name, _lookup(owners[0], attr), count))
                    for name, owners, attr, count in SPANS]
        wrappers += [(owners, attr, self._counter(name,
                                                  _lookup(owners[0], attr)))
                     for name, owners, attr in COUNTED]
        restore = []
        try:
            for owners, attr, wrapper in wrappers:
                original = wrapper.__wrapped__
                for owner in owners:
                    if _lookup(owner, attr) is not original:
                        raise RuntimeError(
                            f"{owner.__name__}.{attr} is not the callable "
                            f"the tracer wraps")
                    restore.append((owner, attr, original))
                    setattr(owner, attr, wrapper)
            yield self
        finally:
            for owner, attr, original in reversed(restore):
                setattr(owner, attr, original)

    def write_spans(self, path) -> None:
        """Write every span as one tab-separated line."""
        lines = ["name\tstart_s\tend_s\tparent\tunit"]
        lines += [f"{n}\t{s:.9f}\t{e:.9f}\t{p}\t{u}"
                  for n, s, e, p, u in self.spans]
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")

    def layer_metrics(self, units: int) -> dict[str, float]:
        """Per-layer figures per unit of work, plus the whole-run ratios."""
        metrics = {}
        for name, _, _, _ in SPANS:
            calls, seconds, self_s = self.stats[name]
            metrics[f"{name}.calls"] = calls / units
            metrics[f"{name}.s"] = seconds / units
            metrics[f"{name}.self_s"] = self_s / units
        for name in COUNTS:
            metrics[name] = self.counts[name] / units
        conv_s = (self.stats["nn.Conv1D.forward"][1]
                  + self.stats["nn.Conv1D.backward"][1])
        flops = self.counts["nn.Conv1D.flops"]
        metrics["nn.Conv1D.gflops"] = flops / conv_s / 1e9 if conv_s else 0.0
        pool = self.counts["active.pool_rows"]
        metrics["active.rescore_ratio"] = (
            self.counts["active.rows_scored"] / pool if pool else 0.0)
        return metrics
