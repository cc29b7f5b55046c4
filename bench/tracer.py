"""Per-layer tracing of the plstm package from outside the program.

Modules import public functions by name (`from .tensor import matmul`), so
patching `plstm.tensor.matmul` alone misses every caller. `patched` finds a
function by name in every loaded plstm module and rebinds each binding, then
restores them. `Tracer` uses it to time each traced function's calls as
spans: a span's self time is its duration minus that of the traced spans it
directly encloses.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

import numpy as np


@contextmanager
def patched(factories: dict):
    """Rebind every plstm function named in `factories` to
    `factories[name](original)` in every loaded plstm module; undo on exit.

    A name with no matching function is skipped, so the harness survives a
    function moving between modules or being removed.
    """
    modules = [m for n, m in sorted(sys.modules.items())
               if m is not None and (n == "plstm" or n.startswith("plstm."))]
    replacement = {}  # id(original) -> (original, wrapper)
    for mod in modules:
        for val in vars(mod).values():
            if (inspect.isfunction(val) and val.__name__ in factories
                    and val.__module__.startswith("plstm") and id(val) not in replacement):
                replacement[id(val)] = (val, factories[val.__name__](val))
    undo = []
    for mod in modules:
        for attr, val in list(vars(mod).items()):
            hit = replacement.get(id(val))
            if hit is not None and hit[0] is val:
                setattr(mod, attr, hit[1])
                undo.append((mod, attr, val))
    try:
        yield
    finally:
        for mod, attr, val in reversed(undo):
            setattr(mod, attr, val)


def _count_matmul(counts, args, kwargs):
    m, k = np.shape(args[0])
    n = np.shape(args[1])[1]
    counts["tensor.matmul.inner_iters"] += k
    counts["tensor.matmul.flops"] += 2 * m * k * n


def _count_steps(counts, args, kwargs):
    sequence = args[1]
    mask = args[2] if len(args) > 2 else kwargs.get("mask")
    shape = np.shape(sequence)
    steps, batch = shape[0], (shape[1] if len(shape) == 3 else 1)
    counts["lstm.steps"] += steps
    counts["lstm.row_steps"] += steps * batch
    if mask is None:
        counts["lstm.useful_row_steps"] += steps * batch
    else:
        mask = np.asarray(mask, dtype=bool).reshape(steps, batch)
        counts["lstm.useful_row_steps"] += int(mask.sum())
        counts["lstm.all_pad_steps"] += int((~mask.any(axis=1)).sum())


def _count_adam(counts, args, kwargs):
    counts["train.adam_step.elems"] += sum(np.size(p) for p in args[1].values())


def _count_saved_bytes(counts, args, kwargs):
    counts["checkpoint.save.bytes"] += os.path.getsize(args[1])


# function name -> (span name, counter run before the call, counter run after)
TRACED = {
    "matmul": ("tensor.matmul", _count_matmul, None),
    "activate": ("tensor.activate", None, None),
    "activate_grad": ("tensor.activate_grad", None, None),
    "dropout_mask": ("tensor.dropout_mask", None, None),
    "directional_pass": ("lstm.directional_pass", _count_steps, None),
    "bptt": ("lstm.bptt", None, None),
    "embed_ids": ("model.embed_ids", None, None),
    "forward_batch": ("model.forward_batch", None, None),
    "branch_forward": ("model.branch_forward", None, None),
    "branch_backward": ("model.branch_backward", None, None),
    "adam_step": ("train.adam_step", _count_adam, None),
    "categorical_cross_entropy": ("train.cce", None, None),
    "epoch_metrics": ("train.epoch_metrics", None, None),
    "train": ("train.loop", None, None),
    "predict_labels": ("evaluation.predict_labels", None, None),
    "confusion": ("evaluation.confusion", None, None),
    "classification_report": ("evaluation.classification_report", None, None),
    "save_checkpoint": ("checkpoint.save", None, _count_saved_bytes),
    "load_checkpoint": ("checkpoint.load", None, None),
    "load_labeled_dataset": ("corpus.load", None, None),
    "build_vocabulary": ("corpus.vocab", None, None),
    "encode_dataset": ("corpus.encode", None, None),
}

# Per-layer metrics of one traced unit: (name, unit, better).
PER_LAYER = [
    ("tensor.matmul.calls", "count", "lower"),
    ("tensor.matmul.inner_iters", "count", "lower"),
    ("tensor.matmul.flops", "flop", "lower"),
    ("tensor.matmul.s", "s", "lower"),
    ("tensor.activate.s", "s", "lower"),
    ("tensor.activate_grad.s", "s", "lower"),
    ("tensor.dropout_mask.s", "s", "lower"),
    ("lstm.directional_pass.calls", "count", "lower"),
    ("lstm.directional_pass.s", "s", "lower"),
    ("lstm.directional_pass.self_s", "s", "lower"),
    ("lstm.bptt.calls", "count", "lower"),
    ("lstm.bptt.s", "s", "lower"),
    ("lstm.bptt.self_s", "s", "lower"),
    ("lstm.steps", "count", "lower"),
    ("lstm.useful_step_frac", "frac", "higher"),
    ("lstm.all_pad_step_frac", "frac", "lower"),
    ("model.embed_ids.s", "s", "lower"),
    ("model.forward_batch.s", "s", "lower"),
    ("model.branch_forward.s", "s", "lower"),
    ("model.branch_forward.self_s", "s", "lower"),
    ("model.branch_backward.s", "s", "lower"),
    ("model.branch_backward.self_s", "s", "lower"),
    ("train.adam_step.calls", "count", "lower"),
    ("train.adam_step.s", "s", "lower"),
    ("train.adam_step.elems", "count", "lower"),
    ("train.cce.s", "s", "lower"),
    ("train.epoch_metrics.s", "s", "lower"),
    ("train.loop_self_s", "s", "lower"),
    ("evaluation.predict_labels.s", "s", "lower"),
    ("evaluation.report.s", "s", "lower"),
    ("checkpoint.save.s", "s", "lower"),
    ("checkpoint.save.bytes", "bytes", "lower"),
    ("checkpoint.load.s", "s", "lower"),
    ("corpus.load.s", "s", "lower"),
    ("corpus.vocab.s", "s", "lower"),
    ("corpus.encode.s", "s", "lower"),
    ("trace.overhead_frac", "frac", "lower"),
]

# Metrics that count work: they must repeat exactly between runs of one input.
EXACT = ("tensor.matmul.calls", "tensor.matmul.inner_iters", "tensor.matmul.flops",
         "lstm.directional_pass.calls", "lstm.bptt.calls", "lstm.steps",
         "train.adam_step.calls", "train.adam_step.elems", "checkpoint.save.bytes")


class Tracer:
    """Span statistics and work counters for the traced plstm functions."""

    def __init__(self, clock=perf_counter):
        self.clock = clock  # speed.Speedometer.now excludes probe time from spans
        self.stats = {}  # span name -> [calls, seconds, self seconds]
        self.counts = Counter()
        self._open = []  # child seconds of each open span, innermost last

    def _wrap(self, span, before, after, fn):
        stats = self.stats.setdefault(span, [0, 0.0, 0.0])
        counts, open_spans, clock = self.counts, self._open, self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(counts, args, kwargs)
            children = [0.0]
            open_spans.append(children)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                open_spans.pop()
                if open_spans:
                    open_spans[-1][0] += dur
                stats[0] += 1
                stats[1] += dur
                stats[2] += dur - children[0]
            if after is not None:
                after(counts, args, kwargs)
            return result
        return wrapper

    def active(self):
        """Context in which every function in TRACED is traced."""
        factories = {
            name: functools.partial(self._wrap, span, before, after)
            for name, (span, before, after) in TRACED.items()
        }
        return patched(factories)

    def layer_metrics(self) -> dict:
        """Per-layer metrics for everything traced so far, except
        trace.overhead_frac, which needs untraced units as well."""
        c = self.counts
        out = dict(c)
        for span, _, _ in TRACED.values():
            calls, s, self_s = self.stats.get(span, (0, 0.0, 0.0))
            out.update({f"{span}.calls": calls, f"{span}.s": s, f"{span}.self_s": self_s})
        out["evaluation.report.s"] = (out["evaluation.confusion.s"]
                                      + out["evaluation.classification_report.s"])
        out["train.loop_self_s"] = out["train.loop.self_s"]
        rows, steps = c["lstm.row_steps"], c["lstm.steps"]
        out["lstm.useful_step_frac"] = c["lstm.useful_row_steps"] / rows if rows else 0.0
        out["lstm.all_pad_step_frac"] = c["lstm.all_pad_steps"] / steps if steps else 0.0
        return {name: out.get(name, 0) for name, _, _ in PER_LAYER
                if name != "trace.overhead_frac"}
