"""Spans and counts for the benchmark's traced runs.

The library is not changed: :func:`install` wraps the public functions of
each tenrank module (plus the dense factorizations of numpy and scipy) and
rebinds every ``tenrank.*`` module attribute, and every module-level dict
value, that refers to an original, because the modules import each other's
functions by name.  A span is (name, parent, start, end); spans stay in
memory in flat arrays and are written out by :meth:`Tracer.dump`.  Hot paths
(``IndexSelection`` construction) are counted, never spanned.

Span names are the layer names of the per-layer metrics.  A layer's ``.s``
is the time of its outermost spans (recursion counted once), its
``.self_s`` the span time minus the time its child spans cover.
"""
from __future__ import annotations

import functools
import json
import math
import os
import sys
import time
from array import array
from collections import Counter

import numpy as np

# module -> {function: span name}; functions missing at some commit are skipped
LAYER_FUNCTIONS = {
    "tenrank.linalg": {
        "matrix_rank": "linalg.matrix_rank",
        "row_basis": "linalg.row_basis",
        "in_row_span": "linalg.in_row_span",
    },
    "tenrank.tensor": {
        "unfold": "tensor.unfold",
        "mode_product": "tensor.mode_product",
        "subtensor": "tensor.subtensor",
    },
    "tenrank.ranks": {"n_rank": "ranks.n_rank"},
    "tenrank.fullrank": {
        "extract_max_tucker": "fullrank.extract_max_tucker",
        "extract_brute_force": "fullrank.extract_brute_force",
        "verify_span_certificate": "fullrank.verify",
    },
    "tenrank.tucker": {
        "hosvd": "tucker.hosvd",
        "st_hosvd": "tucker.st_hosvd",
        "hooi": "tucker.hooi",
        "run_sweep": "tucker.run_sweep",
        "save_model": "tucker.save_model",
    },
    "tenrank.axioms": {
        "axiom_report": "axioms.report",
        "standard_fixtures": "axioms.standard_fixtures",
    },
    "tenrank.io": {
        "read_text": "io.read",
        "read_binary": "io.read",
        "write_text": "io.write",
        "write_binary": "io.write",
    },
    "tenrank.cli": {"main": "cli.main"},
}
GENERATORS = "tenrank.generators"  # every public function, one span name
FACTORIZATIONS = {"numpy.linalg": ("svd", "eigh", "qr"), "scipy.linalg": ("svd", "eigh", "qr")}
FITS = ("tucker.hosvd", "tucker.st_hosvd", "tucker.hooi")


class Tracer:
    """In-memory span store plus named counters; records only while active."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._depth: list[int] = []
        self._stack: list[int] = []
        self.name = array("i")
        self.parent = array("i")
        self.outer = array("b")
        self.start = array("d")
        self.end = array("d")
        self.counts: Counter = Counter()
        self.active = False

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self._depth.append(0)
        return nid

    def depth(self, name: str) -> int:
        """How many spans of this name are open right now."""
        nid = self._ids.get(name)
        return 0 if nid is None else self._depth[nid]

    def open(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.outer.append(self._depth[nid] == 0)
        self._depth[nid] += 1
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()
        self._depth[self.name[idx]] -= 1

    def __len__(self) -> int:
        return len(self.start)

    def arrays(self, begin: int = 0, end: int | None = None) -> dict:
        """Spans [begin, end) as numpy arrays, parents re-based to begin."""
        end = len(self) if end is None else end
        parent = np.frombuffer(self.parent, dtype=np.int32)[begin:end].astype(np.int64)
        return {
            "names": np.array(self.names, dtype=str),
            "name": np.frombuffer(self.name, dtype=np.int32)[begin:end].copy(),
            "parent": np.where(parent >= 0, parent - begin, -1),
            "outer": np.frombuffer(self.outer, dtype=np.int8)[begin:end].copy(),
            "start": np.frombuffer(self.start, dtype=np.float64)[begin:end].copy(),
            "end": np.frombuffer(self.end, dtype=np.float64)[begin:end].copy(),
        }

    def dump(self, path) -> None:
        """Write every span (and the counters) to an .npz file."""
        np.savez(path, counts=np.array(json.dumps(dict(self.counts))), **self.arrays())


def summarize(spans: dict) -> dict:
    """Per span name: [calls, time of outermost spans, self time]."""
    names, name = spans["names"], spans["name"]
    if name.size == 0:
        return {}
    dur = spans["end"] - spans["start"]
    parent = spans["parent"]
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=name.size)
    width = len(names)
    calls = np.bincount(name, minlength=width)
    outer_s = np.bincount(name, weights=dur * (spans["outer"] > 0), minlength=width)
    self_s = np.bincount(name, weights=dur - child, minlength=width)
    return {
        str(names[i]): [int(calls[i]), float(outer_s[i]), float(self_s[i])]
        for i in range(width)
        if calls[i]
    }


def merge_summaries(parts) -> dict:
    total: dict = {}
    for part in parts:
        for key, (calls, outer_s, self_s) in part.items():
            acc = total.setdefault(key, [0, 0.0, 0.0])
            acc[0] += calls
            acc[1] += outer_s
            acc[2] += self_s
    return total


def layer_metrics(summary: dict, counts) -> dict:
    """Map span summaries and counters of one pass onto the per-layer names."""

    def calls(name):
        return summary.get(name, (0, 0.0, 0.0))[0]

    def total(name):
        return summary.get(name, (0, 0.0, 0.0))[1]

    def self_time(name):
        return summary.get(name, (0, 0.0, 0.0))[2]

    rank_calls = calls("ranks.rank_fn")
    built = counts.get("fullrank.selections_built", 0)
    m = {
        "linalg.factor.calls": calls("linalg.factor"),
        "linalg.factor.s": total("linalg.factor"),
        "linalg.factor.cells": counts.get("linalg.factor.cells", 0),
        "linalg.factor.uv_calls": counts.get("linalg.factor.uv_calls", 0),
        "linalg.matrix_rank.calls": calls("linalg.matrix_rank"),
        "linalg.matrix_rank.s": total("linalg.matrix_rank"),
        "linalg.row_basis.calls": calls("linalg.row_basis"),
        "linalg.row_basis.self_s": self_time("linalg.row_basis"),
        "linalg.in_row_span.calls": calls("linalg.in_row_span"),
        "tensor.unfold.calls": calls("tensor.unfold"),
        "tensor.unfold.s": total("tensor.unfold"),
        "tensor.unfold.bytes": counts.get("tensor.unfold.bytes", 0),
        "tensor.mode_product.calls": calls("tensor.mode_product"),
        "tensor.mode_product.self_s": self_time("tensor.mode_product"),
        "tensor.subtensor.calls": calls("tensor.subtensor"),
        "tensor.subtensor.self_s": self_time("tensor.subtensor"),
        "tensor.dense_init.calls": calls("tensor.dense_init"),
        "tensor.dense_init.s": total("tensor.dense_init"),
        "ranks.n_rank.calls": calls("ranks.n_rank"),
        "ranks.n_rank.s": total("ranks.n_rank"),
        "ranks.rank_fn.calls": rank_calls,
        "ranks.rank_fn.evals": calls("ranks.rank_fn.eval"),
        "ranks.memo_hit_ratio": (
            (rank_calls - calls("ranks.rank_fn.eval")) / rank_calls if rank_calls else 0.0
        ),
        "ranks.rank_fn.self_s": self_time("ranks.rank_fn"),
        "fullrank.extract_max_tucker.calls": calls("fullrank.extract_max_tucker"),
        "fullrank.extract_max_tucker.s": total("fullrank.extract_max_tucker"),
        "fullrank.extract_brute_force.calls": calls("fullrank.extract_brute_force"),
        "fullrank.extract_brute_force.self_s": self_time("fullrank.extract_brute_force"),
        "fullrank.selections_built": built,
        "fullrank.eval_ratio": (
            counts.get("fullrank.rank_fn_calls", 0) / built if built else 0.0
        ),
        "fullrank.verify.s": total("fullrank.verify"),
        "tucker.hosvd.s": total("tucker.hosvd"),
        "tucker.st_hosvd.s": total("tucker.st_hosvd"),
        "tucker.hooi.s": total("tucker.hooi"),
        "tucker.hooi.iters": counts.get("tucker.hooi.iters", 0),
        "tucker.fits": counts.get("tucker.fits", 0),
        "tucker.run_sweep.self_s": self_time("tucker.run_sweep"),
        "tucker.save_model.s": total("tucker.save_model"),
        "axioms.report.s": total("axioms.report"),
        "axioms.report.self_s": self_time("axioms.report"),
        "axioms.checks": counts.get("axioms.checks", 0),
        "axioms.standard_fixtures.s": total("axioms.standard_fixtures"),
        "io.read.calls": calls("io.read"),
        "io.read.s": total("io.read"),
        "io.read.bytes": counts.get("io.read.bytes", 0),
        "io.write.calls": calls("io.write"),
        "io.write.s": total("io.write"),
        "io.write.bytes": counts.get("io.write.bytes", 0),
        "generators.s": total("generators"),
        "cli.main.self_s": self_time("cli.main"),
        "trace.spans": sum(entry[0] for entry in summary.values()),
    }
    return m


def _wrap(tracer: Tracer, span: str, fn, after=None):
    nid = tracer.name_id(span)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tracer.active:
            return fn(*args, **kwargs)
        idx = tracer.open(nid)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if after is not None:
            after(args, kwargs, result)
        return result

    return wrapper


def _file_bytes(path) -> int:
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


def _afters(tracer: Tracer) -> dict:
    """Counters recorded when a wrapped call returns, keyed by span name."""
    counts = tracer.counts

    def unfold(args, kwargs, result):
        counts["tensor.unfold.bytes"] += int(result.nbytes)

    def fit(args, kwargs, result):
        if not any(tracer.depth(name) for name in FITS):
            counts["tucker.fits"] += 1

    def hooi(args, kwargs, result):
        fit(args, kwargs, result)
        if tracer.depth("tucker.hooi") == 0:
            counts["tucker.hooi.iters"] += int(result.iterations)

    def report(args, kwargs, result):
        counts["axioms.checks"] += sum(int(r.checks) for r in result.results)

    def read(args, kwargs, result):
        counts["io.read.bytes"] += _file_bytes(args[0] if args else kwargs.get("path"))

    def write(args, kwargs, result):
        counts["io.write.bytes"] += _file_bytes(args[1] if len(args) > 1 else kwargs.get("path"))

    return {
        "tensor.unfold": unfold,
        "tucker.hosvd": fit,
        "tucker.st_hosvd": fit,
        "tucker.hooi": hooi,
        "axioms.report": report,
        "io.read": read,
        "io.write": write,
    }


def _factor_after(tracer: Tracer):
    counts = tracer.counts

    def after(args, kwargs, result):
        a = args[0] if args else kwargs.get("a")
        counts["linalg.factor.cells"] += int(math.prod(np.shape(a)))
        if isinstance(result, tuple) and kwargs.get("mode") not in ("r", "raw"):
            counts["linalg.factor.uv_calls"] += 1

    return after


def install(tracer: Tracer) -> None:
    """Wrap the layers of every imported tenrank module and rebind references."""
    originals: dict[int, object] = {}
    afters = _afters(tracer)

    def replace(owner, attr, span, after=None):
        fn = getattr(owner, attr, None)
        if fn is None or id(fn) in originals:
            return
        wrapped = _wrap(tracer, span, fn, after)
        originals[id(fn)] = wrapped
        setattr(owner, attr, wrapped)

    for modname, functions in LAYER_FUNCTIONS.items():
        module = sys.modules.get(modname)
        if module is None:
            continue
        for attr, span in functions.items():
            replace(module, attr, span, afters.get(span))

    module = sys.modules.get(GENERATORS)
    if module is not None:
        for attr, value in list(vars(module).items()):
            if (
                callable(value)
                and not attr.startswith("_")
                and getattr(value, "__module__", None) == GENERATORS
                and not isinstance(value, type)
            ):
                replace(module, attr, "generators")

    factor_after = _factor_after(tracer)
    for modname, functions in FACTORIZATIONS.items():
        module = sys.modules.get(modname)
        if module is not None:
            for attr in functions:
                replace(module, attr, "linalg.factor", factor_after)

    _install_classes(tracer)

    for modname, module in list(sys.modules.items()):
        if module is None or not (modname == "tenrank" or modname.startswith("tenrank.")):
            continue
        for attr, value in list(vars(module).items()):
            if id(value) in originals:
                setattr(module, attr, originals[id(value)])
            elif isinstance(value, dict):
                for key, item in list(value.items()):
                    if id(item) in originals:
                        value[key] = originals[id(item)]


def _install_classes(tracer: Tracer) -> None:
    tensor = sys.modules.get("tenrank.tensor")
    ranks = sys.modules.get("tenrank.ranks")
    counts = tracer.counts

    if tensor is not None and hasattr(tensor, "DenseTensor"):
        cls = tensor.DenseTensor
        cls.__init__ = _wrap(tracer, "tensor.dense_init", cls.__init__)

    if tensor is not None and hasattr(tensor, "IndexSelection"):
        cls = tensor.IndexSelection
        post_init = cls.__post_init__

        def counted_post_init(self):
            if tracer.active and tracer.depth("fullrank.extract_brute_force"):
                counts["fullrank.selections_built"] += 1
            post_init(self)

        cls.__post_init__ = counted_post_init

    if ranks is not None and hasattr(ranks, "RankFunction"):
        cls = ranks.RankFunction
        call = _wrap(tracer, "ranks.rank_fn", cls.__call__)

        def counted_call(self, x):
            if tracer.active and tracer.depth("fullrank.extract_brute_force"):
                counts["fullrank.rank_fn_calls"] += 1
            return call(self, x)

        cls.__call__ = counted_call
        init = cls.__init__

        def traced_init(self, name, evaluator=None, *args, **kwargs):
            evaluator = _wrap(tracer, "ranks.rank_fn.eval", evaluator)
            init(self, name, evaluator, *args, **kwargs)

        cls.__init__ = traced_init


def load(path) -> tuple[dict, dict]:
    """Read a file written by :meth:`Tracer.dump`: (span summary, counters)."""
    with np.load(path, allow_pickle=False) as data:
        spans = {key: data[key] for key in ("names", "name", "parent", "outer", "start", "end")}
        counts = json.loads(str(data["counts"]))
    return summarize(spans), counts

