"""Outside-in tracing of the conceptmine layers.

The tracer replaces public functions of the package's modules with wrappers,
in every ``conceptmine`` module namespace that binds them, so each call is
seen exactly as its caller makes it. A wrapper records a span (name, start,
end, parent) and the counts that matter at that boundary. Nothing under
``src/`` changes; :meth:`Tracer.uninstall` puts the original functions back.

A span's self time is its duration minus the time its child spans cover; a
layer's self time is the sum of the self times of its spans, so the layer
self times add up to the time of the root ``cli.main`` spans.
"""

from __future__ import annotations

import hashlib
import math
import os
import sys
import tracemalloc
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

LAYERS = ("dataset", "partproto", "mining", "cav", "head", "xaimetrics",
          "occlusion", "cli")

# Artifact writers; their spans belong to the cli layer's write stage.
WRITERS = (("mining", "save_book"), ("head", "save_head"),
           ("partproto", "save_centers"), ("xaimetrics", "save_report_csv"),
           ("occlusion", "save_curve_csv"), ("occlusion", "save_curve_svg"))

# Per-layer metric name -> unit. Every traced run reports all of them; a
# layer that a workload does not reach reads 0.
UNITS = {
    "mining.mine_s": "s", "mining.dbscan_s": "s", "mining.mine_self_s": "s",
    "mining.mine_calls": "count", "mining.cells": "count",
    "mining.points": "count", "mining.pair_dist_bytes": "bytes",
    "mining.peak_alloc_mb": "MB", "mining.clusters": "count",
    "mining.noise_frac": "fraction", "mining.distinct_book_ratio": "fraction",
    "mining.merge_s": "s",
    "xaimetrics.stability_s": "s", "xaimetrics.stability_self_s": "s",
    "xaimetrics.hungarian_s": "s", "xaimetrics.hungarian_calls": "count",
    "xaimetrics.assign_size_max": "count",
    "xaimetrics.assign_size_mean": "count",
    "xaimetrics.faithfulness_s": "s", "xaimetrics.consistency_s": "s",
    "occlusion.eval_s": "s", "occlusion.self_s": "s",
    "occlusion.sample_calls": "count",
    "cav.batch_s": "s", "cav.batch_calls": "count", "cav.single_s": "s",
    "cav.single_calls": "count", "cav.rows_encoded": "count",
    "head.train_s": "s", "head.train_calls": "count", "head.epochs": "count",
    "head.halvings": "count", "head.w1_zero_frac": "fraction",
    "partproto.fit_s": "s", "partproto.grad_calls": "count",
    "partproto.loss_calls": "count",
    "dataset.load_s": "s", "dataset.bytes_read": "bytes",
    "cli.write_s": "s", "cli.artifact_bytes": "bytes", "cli.self_s": "s",
    "trace.overhead_pct": "%",
}

# Metrics that are functions of the inputs and the code alone: every
# repetition of a run must read them exactly the same.
EXACT = tuple(name for name, unit in UNITS.items()
              if unit in ("count", "bytes", "fraction"))


class Span:
    __slots__ = ("name", "layer", "parent", "start", "end", "child")

    def __init__(self, name: str, parent: "Span | None"):
        self.name = name
        self.layer = name.split(".", 1)[0]
        self.parent = parent
        self.start = self.end = 0.0
        self.child = 0.0  # summed duration of direct child spans

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.child


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _book_digest(book) -> str:
    h = hashlib.sha256()
    for e in book.entries:
        h.update(np.array([e.class_id, e.part, e.local_id, e.member_count],
                          dtype="<i8").tobytes())
        h.update(np.ascontiguousarray(e.centroid, dtype="<f8").tobytes())
    return h.hexdigest()


class Tracer:
    """Spans and counts for one repetition of a workload.

    With ``memory=True`` tracemalloc runs inside every ``mine_concepts``
    call to give ``mining.peak_alloc_mb``; it slows mining a lot, so a
    memory repetition is kept apart from the timed one.
    """

    def __init__(self, memory: bool = False):
        self.memory = memory
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.assign_sizes: list[int] = []
        self.pass_books: list[str] = []  # digests of cli-level mining passes
        self.peak_alloc = 0
        self._stack: list[Span] = []
        self._adaptive: list[bool] = []  # one flag per open mine_concepts call
        self._patched: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def call(self, name: str, fn, args, kwargs):
        span = Span(name, self._stack[-1] if self._stack else None)
        self._stack.append(span)
        span.start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span.end = perf_counter()
            self._stack.pop()
            if span.parent is not None:
                span.parent.child += span.duration
            self.spans.append(span)

    # -- wrappers ----------------------------------------------------------

    def _spanned(self, name, fn, counter=None):
        def wrapper(*args, **kwargs):
            if counter is not None:
                self.counts[counter] += 1
            return self.call(name, fn, args, kwargs)
        return wrapper

    def _counted(self, key, fn):
        def wrapper(*args, **kwargs):
            self.counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _load_dataset(self, fn):
        def load_dataset(*args, **kwargs):
            self.counts["dataset.bytes_read"] += os.path.getsize(
                _arg(args, kwargs, 0, "path"))
            return self.call("dataset.load_dataset", fn, args, kwargs)
        return load_dataset

    def _mine_concepts(self, fn):
        def mine_concepts(*args, **kwargs):
            self.counts["mining.mine_calls"] += 1
            from_cli = bool(self._stack) and self._stack[-1].layer == "cli"
            # params=None selects per-cell adaptive eps, which builds a
            # second n x n x d broadcast before dbscan's own.
            params = args[1] if len(args) > 1 else kwargs.get("params")
            self._adaptive.append(params is None)
            if self.memory:
                was_tracing = tracemalloc.is_tracing()
                tracemalloc.start()
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
            try:
                book = self.call("mining.mine_concepts", fn, args, kwargs)
            finally:
                self._adaptive.pop()
                if self.memory:
                    peak = tracemalloc.get_traced_memory()[1] - base
                    if not was_tracing:
                        tracemalloc.stop()
                    self.peak_alloc = max(self.peak_alloc, peak)
            if from_cli:
                self.pass_books.append(_book_digest(book))
            return book
        return mine_concepts

    def _dbscan(self, fn):
        def dbscan(*args, **kwargs):
            labels = self.call("mining.dbscan", fn, args, kwargs)
            n, d = np.shape(_arg(args, kwargs, 0, "points"))
            adaptive = bool(self._adaptive) and self._adaptive[-1]
            c = self.counts
            c["mining.cells"] += 1
            c["mining.points"] += n
            c["mining.pair_dist_bytes"] += 8 * n * n * d * (2 if adaptive else 1)
            c["mining.clusters"] += int(labels.max()) + 1 if n else 0
            c["mining.noise"] += int(np.count_nonzero(labels < 0))
            return labels
        return dbscan

    def _hungarian(self, fn):
        def hungarian(*args, **kwargs):
            self.counts["xaimetrics.hungarian_calls"] += 1
            self.assign_sizes.append(
                int(np.shape(_arg(args, kwargs, 0, "cost"))[0]))
            return self.call("xaimetrics.hungarian", fn, args, kwargs)
        return hungarian

    def _compute_cav_batch(self, fn):
        def compute_cav_batch(*args, **kwargs):
            self.counts["cav.batch_calls"] += 1
            self.counts["cav.batch_rows"] += _arg(args, kwargs, 0, "ds").n_samples
            return self.call("cav.compute_cav_batch", fn, args, kwargs)
        return compute_cav_batch

    def _train_head(self, fn):
        def train_head(*args, **kwargs):
            self.counts["head.train_calls"] += 1
            cfg = _arg(args, kwargs, 3, "cfg")
            on_epoch = args[4] if len(args) > 4 else kwargs.get("on_epoch")

            def observe(epoch, objective, step, pre_prox, w1):
                self.counts["head.epochs"] += 1
                if step > 0:  # an epoch that accepts no step reports 0
                    self.counts["head.halvings"] += round(math.log2(cfg.lr / step))
                if on_epoch is not None:
                    on_epoch(epoch, objective, step, pre_prox, w1)

            if len(args) > 4:
                args = args[:4] + (observe,) + args[5:]
            else:
                kwargs = {**kwargs, "on_epoch": observe}
            head = self.call("head.train_head", fn, args, kwargs)
            self.counts["head.w1_zeros"] += int(np.count_nonzero(head.W1 == 0))
            self.counts["head.w1_size"] += head.W1.size
            return head
        return train_head

    def _wrappers(self):
        """(module, function name, wrapper factory) for every traced call."""
        table = [
            ("cli", "main", lambda fn: self._spanned("cli.main", fn)),
            ("dataset", "load_dataset", self._load_dataset),
            ("partproto", "fit_prototype_centers",
             lambda fn: self._spanned("partproto.fit_prototype_centers", fn)),
            ("partproto", "mcc_gradients",
             lambda fn: self._counted("partproto.grad_calls", fn)),
            ("partproto", "mcc_loss",
             lambda fn: self._counted("partproto.loss_calls", fn)),
            ("mining", "mine_concepts", self._mine_concepts),
            ("mining", "dbscan", self._dbscan),
            ("mining", "merge_centroids",
             lambda fn: self._spanned("mining.merge_centroids", fn)),
            ("cav", "compute_cav_batch", self._compute_cav_batch),
            ("cav", "compute_cav",
             lambda fn: self._spanned("cav.compute_cav", fn, "cav.single_calls")),
            ("head", "train_head", self._train_head),
            ("xaimetrics", "stability",
             lambda fn: self._spanned("xaimetrics.stability", fn)),
            ("xaimetrics", "hungarian", self._hungarian),
            ("xaimetrics", "faithfulness",
             lambda fn: self._spanned("xaimetrics.faithfulness", fn)),
            ("xaimetrics", "consistency",
             lambda fn: self._spanned("xaimetrics.consistency", fn)),
            ("occlusion", "occlusion_eval",
             lambda fn: self._spanned("occlusion.occlusion_eval", fn)),
            ("occlusion", "occlude_sample",
             lambda fn: self._spanned("occlusion.occlude_sample", fn,
                                      "occlusion.sample_calls")),
        ]
        for module, name in WRITERS:
            table.append((module, name,
                          lambda fn, n=name: self._spanned(f"cli.{n}", fn)))
        return table

    # -- results -----------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer metrics of this repetition, keyed as in :data:`UNITS`.

        ``cli.artifact_bytes`` and ``trace.overhead_pct`` need the harness's
        view and are filled in there.
        """
        total = defaultdict(float)   # span name -> summed duration
        own = defaultdict(float)     # span name -> summed self time
        for s in self.spans:
            total[s.name] += s.duration
            own[s.name] += s.self_time
        c = self.counts
        sizes = self.assign_sizes
        passes = self.pass_books
        layer_self = self.layer_self_times()
        return {
            "mining.mine_s": total["mining.mine_concepts"],
            "mining.dbscan_s": total["mining.dbscan"],
            "mining.mine_self_s": own["mining.mine_concepts"],
            "mining.mine_calls": c["mining.mine_calls"],
            "mining.cells": c["mining.cells"],
            "mining.points": c["mining.points"],
            "mining.pair_dist_bytes": c["mining.pair_dist_bytes"],
            "mining.peak_alloc_mb": self.peak_alloc / 2**20,
            "mining.clusters": c["mining.clusters"],
            "mining.noise_frac": (c["mining.noise"] / c["mining.points"]
                                  if c["mining.points"] else 0.0),
            "mining.distinct_book_ratio": (len(set(passes)) / len(passes)
                                           if passes else 0.0),
            "mining.merge_s": total["mining.merge_centroids"],
            "xaimetrics.stability_s": total["xaimetrics.stability"],
            "xaimetrics.stability_self_s": own["xaimetrics.stability"],
            "xaimetrics.hungarian_s": total["xaimetrics.hungarian"],
            "xaimetrics.hungarian_calls": c["xaimetrics.hungarian_calls"],
            "xaimetrics.assign_size_max": max(sizes, default=0),
            "xaimetrics.assign_size_mean": (sum(sizes) / len(sizes)
                                            if sizes else 0.0),
            "xaimetrics.faithfulness_s": total["xaimetrics.faithfulness"],
            "xaimetrics.consistency_s": total["xaimetrics.consistency"],
            "occlusion.eval_s": total["occlusion.occlusion_eval"],
            "occlusion.self_s": layer_self["occlusion"],
            "occlusion.sample_calls": c["occlusion.sample_calls"],
            "cav.batch_s": total["cav.compute_cav_batch"],
            "cav.batch_calls": c["cav.batch_calls"],
            "cav.single_s": total["cav.compute_cav"],
            "cav.single_calls": c["cav.single_calls"],
            "cav.rows_encoded": c["cav.batch_rows"] + c["cav.single_calls"],
            "head.train_s": total["head.train_head"],
            "head.train_calls": c["head.train_calls"],
            "head.epochs": c["head.epochs"],
            "head.halvings": c["head.halvings"],
            "head.w1_zero_frac": (c["head.w1_zeros"] / c["head.w1_size"]
                                  if c["head.w1_size"] else 0.0),
            "partproto.fit_s": total["partproto.fit_prototype_centers"],
            "partproto.grad_calls": c["partproto.grad_calls"],
            "partproto.loss_calls": c["partproto.loss_calls"],
            "dataset.load_s": total["dataset.load_dataset"],
            "dataset.bytes_read": c["dataset.bytes_read"],
            "cli.write_s": sum(total[f"cli.{name}"] for _, name in WRITERS),
            "cli.self_s": layer_self["cli"],
        }

    def layer_self_times(self) -> dict:
        out = dict.fromkeys(LAYERS, 0.0)
        for s in self.spans:
            out[s.layer] += s.self_time
        return out

    def command_time(self) -> float:
        """Summed duration of the root spans (the traced cli.main calls)."""
        return sum(s.duration for s in self.spans if s.parent is None)

    def nesting_errors(self) -> list[str]:
        """Spans that end outside their parent or have negative self time."""
        errors = []
        for s in self.spans:
            p = s.parent
            if p is not None and not p.start <= s.start <= s.end <= p.end:
                errors.append(f"{s.name} not inside {p.name}")
            if s.self_time < 0:
                errors.append(f"{s.name} self time {s.self_time!r} < 0")
        return errors

    # -- install / uninstall -----------------------------------------------

    def install(self):
        """Rebind every traced function in every loaded conceptmine module.

        A function the package no longer has is skipped, so its metrics
        read 0 instead of the benchmark failing.
        """
        modules = [m for key, m in sorted(sys.modules.items())
                   if key == "conceptmine" or key.startswith("conceptmine.")]
        for module_name, attr, factory in self._wrappers():
            original = getattr(sys.modules[f"conceptmine.{module_name}"],
                               attr, None)
            if original is None:
                continue
            wrapper = factory(original)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._patched.append((m, key, original))
                        setattr(m, key, wrapper)

    def uninstall(self):
        for module, key, original in reversed(self._patched):
            setattr(module, key, original)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False
