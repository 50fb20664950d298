"""In-memory span tracer that wraps cganlab's public functions from outside.

The tracer replaces module attributes (and two constructors) with wrappers
while it is installed, and puts the originals back when it is removed. It
never touches the RNG streams or the arithmetic, so a traced run produces
the same bytes as an untraced one.

A span records a name, start, end, parent and two optional numbers: a
computed size (bytes or flops) and a tracemalloc peak. Counters (Tensor and
RngStream construction) open no span, so their cost stays in the enclosing
span's self time. Spans stay in memory until `write` dumps them as JSON.
"""

from __future__ import annotations

import functools
import json
import os
import time
import tracemalloc

# Spans that bound a scope: counters and per-step sums are attributed to
# the nearest enclosing one.
SCOPES = ("training.train", "parzen.eval")


class Tracer:
    def __init__(self):
        self.name: list[str] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.size: list[float] = []
        self.peak: list[float] = []
        self.counts: dict[tuple, int] = {}
        self.count_s: dict[tuple, float] = {}
        self._stack: list[int] = []
        self._scope: list[str] = []
        self._patches: list[tuple] = []

    # -- recording -------------------------------------------------------
    def _open(self, name):
        i = len(self.name)
        self.name.append(name)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.size.append(0.0)
        self.peak.append(0.0)
        self.end.append(0.0)
        self._stack.append(i)
        if name in SCOPES:
            self._scope.append(name)
        self.start.append(time.perf_counter())
        return i

    def _close(self, i):
        self.end[i] = time.perf_counter()
        self._stack.pop()
        if self.name[i] in SCOPES:
            self._scope.pop()

    def wrap(self, owner, attr, name, size=None, peak=False):
        """Replace owner.attr by a span-recording wrapper.

        size(args, kwargs, result) gives the span's computed size; peak
        measures the tracemalloc peak of the call.
        """
        orig = getattr(owner, attr)

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            if peak:
                tracemalloc.start()
            i = self._open(name)
            try:
                out = orig(*args, **kwargs)
            finally:
                self._close(i)
                if peak:
                    self.peak[i] = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
            if size is not None:
                self.size[i] = float(size(args, kwargs, out))
            return out

        self._patch(owner, attr, orig, wrapper)

    def counter(self, owner, attr, name, timed=False):
        """Count calls of owner.attr per scope, optionally with their time."""
        orig = getattr(owner, attr)

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            key = (name, self._scope[-1] if self._scope else None)
            self.counts[key] = self.counts.get(key, 0) + 1
            if not timed:
                return orig(*args, **kwargs)
            t0 = time.perf_counter()
            try:
                return orig(*args, **kwargs)
            finally:
                self.count_s[key] = self.count_s.get(key, 0.0) + time.perf_counter() - t0

        self._patch(owner, attr, orig, wrapper)

    def _patch(self, owner, attr, orig, wrapper):
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, orig))

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.remove()

    def remove(self):
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    # -- reading ---------------------------------------------------------
    def scopes(self) -> list:
        """Nearest enclosing scope name of every span (None outside any)."""
        out = []
        for i, name in enumerate(self.name):
            if name in SCOPES:
                out.append(name)
            else:
                p = self.parent[i]
                out.append(out[p] if p >= 0 else None)
        return out

    def self_times(self) -> list:
        """Span duration minus the durations of its direct children."""
        dur = [e - s for s, e in zip(self.start, self.end)]
        own = list(dur)
        for i, p in enumerate(self.parent):
            if p >= 0:
                own[p] -= dur[i]
        return own

    def summary(self) -> dict:
        """Calls, total and self milliseconds per span name."""
        own = self.self_times()
        out = {}
        for i, name in enumerate(self.name):
            row = out.setdefault(name, {"calls": 0, "total_ms": 0.0, "self_ms": 0.0})
            row["calls"] += 1
            row["total_ms"] += (self.end[i] - self.start[i]) * 1e3
            row["self_ms"] += own[i] * 1e3
        return out

    def write(self, path):
        names = sorted(set(self.name))
        index = {n: k for k, n in enumerate(names)}
        doc = {
            "columns": ["name", "start", "end", "parent", "size", "peak"],
            "names": names,
            "spans": [[index[n], s, e, p, z, k] for n, s, e, p, z, k in zip(
                self.name, self.start, self.end, self.parent, self.size, self.peak)],
            "counters": [{"name": n, "scope": sc, "count": c,
                          "seconds": self.count_s.get((n, sc))}
                         for (n, sc), c in sorted(self.counts.items(), key=str)],
        }
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as f:
            json.dump(doc, f, separators=(",", ":"))


def install(tracer: Tracer):
    """Wrap the public functions of each cganlab layer; returns the tracer."""
    from cganlab import cli, models, parzen, training
    from cganlab.rng import RngStream
    from cganlab.tensor import Tensor

    w = tracer.wrap
    # training phases, looked up by train_step through the training module
    # train() and conditional_eval() are also looked up through cli
    for owner in (training, cli):
        w(owner, "train", "training.train")
    w(training, "train_step", "training.step")
    w(training, "_sample_noise", "training.sample")
    w(training, "_sample_conditions", "training.sample")
    w(training, "generator_forward", "training.g_forward")
    w(training, "discriminator_forward", "training.d_forward", size=_d_layer0_flops)
    w(training, "approximator_forward", "training.q_forward")
    for loss in ("d_loss", "g_loss", "irgan_regularizer"):
        w(training, loss, "training.loss")
    w(training, "backward", "training.backward")
    w(training, "_apply_grads", "training.update")
    # forward ops of the dense stacks and the condition-injection layer
    w(models, "matmul", "tensor.matmul")
    w(models, "activation", "tensor.activation")
    w(models, "spatial_replicate_concat", "conditioning.fwd", size=_out_bytes)
    w(models, "spatial_bilinear_pool", "conditioning.fwd", size=_out_bytes)
    # Parzen stages
    for owner in (parzen, cli):
        w(owner, "conditional_eval", "parzen.eval", size=lambda a, k, out: a[0].meta["cond_dim"])
    w(parzen, "generate_samples", "parzen.sample")
    w(parzen, "select_sigma", "parzen.select", size=_select_block, peak=True)
    w(parzen, "parzen_log_likelihood", "parzen.score", size=_score_block, peak=True)
    # CLI, dataset loading and checkpoints, as the CLI looks them up
    for cmd in ("do_pretrain_q", "do_train", "do_eval", "do_sample"):
        w(cli, cmd, "cli." + cmd[3:].replace("_", "-"))
    w(cli, "write_manifest", "cli.manifest")
    w(cli, "load_dataset", "data.load")
    w(cli, "save_model", "checkpoint.save", size=lambda a, k, out: os.path.getsize(a[0]))
    w(cli, "load_model", "checkpoint.load")
    tracer.counter(Tensor, "__init__", "tensor.node")
    tracer.counter(RngStream, "__init__", "rng.stream", timed=True)
    return tracer


def _d_layer0_flops(args, kwargs, out):
    x, params = args[0], args[2]
    return 2.0 * x.shape[0] * params.in_dim * params.weights[0].shape[1]


def _out_bytes(args, kwargs, out):
    return out.data.nbytes


def _select_block(args, kwargs, out):
    samples, queries = args[0], args[1]
    return 8.0 * len(queries) * samples.shape[0] * samples.shape[1]


def _score_block(args, kwargs, out):
    samples, queries = args[0], args[1]
    chunk = args[3] if len(args) > 3 else kwargs.get("chunk", 256)
    return 8.0 * min(chunk, len(queries)) * samples.shape[0] * samples.shape[1]


def layer_metrics(tr: Tracer) -> dict:
    """Per-layer numbers from one traced pass (0 where a layer never ran)."""
    scope = tr.scopes()
    own = tr.self_times()
    total, size, calls, peak, largest = {}, {}, {}, {}, {}
    for i, name in enumerate(tr.name):
        key = (name, scope[i])
        total[key] = total.get(key, 0.0) + tr.end[i] - tr.start[i]
        size[key] = size.get(key, 0.0) + tr.size[i]
        calls[key] = calls.get(key, 0) + 1
        peak[name] = max(peak.get(name, 0.0), tr.peak[i])
        largest[name] = max(largest.get(name, 0.0), tr.size[i])
    train, ev = "training.train", "parzen.eval"
    steps = calls.get(("training.step", train), 0)
    conds = size.get((ev, ev), 0.0)

    def per(x, n):
        return x / n if n else 0.0

    def mean_ms(name):
        key = (name, None)
        return per(total.get(key, 0.0) * 1e3, calls.get(key, 0))

    m = {}
    for phase in ("sample", "g_forward", "d_forward", "q_forward", "loss", "backward", "update"):
        m[f"training.phase_ms.{phase}"] = per(total.get((f"training.{phase}", train), 0.0) * 1e3, steps)
    step_self = sum(own[i] for i, n in enumerate(tr.name) if n == "training.step")
    m["training.phase_ms.other"] = per(step_self * 1e3, steps)
    m["tensor.nodes_per_step"] = per(tr.counts.get(("tensor.node", train), 0), steps)
    m["tensor.matmul_ms"] = per(total.get(("tensor.matmul", train), 0.0) * 1e3, steps)
    m["tensor.activation_ms"] = per(total.get(("tensor.activation", train), 0.0) * 1e3, steps)
    m["conditioning.fwd_ms"] = per(total.get(("conditioning.fwd", train), 0.0) * 1e3, steps)
    m["conditioning.out_mb_per_step"] = per(size.get(("conditioning.fwd", train), 0.0) / 1e6, steps)
    m["models.d_layer0_mflop_per_step"] = per(size.get(("training.d_forward", train), 0.0) / 1e6, steps)
    m["rng.streams_per_step"] = per(tr.counts.get(("rng.stream", train), 0), steps)
    m["rng.construct_ms"] = per(tr.count_s.get(("rng.stream", train), 0.0) * 1e3, steps)
    for stage in ("sample", "select", "score"):
        m[f"parzen.stage_ms.{stage}"] = per(total.get((f"parzen.{stage}", ev), 0.0) * 1e3, conds)
    m["parzen.peak_mb.select"] = peak.get("parzen.select", 0.0) / 1e6
    m["parzen.peak_mb.score"] = peak.get("parzen.score", 0.0) / 1e6
    m["parzen.dist_mb"] = max(largest.get("parzen.select", 0.0),
                              largest.get("parzen.score", 0.0)) / 1e6
    m["checkpoint.save_ms"] = mean_ms("checkpoint.save")
    m["checkpoint.load_ms"] = mean_ms("checkpoint.load")
    m["checkpoint.mb_written"] = per(size.get(("checkpoint.save", None), 0.0) / 1e6,
                                     calls.get(("checkpoint.save", None), 0))
    m["data.load_s"] = mean_ms("data.load") / 1e3
    m["cli.manifest_ms"] = mean_ms("cli.manifest")
    return m
