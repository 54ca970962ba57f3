"""Tracing from outside the program: wrap layer functions where their callers
look them up, record phase spans and hot-call counters, restore on exit.

A function is wrapped at the name each caller resolves at call time, e.g.
`harness.meta_train` (what harness calls) rather than `learners.meta_train`.
Spans are recorded only at phase boundaries (meta-train, conventional, joint,
adaptation, evaluation) under one root span per repetition; hot leaf calls
(`graph.gradients`, `channel.apply_channel_block`, ...) only bump a count and
a total time, so memory stays bounded however many calls a seed makes.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

from metalink import channel, graph, harness, learners, tasks

perf_counter = time.perf_counter

PHASES = {
    "meta_train": (harness, "meta_train"),
    "train_conventional": (harness, "train_conventional"),
    "train_joint": (harness, "train_joint"),
    "maml_adapt": (harness, "maml_adapt"),
    "evaluate_ser": (harness, "evaluate_ser"),
    "evaluate_bler": (harness, "evaluate_bler"),
}

# counter name -> every (module, attribute) through which a caller reaches it
LEAVES = {
    "graph.gradients": ((graph, "gradients"),),
    "autodiff.meta_grad": ((learners, "unrolled_meta_gradient"),),
    "autodiff.eval_with_gradient": ((learners, "eval_with_gradient"), (harness, "eval_with_gradient")),
    "channel.apply_channel_block": ((channel, "apply_channel_block"),),
    "channel.awgn": ((channel, "awgn"),),
    "tasks.pool": ((harness, "demod_task_pool"), (harness, "autoencoder_task_pool")),
    "tasks.generate_autoencoder_batch": (
        (tasks, "generate_autoencoder_batch"),
        (harness, "generate_autoencoder_batch"),
    ),
}

# counters whose every call duration is kept, for percentiles
SAMPLED = ("autodiff.meta_grad", "autodiff.eval_with_gradient")


class Counter:
    __slots__ = ("calls", "seconds", "samples")

    def __init__(self):
        self.calls = 0
        self.seconds = 0.0
        self.samples = []


def percentile(values, q):
    """Nearest-rank percentile; 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    k = max(0, min(len(ordered) - 1, round(q / 100.0 * len(ordered) + 0.5) - 1))
    return ordered[k]


class Tracer:
    """Installs the wrappers on `install()`, removes them on `uninstall()`.

    Between `begin_rep()` and `end_rep()` one repetition is traced; its root span
    opens at `open_root()`.  Spans of all repetitions stay in memory until `write_spans()`.
    """

    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []  # [id, parent, name, start, end, rep, info]
        self.counters = defaultdict(Counter)
        self._stack = []
        self._patches = []
        self._probes = 0
        self.rep = -1
        self._root = None
        self._rep_start = None
        self.retries = 0

    # -- node counting -------------------------------------------------------

    def _probe(self):
        """uid of a fresh node; the probe node itself is subtracted later."""
        self._probes += 1
        return graph.const(0.0).uid, self._probes

    @staticmethod
    def _nodes_between(start, end):
        return end[0] - start[0] - (end[1] - start[1])

    # -- spans ---------------------------------------------------------------

    def _open(self, name, info=None):
        parent = self._stack[-1] if self._stack else None
        span = [len(self.spans), parent, name, perf_counter(), None, self.rep, info or {}]
        self.spans.append(span)
        self._stack.append(span[0])
        return span

    def _close(self, span):
        span[4] = perf_counter()
        self._stack.pop()

    def _phase(self, name, orig):
        def wrapper(*args, **kwargs):
            span = self._open(name)
            before = self._probe()
            calls_before = self.counters["learners.meta_value_grad"].calls
            try:
                return orig(*args, **kwargs)
            finally:
                self._close(span)
                span[6]["nodes"] = self._nodes_between(before, self._probe())
                if name == "meta_train":
                    config = args[1] if len(args) > 1 else kwargs["config"]
                    span[6]["first_order"] = config.first_order
                    span[6]["iters"] = config.outer_iters
                    done = self.counters["learners.meta_value_grad"].calls - calls_before
                    self.retries += max(done - config.outer_iters, 0)
                elif name.startswith("evaluate_"):
                    span[6]["units"] = args[2] if name == "evaluate_ser" else args[3]

        return wrapper

    # -- counters ------------------------------------------------------------

    def _leaf(self, counter, sampled):
        def factory(orig):
            def wrapper(*args, **kwargs):
                t = perf_counter()
                out = orig(*args, **kwargs)
                dt = perf_counter() - t
                counter.calls += 1
                counter.seconds += dt
                if sampled:
                    counter.samples.append(dt)
                return out

            return wrapper

        return factory

    def _guarded_descent(self, orig):
        """Count value_grad calls beyond the planned steps: each is a half-step retry."""

        def wrapper(value_grad, p, eta, n_iters, what):
            calls = [0]

            def counted(params):
                calls[0] += 1
                return value_grad(params)

            try:
                return orig(counted, p, eta, n_iters, what)
            finally:
                self.retries += max(calls[0] - n_iters, 0)

        return wrapper

    # -- install / repetitions -----------------------------------------------

    def _patch(self, module, name, factory):
        orig = getattr(module, name)
        setattr(module, name, factory(orig))
        self._patches.append((module, name, orig))

    def install(self):
        for name, targets in LEAVES.items():
            factory = self._leaf(self.counters[name], name in SAMPLED)
            for module, attr in targets:
                self._patch(module, attr, factory)
        self._patch(learners, "_meta_value_grad", self._leaf(self.counters["learners.meta_value_grad"], False))
        self._patch(learners, "_guarded_descent", self._guarded_descent)
        for name, (module, attr) in PHASES.items():
            self._patch(module, attr, lambda orig, name=name: self._phase(name, orig))

    def uninstall(self):
        while self._patches:
            module, name, orig = self._patches.pop()
            setattr(module, name, orig)

    def __enter__(self):
        self.install()
        self.begin_rep()
        return self

    def __exit__(self, *_exc):
        self.uninstall()

    def open_root(self):
        """Open this repetition's root span; return its start time.

        Called at the first training step (`workloads.on_first_step`), so the
        root's duration is the repetition's wall time.
        """
        self._root = self._open("rep")
        return self._root[3]

    def begin_rep(self):
        self.rep += 1
        for c in self.counters.values():
            c.calls, c.seconds, c.samples = 0, 0.0, []
        self.retries = 0
        self._root = None
        self._stack = []
        self._rep_start = self._probe()

    def end_rep(self, t_end):
        """Close the root span at the repetition's end time; return its metrics."""
        nodes = self._nodes_between(self._rep_start, self._probe())
        if self._root is not None:
            self._root[4] = t_end
            self._stack = []
        return self._rep_metrics(nodes)

    def _rep_metrics(self, nodes):
        spans = [s for s in self.spans if s[5] == self.rep]
        total = defaultdict(float)
        for s in spans:
            total[s[2]] += s[4] - s[3]
        meta = [s for s in spans if s[2] == "meta_train"]
        meta_nodes = sum(s[6]["nodes"] for s in meta)
        so = [s for s in meta if not s[6]["first_order"]]
        fo = [s for s in meta if s[6]["first_order"]]

        def per_iter_ms(group):
            iters = sum(s[6]["iters"] for s in group)
            return 1e3 * sum(s[4] - s[3] for s in group) / iters if iters else 0.0

        c = self.counters
        mg = c["autodiff.meta_grad"]
        ewg = c["autodiff.eval_with_gradient"]
        units = sum(s[6]["units"] for s in spans if s[2].startswith("evaluate_"))
        eval_s = total["evaluate_ser"] + total["evaluate_bler"]
        return {
            "graph.nodes": nodes,
            "graph.gradients_calls": c["graph.gradients"].calls,
            "graph.nodes_per_meta_grad": sum(s[6]["nodes"] for s in so) / mg.calls if mg.calls else 0.0,
            "graph.gradients_s": c["graph.gradients"].seconds,
            "graph.ns_per_node": 1e9 * total["meta_train"] / meta_nodes if meta_nodes else 0.0,
            "autodiff.meta_grad_calls": mg.calls,
            "autodiff.meta_grad_ms_p50": 1e3 * percentile(mg.samples, 50),
            "autodiff.meta_grad_ms_p95": 1e3 * percentile(mg.samples, 95),
            "autodiff.eval_with_gradient_calls": ewg.calls,
            "autodiff.eval_with_gradient_us_p50": 1e6 * percentile(ewg.samples, 50),
            "learners.meta_train_s": total["meta_train"],
            "learners.meta_iter_ms": per_iter_ms(so),
            "learners.meta_iter_ms_fo": per_iter_ms(fo),
            "learners.train_conventional_s": total["train_conventional"],
            "learners.train_joint_s": total["train_joint"],
            "learners.maml_adapt_s": total["maml_adapt"],
            "learners.guard_retries": self.retries,
            "channel.apply_channel_block_calls": c["channel.apply_channel_block"].calls,
            "channel.apply_channel_block_s": c["channel.apply_channel_block"].seconds,
            "channel.awgn_calls": c["channel.awgn"].calls,
            "tasks.pool_s": c["tasks.pool"].seconds,
            "tasks.generate_autoencoder_batch_calls": c["tasks.generate_autoencoder_batch"].calls,
            "tasks.generate_autoencoder_batch_s": c["tasks.generate_autoencoder_batch"].seconds,
            "harness.evaluate_ser_s": total["evaluate_ser"],
            "harness.evaluate_bler_s": total["evaluate_bler"],
            "harness.eval_ms_per_1k_units": 1e6 * eval_s / units if units else 0.0,
        }

    # -- output --------------------------------------------------------------

    def _self_seconds(self):
        """span id -> duration minus the time its child spans cover."""
        closed = [s for s in self.spans if s[4] is not None]
        child = defaultdict(float)
        for s in closed:
            if s[1] is not None:
                child[s[1]] += s[4] - s[3]
        return {s[0]: s[4] - s[3] - child[s[0]] for s in closed}

    def self_times(self, rep):
        """span name -> summed self time within one repetition."""
        own = self._self_seconds()
        out = defaultdict(float)
        for s in self.spans:
            if s[5] == rep and s[0] in own:
                out[s[2]] += own[s[0]]
        return dict(out)

    def write_spans(self, path):
        own = self._self_seconds()
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, name, start, end, rep, info in self.spans:
                if sid in own:
                    record = {
                        "run": self.run_id, "rep": rep, "id": sid, "parent": parent, "name": name,
                        "start": start, "end": end, "self": own[sid], **info,
                    }
                    fh.write(json.dumps(record) + "\n")
