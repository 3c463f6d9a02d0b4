"""Span recorder for the traced run.

The traced run replaces each layer's public functions, in every kronlab
module namespace that holds them (``cli.mu_exact``,
``greedy_triple.best_pair_approx``, ``oracle.toggle_reduce``, ...), with a
wrapper that records a span: name, start, end, parent span and operation.
Spans stay in memory and are written out when the run ends.  A span's self
time is its duration minus the time its child spans cover; calls outside an
operation are passed through unrecorded.  The untraced run installs nothing.
"""
from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import statistics
import time
from array import array
from collections import Counter, defaultdict

#: The layers, one per module of the package.
LAYERS = ("cli", "oracle", "closed_form", "pair_solver", "greedy_triple", "exact_arith")
#: The oracle calls this thousands of times per operation; a wrapper on it
#: would swamp the measurement, so its time stays in its caller's self time.
UNWRAPPED = frozenset({"exact_arith.nearest_int_distance"})
#: mu_exact timing buckets by the largest frequency: near 100, 300 and 1000.
SIZE_LIMITS = (("ms_n100", 200), ("ms_n300", 600), ("ms_n1000", None))


def _size_bucket(largest: int) -> str:
    for label, limit in SIZE_LIMITS:
        if limit is None or largest < limit:
            return label
    raise AssertionError("unreachable")


def _observe_mu_exact(rec, span, args, result):
    problem = args[0]
    rec.counts["candidates"] += result.candidates_examined
    rec.distinct_inputs.add((rec.ops[span], problem.spectrum, problem.targets))
    ms = (rec.ends[span] - rec.starts[span]) * 1e3
    rec.mu_exact_ms[_size_bucket(max(problem.spectrum))].append(ms)


def _observe_greedy(rec, span, args, cert):
    rec.counts["certified"] += 1
    rec.counts[cert.method] += 1
    rec.counts["negated"] += cert.negated


#: Counters recorded at a layer boundary, from the call's arguments and result.
OBSERVERS = {
    "oracle.mu_exact": _observe_mu_exact,
    "greedy_triple.greedy_en_certificate": _observe_greedy,
}


class SpanRecorder:
    """Spans of one run, column-wise: span i has name names[name_ids[i]],
    times starts[i]..ends[i], parent span parents[i] (-1 for an operation's
    root) and operation ops[i]."""

    def __init__(self):
        self.names: list[str] = ["op"]
        self.name_ids = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self.ops = array("q")
        self.counts: Counter = Counter()
        self.distinct_inputs: set = set()
        self.mu_exact_ms: dict[str, list[float]] = defaultdict(list)
        self._stack: list[int] = []
        self._restore: list[tuple] = []
        self._op = -1

    def __len__(self) -> int:
        return len(self.starts)

    # -- recording -------------------------------------------------------

    def _open(self, name_id: int, parent: int) -> int:
        span = len(self.starts)
        self.name_ids.append(name_id)
        self.parents.append(parent)
        self.ops.append(self._op)
        self.ends.append(0.0)
        self._stack.append(span)
        self.starts.append(time.perf_counter())
        return span

    def _wrap(self, name, fn, observe):
        self.names.append(name)
        name_id = len(self.names) - 1
        stack, ends, clock, open_span = self._stack, self.ends, time.perf_counter, self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            span = open_span(name_id, stack[-1])
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[span] = clock()
                stack.pop()
            if observe is not None:
                observe(self, span, args, result)
            return result

        return traced

    def begin_op(self, op: int) -> None:
        """Open the root span of operation ``op``; layer calls nest under it."""
        self._op = op
        self._open(0, -1)

    def end_op(self) -> None:
        self.ends[self._stack.pop()] = time.perf_counter()

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        """Wrap every public function of every layer in every namespace holding it."""
        modules = [importlib.import_module(f"kronlab.{layer}") for layer in LAYERS]
        wrappers = {}
        for layer, module in zip(LAYERS, modules):
            for attr, fn in vars(module).items():
                name = f"{layer}.{attr}"
                if (attr.startswith("_") or name in UNWRAPPED or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__):
                    continue
                wrappers[fn] = self._wrap(name, fn, OBSERVERS.get(name))
        for module in [importlib.import_module("kronlab")] + modules:
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._restore.append((module, attr, value))
                    setattr(module, attr, wrappers[value])

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._restore):
            setattr(module, attr, value)
        self._restore.clear()

    # -- results ---------------------------------------------------------

    def write(self, path) -> None:
        """Write every span as one JSON line, gzip-compressed."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            for i, (name_id, start, end, parent, op) in enumerate(
                    zip(self.name_ids, self.starts, self.ends, self.parents, self.ops)):
                fh.write(f'{{"id": {i}, "parent": {parent}, "op": {op}, '
                         f'"name": "{self.names[name_id]}", "start": {start!r}, "end": {end!r}}}\n')

    def per_layer(self, ops: int, op_seconds: float, overhead_ratio: float,
                  report_bytes: int) -> dict[str, float]:
        """Per-layer metrics; counts and times are per operation.

        op_seconds is the traced operations' total time, the base of each share.
        """
        covered = [0.0] * len(self)
        for start, end, parent in zip(self.starts, self.ends, self.parents):
            if parent >= 0:
                covered[parent] += end - start
        calls: Counter = Counter()
        total: Counter = Counter()
        self_by_name: Counter = Counter()
        self_by_layer: Counter = Counter()
        for name_id, start, end, own_children in zip(self.name_ids, self.starts, self.ends,
                                                     covered):
            if name_id == 0:
                continue
            name = self.names[name_id]
            calls[name] += 1
            total[name] += end - start
            own = end - start - own_children
            self_by_name[name] += own
            self_by_layer[name.split(".")[0]] += own

        def ratio(num, den):
            return num / den if den else 0.0

        c = self.counts
        mu_calls = calls["oracle.mu_exact"]
        greedy_calls = calls["greedy_triple.greedy_en_certificate"]
        layer_calls = Counter()
        for name, count in calls.items():
            layer_calls[name.split(".")[0]] += count
        metrics = {
            "oracle.mu_exact.calls": mu_calls / ops,
            "oracle.mu_exact.self_s": self_by_name["oracle.mu_exact"] / ops,
            "oracle.mu_exact.candidates": c["candidates"] / ops,
            "oracle.candidates_per_s": ratio(c["candidates"], total["oracle.mu_exact"]),
            "oracle.share": self_by_layer["oracle"] / op_seconds,
        }
        for label, _ in SIZE_LIMITS:
            samples = self.mu_exact_ms.get(label)
            metrics[f"oracle.mu_exact.{label}"] = statistics.median(samples) if samples else 0.0
        metrics.update({
            "oracle.mu_exact.distinct_ratio": ratio(len(self.distinct_inputs), mu_calls),
            "oracle.beta_exact.calls": calls["oracle.beta_exact"] / ops,
            "oracle.beta_exact.s": total["oracle.beta_exact"] / ops,
            "greedy_triple.calls": greedy_calls / ops,
            "greedy_triple.self_s": self_by_layer["greedy_triple"] / ops,
            "greedy_triple.small_lambda": c["small-lambda"] / ops,
            "greedy_triple.greedy_window": c["greedy-window"] / ops,
            "greedy_triple.negated": c["negated"] / ops,
            "greedy_triple.fallbacks": calls["greedy_triple.greedy_bound"] / ops,
            "greedy_triple.certified_ratio": ratio(c["certified"], greedy_calls),
            "pair_solver.calls": layer_calls["pair_solver"] / ops,
            "pair_solver.self_s": self_by_layer["pair_solver"] / ops,
            "closed_form.calls": layer_calls["closed_form"] / ops,
            "closed_form.self_s": self_by_layer["closed_form"] / ops,
            "exact_arith.angular_norm.calls": calls["exact_arith.angular_norm"] / ops,
            "exact_arith.self_s": self_by_layer["exact_arith"] / ops,
            "cli.main.calls": calls["cli.main"] / ops,
            "cli.self_s": self_by_layer["cli"] / ops,
            "cli.share": self_by_layer["cli"] / op_seconds,
            "cli.report_bytes": report_bytes / ops,
            "trace.overhead_ratio": overhead_ratio,
        })
        return metrics
