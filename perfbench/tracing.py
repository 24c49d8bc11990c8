"""Spans around dephasekit's public functions, recorded from outside the package.

`installed(tracer)` replaces module attributes (and `SeedLineage.generator`)
with timing wrappers and restores them on exit.  Because the package calls
these functions through module globals, internal calls are caught as well:
bootstrap -> reconstruct -> nnls, fit -> fit (the white-only warm start),
design_power_law -> psd.  Nothing under `src/` is touched.

A span is `[name, start, end, parent, amount]`: `parent` is the index of the
enclosing span (-1 for a root) and `amount` is a layer-specific quantity
(slot updates for `run_experiment`, bytes for `serialize.write_*`).
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import os
import statistics
import time

# (metric name, span name, what is taken from the spans, unit, better)
#   self_s -> summed self time, calls -> span count, amount -> summed amount,
#   rate   -> summed amount / summed inclusive duration.
LAYER_METRICS = [
    ("seeds.generators", "seeds.generator", "calls", "count", "lower"),
    ("seeds.generator_s", "seeds.generator", "self_s", "s", "lower"),
    ("qubit_sim.run_experiment_s", "qubit_sim.run_experiment", "self_s", "s", "lower"),
    ("qubit_sim.slot_updates", "qubit_sim.run_experiment", "amount", "count", "higher"),
    ("qubit_sim.slot_updates_per_s", "qubit_sim.run_experiment", "rate", "1/s", "higher"),
    ("noise_models.design_s", "noise_models.design", "self_s", "s", "lower"),
    ("noise_models.psd_s", "noise_models.psd", "self_s", "s", "lower"),
    ("noise_models.generate_trajectory_calls", "noise_models.generate_trajectory",
     "calls", "count", "lower"),
    ("noise_models.generate_trajectory_s", "noise_models.generate_trajectory",
     "self_s", "s", "lower"),
    ("circuits.emit_calls", "circuits.emit", "calls", "count", "lower"),
    ("circuits.emit_s", "circuits.emit", "self_s", "s", "lower"),
    ("circuits.verify_s", "circuits.verify", "self_s", "s", "lower"),
    ("sequences.filter_function_calls", "sequences.filter_function", "calls", "count", "lower"),
    ("sequences.filter_function_s", "sequences.filter_function", "self_s", "s", "lower"),
    ("qns_recon.reconstruct_calls", "qns_recon.reconstruct", "calls", "count", "lower"),
    ("qns_recon.reconstruct_s", "qns_recon.reconstruct", "self_s", "s", "lower"),
    ("qns_recon.bootstrap_s", "qns_recon.bootstrap", "self_s", "s", "lower"),
    ("qns_recon.nnls_calls", "qns_recon.nnls", "calls", "count", "lower"),
    ("qns_recon.nnls_s", "qns_recon.nnls", "self_s", "s", "lower"),
    ("predictor.fit_calls", "predictor.fit", "calls", "count", "lower"),
    ("predictor.fit_s", "predictor.fit", "self_s", "s", "lower"),
    ("predictor.least_squares_calls", "predictor.least_squares", "calls", "count", "lower"),
    ("predictor.least_squares_s", "predictor.least_squares", "self_s", "s", "lower"),
    ("serialize.read_s", "serialize.read", "self_s", "s", "lower"),
    ("serialize.write_s", "serialize.write", "self_s", "s", "lower"),
    ("serialize.bytes_written", "serialize.write", "amount", "bytes", "lower"),
]


class Tracer:
    """In-memory span recorder for one thread."""

    def __init__(self):
        self.spans: list = []
        self._stack: list = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, 0])
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def close(self, index: int, amount: int = 0) -> None:
        span = self.spans[index]
        span[2] = time.perf_counter()
        span[4] = amount
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        index = self.open(name)
        try:
            yield index
        finally:
            self.close(index)

    def adopt(self, spans: list, parent: int) -> None:
        """Append spans recorded elsewhere (a CLI child) under span `parent`."""
        offset = len(self.spans)
        for name, start, end, p, amount in spans:
            self.spans.append([name, start, end, parent if p < 0 else p + offset, amount])

    def wrap(self, name: str, fn, amount=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.close(index)
                raise
            self.close(index, amount(args, kwargs) if amount else 0)
            return result

        return traced


def _slot_updates_counter(run_experiment):
    signature = inspect.signature(run_experiment)

    def slot_updates(args, kwargs) -> int:
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        mode = bound.arguments["mode"]
        rows = mode.shots if hasattr(mode, "shots") else mode.trajectories
        return sum(rows * seq.n_slots for seq in bound.arguments["sequences"])

    return slot_updates


def _bytes_written(args, kwargs) -> int:
    return os.path.getsize(args[0] if args else kwargs["path"])


def _targets():
    from dephasekit import (
        circuits, noise_models, predictor, qns_recon, qubit_sim, seeds, sequences, serialize,
    )

    targets = [
        (seeds.SeedLineage, "generator", "seeds.generator", None),
        (qubit_sim, "run_experiment", "qubit_sim.run_experiment",
         _slot_updates_counter(qubit_sim.run_experiment)),
        (noise_models, "psd", "noise_models.psd", None),
        (noise_models, "generate_trajectory", "noise_models.generate_trajectory", None),
        (circuits, "emit_circuit", "circuits.emit", None),
        (circuits, "verify_roundtrip", "circuits.verify", None),
        (sequences, "filter_function", "sequences.filter_function", None),
        (qns_recon, "reconstruct_spectrum", "qns_recon.reconstruct", None),
        (qns_recon, "bootstrap_spectrum", "qns_recon.bootstrap", None),
        (qns_recon, "nnls", "qns_recon.nnls", None),
        (predictor, "fit", "predictor.fit", None),
        (predictor, "least_squares", "predictor.least_squares", None),
    ]
    targets += [(noise_models, n, "noise_models.design", None)
                for n in dir(noise_models) if n.startswith("design_")]
    targets += [(serialize, n, "serialize.read", None)
                for n in dir(serialize) if n.startswith("read_")]
    targets += [(serialize, n, "serialize.write", _bytes_written)
                for n in dir(serialize) if n.startswith("write_")]
    return targets


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Route the traced dephasekit functions through `tracer` inside the block."""
    saved = []
    try:
        for owner, attr, name, amount in _targets():
            original = getattr(owner, attr)
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(name, original, amount))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def self_times(spans: list) -> list:
    """Per span: its duration minus the part of it that its children cover."""
    children: dict = {}
    for i, span in enumerate(spans):
        if span[3] >= 0:
            children.setdefault(span[3], []).append(i)
    result = []
    for i, (_, start, end, _, _) in enumerate(spans):
        covered = 0.0
        reach = start
        for c in sorted(children.get(i, ()), key=lambda c: spans[c][1]):
            lo, hi = max(spans[c][1], reach), min(spans[c][2], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        result.append((end - start) - covered)
    return result


def subtree(spans: list, root: int) -> list:
    """Indices of `root` and every span below it (children follow parents)."""
    inside = {root}
    for i in range(root + 1, len(spans)):
        if spans[i][3] in inside:
            inside.add(i)
    return sorted(inside)


def layer_values(spans: list, indices: list, selfs: list) -> dict:
    """The LAYER_METRICS over the spans at `indices`.

    An amount counts only on the outermost of nested same-named spans, so a
    write that delegates to another writer counts its bytes once.
    """
    totals: dict = {}
    for i in indices:
        name, start, end, parent, amount = spans[i]
        t = totals.setdefault(name, {"calls": 0, "self_s": 0.0, "amount": 0, "incl_s": 0.0})
        t["calls"] += 1
        t["self_s"] += selfs[i]
        nested = parent >= 0 and spans[parent][0] == name
        if not nested:
            t["amount"] += amount
            t["incl_s"] += end - start
    values = {}
    for metric, name, kind, _, _ in LAYER_METRICS:
        t = totals.get(name, {"calls": 0, "self_s": 0.0, "amount": 0, "incl_s": 0.0})
        if kind == "rate":
            values[metric] = t["amount"] / t["incl_s"] if t["incl_s"] > 0 else 0.0
        else:
            values[metric] = t[kind]
    return values


def run_layers(spans: list, setup_root: "int | None", iteration_roots: list) -> tuple:
    """Per-layer values of a traced run: traced set-up plus the median iteration.

    Returns (values, counts_repeat), where counts_repeat says whether every
    count metric was identical across the traced iterations.
    """
    selfs = self_times(spans)
    per_iter = [layer_values(spans, subtree(spans, r), selfs) for r in iteration_roots]
    base = (layer_values(spans, subtree(spans, setup_root), selfs)
            if setup_root is not None else None)
    values, repeat = {}, True
    for metric, _, kind, _, _ in LAYER_METRICS:
        samples = [v[metric] for v in per_iter]
        if kind in ("calls", "amount"):
            repeat = repeat and len(set(samples)) == 1
        value = statistics.median(samples) if samples else 0
        if base is not None and kind != "rate":
            value += base[metric]
        values[metric] = value
    return values, repeat
