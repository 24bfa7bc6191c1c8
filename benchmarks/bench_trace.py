"""Span tracer that wraps the package's public functions from outside.

The package has no tracing of its own, so the traced run rebinds each public
function of the traced layers, under every ``varcarleson`` module name that
imports it, to a wrapper that records one span per call: name, start, end,
parent span and item id.  ``packet_hat`` is thus caught both as called from
``wavepacket`` and from ``embedding``.  Spans stay in memory until the run
ends; the per-layer metrics are computed from them and a few counts taken at
the same boundaries.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict

LAYERS = ("core", "fourier", "wavepacket", "embedding", "tfs", "outersize")
METHODS = {
    "tfs": (
        ("TreeDictionary", "build"),
        ("StripDictionary", "build"),
        ("OuterField", "restrict"),
    )
}
# cli functions that the item loops call; their self time is cli time
CLI_FUNCTIONS = ("sweep_ratio", "domination_instance")

# (n x n_freq) phase (complex128) and weight (float64) bytes per dense stage
_DENSE_STAGE_BYTES = 16 + 8


class Tracer:
    """In-memory spans and counts; ``item`` tags the spans of one corpus item."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, item]
        self.item = None
        self.item_walls = {}
        self.counts = defaultdict(float)  # (count name, item) -> total
        self.bump_specs = set()  # (item, BumpSpec) pairs
        self._stack = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        observe = _OBSERVERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.item]
            spans.append(span)
            stack.append(index)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if observe is not None:
                observe(self, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Rebind every public function of the traced layers in all modules."""
        modules = [m for key, m in sys.modules.items() if key.startswith("varcarleson.")]
        wrapped = {}
        for layer in LAYERS:
            module = sys.modules[f"varcarleson.{layer}"]
            for attr in module.__all__:
                fn = getattr(module, attr)
                if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                    wrapped[fn] = self._wrap(f"{layer}.{attr}", fn)
            for cls_name, method in METHODS.get(layer, ()):
                cls = getattr(module, cls_name)
                raw = cls.__dict__[method]
                name = f"{layer}.{cls_name}.{method}"
                if isinstance(raw, classmethod):
                    setattr(cls, method, classmethod(self._wrap(name, raw.__func__)))
                else:
                    setattr(cls, method, self._wrap(name, raw))
        cli = sys.modules["varcarleson.cli"]
        for attr in CLI_FUNCTIONS:
            wrapped[getattr(cli, attr)] = self._wrap(f"cli.{attr}", getattr(cli, attr))
        for module in modules:
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrapped:
                    setattr(module, attr, wrapped[value])

    def write(self, path) -> None:
        """One tab-separated line per span, in call order."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index\tname\tstart\tend\tparent\titem\n")
            for index, (name, start, end, parent, item) in enumerate(self.spans):
                fh.write(f"{index}\t{name}\t{start!r}\t{end!r}\t{parent}\t{item}\n")


def _observe_bumps(tracer, args, kwargs, result):
    tracer.bump_specs.add((tracer.item, args[0] if args else kwargs["spec"]))


def _observe_greedy(tracer, args, kwargs, result):
    tracer.counts["outersize.greedy_cover_profile.picks", tracer.item] += len(result.order)


def _observe_linearized(tracer, args, kwargs, result):
    signal, selection = args[:2]
    stages = selection.levels.shape[1]
    tracer.counts["fourier.linearized_vc.dense_bytes", tracer.item] += (
        stages * signal.n * signal.n * _DENSE_STAGE_BYTES
    )


_OBSERVERS = {
    "wavepacket.build_bumps": _observe_bumps,
    "outersize.greedy_cover_profile": _observe_greedy,
    "fourier.linearized_vc": _observe_linearized,
}

# name -> (kinds), kinds among calls / busy_s / self_s; per timed item
ITEM_SPANS = {
    "core.make_signal": ("calls", "busy_s"),
    "core.norm_eval": ("calls", "busy_s"),
    "fourier.linearized_vc": ("calls", "busy_s"),
    "fourier.carleson_path": ("calls", "busy_s"),
    "fourier.variational_carleson": ("calls", "busy_s", "self_s"),
    "fourier.pointwise_norm_comparison": ("calls", "busy_s", "self_s"),
    "wavepacket.build_bumps": ("calls", "busy_s"),
    "wavepacket.packet_hat": ("calls", "busy_s", "self_s"),
    "embedding.embed_signal": ("calls", "busy_s", "self_s"),
    "embedding.embed_packets": ("calls", "busy_s", "self_s"),
    "embedding.embed_packet_sequence": ("calls", "busy_s", "self_s"),
    "embedding.check_dual_representation": ("calls", "busy_s", "self_s"),
    "embedding.check_domination": ("calls", "busy_s", "self_s"),
    "embedding.analyzing_window": ("calls", "busy_s"),
    "embedding.embed_majorant": ("calls", "busy_s"),
    "tfs.OuterField.restrict": ("calls", "busy_s"),
    "outersize.outer_size": ("calls", "busy_s"),
    "outersize.outer_lp_quasinorm": ("calls", "busy_s"),
    "outersize.greedy_cover_profile": ("calls", "busy_s"),
    "outersize.iterated_quasinorm": ("calls", "busy_s", "self_s"),
    "outersize.size_holder_check": ("calls", "busy_s"),
}
# busy time over the one traced set-up, where these functions run
SETUP_SPANS = ("wavepacket.assemble_m", "tfs.TreeDictionary.build", "tfs.StripDictionary.build")
LAYER_SELF = ("core", "variation", "fourier", "wavepacket", "embedding", "tfs", "outersize", "cli")
_UNITS = {"calls": "count/item", "busy_s": "s/item", "self_s": "s/item"}


def metric_names() -> list:
    """Every per-layer metric the traced run reports, in report order."""
    names = [f"{span}.{kind}" for span, kinds in ITEM_SPANS.items() for kind in kinds]
    names += [f"{span}.busy_s" for span in SETUP_SPANS]
    names += [
        "fourier.linearized_vc.dense_bytes",
        "wavepacket.build_bumps.useful_ratio",
        "outersize.greedy_cover_profile.picks",
        "outersize.strip_evals_per_quasinorm",
    ]
    names += [f"layer.{layer}.self_s" for layer in LAYER_SELF]
    return names + ["trace.span_coverage", "trace.overhead_ratio"]


def _layer_of(name: str) -> str:
    return "variation" if name == "fourier.variational_carleson" else name.split(".", 1)[0]


def per_layer_metrics(tracer: Tracer, items: list) -> tuple:
    """Per-layer metrics over the timed ``items`` plus the span coverage.

    Counts and times are means per item, set-up spans are totals over the
    one set-up; ``trace.overhead_ratio`` is left to the caller.
    """
    timed = set(items)
    count = max(len(items), 1)
    spans = tracer.spans
    child_time = [0.0] * len(spans)
    for name, start, end, parent, item in spans:
        if parent >= 0:
            child_time[parent] += end - start
    calls, busy, self_time = defaultdict(int), defaultdict(float), defaultdict(float)
    layer_self = dict.fromkeys(LAYER_SELF, 0.0)
    setup_busy = defaultdict(float)
    top_level = 0.0
    nested_quasinorm = 0
    for index, (name, start, end, parent, item) in enumerate(spans):
        duration = end - start
        if item == "setup":
            setup_busy[name] += duration
        if item not in timed:
            continue
        calls[name] += 1
        busy[name] += duration
        own = duration - child_time[index]
        self_time[name] += own
        layer_self[_layer_of(name)] += own
        if parent < 0:
            top_level += duration
        if name == "outersize.outer_lp_quasinorm" and _has_ancestor(
            spans, parent, "outersize.iterated_quasinorm"
        ):
            nested_quasinorm += 1
    walls = sum(tracer.item_walls[i] for i in items)
    layer_self["cli"] += walls - top_level  # loop code between top-level spans

    values = {}
    for span, kinds in ITEM_SPANS.items():
        table = {"calls": calls, "busy_s": busy, "self_s": self_time}
        for kind in kinds:
            values[f"{span}.{kind}"] = (table[kind][span] / count, _UNITS[kind])
    for span in SETUP_SPANS:
        values[f"{span}.busy_s"] = (setup_busy[span], "s")
    dense = sum(tracer.counts["fourier.linearized_vc.dense_bytes", i] for i in items)
    values["fourier.linearized_vc.dense_bytes"] = (dense / count, "B_computed/item")
    bump_calls = calls["wavepacket.build_bumps"]
    distinct = {spec for item, spec in tracer.bump_specs if item in timed}
    values["wavepacket.build_bumps.useful_ratio"] = (
        len(distinct) / bump_calls if bump_calls else 0.0,
        "ratio",
    )
    picks = sum(tracer.counts["outersize.greedy_cover_profile.picks", i] for i in items)
    values["outersize.greedy_cover_profile.picks"] = (picks / count, "count/item")
    iterated = calls["outersize.iterated_quasinorm"]
    values["outersize.strip_evals_per_quasinorm"] = (
        nested_quasinorm / iterated if iterated else 0.0,
        "ratio",
    )
    for layer in LAYER_SELF:
        values[f"layer.{layer}.self_s"] = (layer_self[layer] / count, "s/item")
    coverage = top_level / walls if walls > 0.0 else 0.0
    values["trace.span_coverage"] = (coverage, "ratio")
    return values, coverage


def _has_ancestor(spans: list, index: int, name: str) -> bool:
    while index >= 0:
        if spans[index][0] == name:
            return True
        index = spans[index][3]
    return False
