"""Per-layer spans around calbounds, installed from outside the package.

Each public function of each module in ``LAYERS`` is replaced by a wrapper
that records calls, total time and self time (total minus the time of
spans it caused). Modules import each other's functions with
``from .x import f``, so a wrapper must replace the name in every
calbounds namespace that holds the original, not only in the defining
module. Spans are aggregated per name in memory and read out at the end of
the run. Counts (rows, bytes, items, pairs) are computed from the wrapped
calls' arguments and results.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import warnings
from collections import Counter
from time import perf_counter

LAYERS = (
    "data", "binning", "metrics", "bounds", "models",
    "mi", "recalibration", "experiments", "cli", "rng",
)

# Names outside a module's public functions that carry a layer metric.
PRIVATE = {"mi": ("_cell_statistics",)}
METHODS = (
    ("data", "ScoredDataset", "__init__", "data.ScoredDataset"),
    ("data", "Supersample", "__post_init__", "data.Supersample"),
    ("data", "RunRecord", "save", "data.RunRecord.save"),
)

# Early-return warnings of ksg_mixed_mi: the call skipped the neighbour search.
_KSG_DEGENERATE = ("all labels are singletons", "fewer than 2 distinct labels")


def _size(x) -> int:
    shape = getattr(x, "shape", None)
    if shape is not None:
        return int(functools.reduce(lambda a, b: a * b, shape, 1))
    return len(x) if hasattr(x, "__len__") else 1


def _count_load_scores(counts, result, args):
    counts["data.load_scores.rows"] += len(result)
    counts["data.load_scores.bytes"] += os.path.getsize(args["path"])


def _count_assign(counts, result, args):
    counts["binning.assign.items"] += _size(args["score"])


def _count_umb_scheme(counts, result, args):
    counts["binning.umb_scheme.collapsed"] += int(result.collapsed)


def _count_train_logistic(counts, result, args):
    train = args["train"]
    points = _size(train[0]) if isinstance(train, tuple) and len(train) == 2 else len(train)
    counts["models.train_logistic.point_epochs"] += points * args["cfg"].epochs


def _count_ksg(counts, result, args):
    counts["mi.ksg_mixed_mi.pairs"] += len(args["values"])


AFTER = {
    "data.load_scores": _count_load_scores,
    "binning.assign": _count_assign,
    "binning.umb_scheme": _count_umb_scheme,
    "models.train_logistic": _count_train_logistic,
    "mi.ksg_mixed_mi": _count_ksg,
}
COUNTS = (
    "data.load_scores.rows", "data.load_scores.bytes", "binning.assign.items",
    "binning.umb_scheme.collapsed", "models.train_logistic.point_epochs",
    "mi.ksg_mixed_mi.pairs", "mi.ksg_mixed_mi.useful",
)


class Tracer:
    """In-memory span aggregation: name -> [calls, total seconds, self seconds]."""

    def __init__(self) -> None:
        self.spans: dict[str, list] = {}
        self.counts: Counter = Counter()
        self._children: list[float] = []  # child time of each open span

    def wrap(self, name: str, fn):
        self.spans.setdefault(name, [0, 0.0, 0.0])
        after = AFTER.get(name)
        signature = inspect.signature(fn) if after is not None else None
        if name == "mi.ksg_mixed_mi":
            fn = self._capture_ksg_warnings(fn)

        @functools.wraps(fn)
        def span(*args, **kwargs):
            self._children.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                child = self._children.pop()
                if self._children:
                    self._children[-1] += elapsed
                entry = self.spans[name]
                entry[0] += 1
                entry[1] += elapsed
                entry[2] += elapsed - child
            if after is not None:
                after(self.counts, result, signature.bind(*args, **kwargs).arguments)
            return result

        return span

    def _capture_ksg_warnings(self, fn):
        """Count calls that ran the neighbour search; re-emit what was caught."""

        @functools.wraps(fn)
        def capture(*args, **kwargs):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                result = fn(*args, **kwargs)
            messages = [str(w.message) for w in caught]
            if not any(m.startswith(_KSG_DEGENERATE) for m in messages):
                self.counts["mi.ksg_mixed_mi.useful"] += 1
            for w in caught:
                warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)
            return result

        return capture

    def install(self) -> None:
        """Wrap every layer's functions in every loaded calbounds namespace."""
        namespaces = [m for n, m in sys.modules.items() if n == "calbounds" or n.startswith("calbounds.")]
        for layer in LAYERS:
            module = sys.modules[f"calbounds.{layer}"]
            names = [
                n for n, f in vars(module).items()
                if inspect.isfunction(f) and f.__module__ == module.__name__ and not n.startswith("_")
            ]
            for fname in names + list(PRIVATE.get(layer, ())):
                original = getattr(module, fname)
                wrapper = self.wrap(f"{layer}.{fname}", original)
                for ns in namespaces:
                    for attr, value in list(vars(ns).items()):
                        if value is original:
                            setattr(ns, attr, wrapper)
        for layer, cls_name, method, name in METHODS:
            cls = getattr(sys.modules[f"calbounds.{layer}"], cls_name)
            setattr(cls, method, self.wrap(name, getattr(cls, method)))

    def metrics(self, wall_s: float) -> dict:
        """Every per-layer value this tracer can give, zeros included.

        ``wall_s`` is the traced time the shares are taken of.
        """
        out: dict[str, float] = {}
        for name, (calls, _, self_s) in self.spans.items():
            out[f"{name}.calls"] = calls
            out[f"{name}.self_s"] = self_s
        for layer in LAYERS:
            entries = [v for k, v in self.spans.items() if k.startswith(layer + ".")]
            self_s = sum(e[2] for e in entries)
            out[f"{layer}.calls"] = sum(e[0] for e in entries)
            out[f"{layer}.self_s"] = self_s
            out[f"{layer}.share"] = self_s / wall_s if wall_s > 0 else 0.0
        for name in COUNTS:
            out[name] = self.counts[name]
        ksg_calls = self.spans.get("mi.ksg_mixed_mi", [0])[0]
        out["mi.ksg_mixed_mi.useful_ratio"] = (
            self.counts["mi.ksg_mixed_mi.useful"] / ksg_calls if ksg_calls else 0.0
        )
        out["mi.cells"] = self.spans.get("mi._cell_statistics", [0])[0]
        return out
