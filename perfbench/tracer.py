"""In-memory span recorder for the traced run, built from the benchmark's own
files: it wraps the package's public functions and methods where their
callers look them up, records one span per call, and derives self times when
the run ends.

A span is (name, parent span, start ns, end ns); every span of a worker
process belongs to that process's single run, which is the identifier they
share.  Spans are kept in one flat int64 array and written out as ``.npz``
after the run.
"""

from __future__ import annotations

import contextlib
import sys
import time
from array import array

class NullTracer:
    """Stand-in for an untraced run: every hook is the identity."""

    def wrap(self, name, fn, measure=None):
        return fn

    def record(self, name, start, end):
        pass

    def span(self, name):
        return contextlib.nullcontext()

    def instrument(self):
        pass

    def instrument_objective(self, obj):
        pass

    def instrument_manifold(self, man):
        pass


class Tracer(NullTracer):
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans = array("q")          # flat: name id, parent, start, end
        self.sizes: dict[str, int] = {}  # per-name sums from ``measure``
        self._stack = [-1]

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def record(self, name: str, start: int, end: int) -> None:
        """Add a span timed by the caller, as a child of the open span."""
        self.spans.extend((self._id(name), self._stack[-1], start, end))

    @contextlib.contextmanager
    def span(self, name):
        spans, stack = self.spans, self._stack
        idx = len(spans) >> 2
        spans.extend((self._id(name), stack[-1], 0, 0))
        stack.append(idx)
        spans[4 * idx + 2] = time.perf_counter_ns()
        try:
            yield
        finally:
            spans[4 * idx + 3] = time.perf_counter_ns()
            stack.pop()

    def wrap(self, name, fn, measure=None):
        """Return ``fn`` recording a span per call; ``measure(args)`` adds a
        size (such as elements touched) to ``sizes[name]``."""
        nid = self._id(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        sizes = self.sizes
        sizes.setdefault(name, 0)

        def traced(*args, **kwargs):
            idx = len(spans) >> 2
            spans.extend((nid, stack[-1], 0, 0))
            stack.append(idx)
            if measure is not None:
                sizes[name] += measure(args)
            spans[4 * idx + 2] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                spans[4 * idx + 3] = clock()
                stack.pop()

        return traced

    # -- where the package looks names up ---------------------------------

    def instrument(self) -> None:
        """Patch the module-level functions and generator methods that the
        package calls internally."""
        from manifold_cd import embeddings, linalg
        from manifold_cd.rng import SplitMix64

        for fname in ("thin_qr", "sym_eig", "thin_svd"):
            fn = getattr(linalg, fname)
            _patch_globals(fn, self.wrap(f"linalg.{fname}", fn))
        _patch_globals(
            linalg.apply_rotation,
            self.wrap("linalg.rotation", linalg.apply_rotation, _rotation_elems))
        for fname, span_name in (("euclid_grad", "embeddings.grad"),
                                 ("loss", "embeddings.loss"),
                                 ("initial_embedding", "embeddings.initial_embedding")):
            fn = getattr(embeddings, fname)
            _patch_globals(fn, self.wrap(span_name, fn))
        SplitMix64.gaussian = self.wrap("rng.gaussian", SplitMix64.gaussian)
        SplitMix64.permutation = self.wrap("rng.permutation", SplitMix64.permutation)

    def instrument_objective(self, obj) -> None:
        obj.value = self.wrap("problems.value", obj.value)
        obj.euclid_grad = self.wrap("problems.grad", obj.euclid_grad)

    def instrument_manifold(self, man) -> None:
        for method, span_name in (
            ("coordinate_derivative_from_carrier", "manifolds.derivative"),
            ("coordinate_retract", "manifolds.retract"),
            ("derivative_carrier", "manifolds.carrier"),
            ("update_carrier", "manifolds.carrier_update"),
        ):
            setattr(man, method, self.wrap(span_name, getattr(man, method)))

    # -- analysis -------------------------------------------------------------

    def table(self):
        import numpy as np

        return np.frombuffer(self.spans, dtype=np.int64).reshape(-1, 4)

    def _times(self):
        """(span table, duration ns, self ns): a span's self time is its
        duration minus the durations of its direct children."""
        import numpy as np

        t = self.table()
        parent, dur = t[:, 1], (t[:, 3] - t[:, 2]).astype(np.float64)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(t))
        return t, dur, dur - child

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive and self seconds, and the median
        and tail duration per call."""
        import numpy as np

        t, dur, self_ns = self._times()
        out = {}
        for nid, name in enumerate(self.names):
            sel = t[:, 0] == nid
            calls = int(sel.sum())
            entry = {"calls": calls,
                     "incl_s": float(dur[sel].sum()) / 1e9,
                     "self_s": float(self_ns[sel].sum()) / 1e9}
            if calls:
                entry["median_ns"] = float(np.median(dur[sel]))
                tail = tail_percentile(calls)
                if tail is not None:
                    entry[f"p{tail:g}_ns"] = float(np.percentile(dur[sel], tail))
            out[name] = entry
        return out

    def breakdown(self, root: str) -> dict[str, float]:
        """Self seconds per layer (the prefix of the span name) over the
        first ``root`` span and everything under it; they sum to the root
        span's duration."""
        import numpy as np

        t, _, self_ns = self._times()
        first = int(np.flatnonzero(t[:, 0] == self._ids[root])[0])
        # spans are stored in call order: the subtree is every later span
        # that started before the root ended
        inside = first + np.flatnonzero(t[first:, 2] < t[first, 3])
        names = t[inside, 0]
        per_name = np.bincount(names, weights=self_ns[inside], minlength=len(self.names))
        layers: dict[str, float] = {}
        for nid in np.unique(names):
            layer = self.names[nid].split(".")[0]
            layers[layer] = layers.get(layer, 0.0) + float(per_name[nid]) / 1e9
        return layers

    def save(self, path: str) -> None:
        import numpy as np

        np.savez(path, spans=self.table(), names=np.array(self.names))


def tail_percentile(n: int) -> float | None:
    """Highest of the usual percentiles with at least ten of ``n`` samples
    beyond it, or None."""
    for q in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if n * (1.0 - q / 100.0) >= 10.0:
            return q
    return None


def _patch_globals(original, replacement) -> None:
    """Rebind every module-level name in the package that refers to
    ``original``, so callers inside the package reach ``replacement``."""
    for mod_name, mod in list(sys.modules.items()):
        if not mod_name.startswith("manifold_cd") or mod is None:
            continue
        for attr, val in list(vars(mod).items()):
            if val is original:
                setattr(mod, attr, replacement)


def _rotation_elems(args) -> int:
    """Elements per touched row (or column) of an ``apply_rotation`` call."""
    x = args[0]
    side = args[4] if len(args) > 4 else "left"
    return x.shape[1] if side == "left" else x.shape[0]
