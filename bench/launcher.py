"""Run one pcgeom CLI request with its public functions traced.

Usage: python launcher.py SPANS_FILE [pcgeom arguments ...]

pcgeom is imported from PYTHONPATH (the checkout's ``src``) and left
unedited. After import, every public function found in any loaded
``pcgeom`` namespace is replaced, by object identity, with a wrapper that
records a span, in every namespace that holds it. The identity matters
because ``cli`` and ``reduction`` bind names with ``from .x import y``:
patching only the defining module would miss their calls. The
``CouplingMap.apply`` and ``apply_transpose`` methods are wrapped on the
class. Spans stay in memory and are written to SPANS_FILE at exit.

``summarize`` turns the span files of one pass into per-layer metrics.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from collections import Counter
from math import comb
from time import perf_counter


def _n(args) -> int:
    """Dimension of a call's first argument (a matrix, 2-vector or int)."""
    first = args[0]
    return first if isinstance(first, int) else first.n


# Work counts recorded at the span boundary, keyed by span name; each maps
# (args, result) to a number.
_COUNTS = {
    "pc_core.all_triad_deviations": lambda args, result: comb(_n(args), 3),
    "reduction.reduce_iterative": lambda args, result: len(result.steps) - 1,
    "coupling.build_M": lambda args, result: 8 * comb(_n(args), 3) ** 2,
    "exterior.plucker_residuals": lambda args, result: comb(_n(args), 4),
    "exterior.is_decomposable": lambda args, result: comb(_n(args), 4),
}


class Tracer:
    """In-memory span recorder; one per traced process."""

    def __init__(self) -> None:
        #: [name, start, end, parent index or -1, count or None]
        self.spans: list[list] = []
        self._open: list[int] = []
        self._caches: list = []

    def _wrap(self, name: str, fn):
        count = _COUNTS.get(name)
        cache_info = getattr(fn, "cache_info", None)
        table = 0
        if cache_info is not None:
            self._caches.append(cache_info)
            # Triad and quad tables count the C(n, 3 or 4) rows a miss builds.
            table = 4 if "quad" in name else 3 if "triad" in name else 0
        spans, open_ = self.spans, self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, open_[-1] if open_ else -1, None]
            spans.append(span)
            open_.append(idx)
            misses = cache_info().misses if table else 0
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                open_.pop()
            if count is not None:
                span[4] = count(args, result)
            elif table and cache_info().misses > misses:
                span[4] = comb(_n(args), table)
            return result

        return traced

    def install(self) -> None:
        """Wrap every public pcgeom function in every pcgeom namespace."""
        modules = [m for name, m in sys.modules.items()
                   if name == "pcgeom" or name.startswith("pcgeom.")]
        wrappers = {}
        for module in modules:
            for obj in vars(module).values():
                if id(obj) in wrappers or not _public_function(obj):
                    continue
                short = obj.__module__.rsplit(".", 1)[-1]
                wrappers[id(obj)] = self._wrap(f"{short}.{obj.__name__}", obj)
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if id(obj) in wrappers:
                    setattr(module, attr, wrappers[id(obj)])
        cmap = sys.modules["pcgeom.coupling"].CouplingMap
        for method in ("apply", "apply_transpose"):
            setattr(cmap, method,
                    self._wrap(f"coupling.CouplingMap.{method}",
                               getattr(cmap, method)))

    def dump(self, path: str, import_s: float) -> None:
        """Write the spans and the summed hits and misses of every cached
        indexing table."""
        infos = [info() for info in self._caches]
        with open(path, "w") as fh:
            json.dump({"import_s": import_s, "spans": self.spans,
                       "cache_hits": sum(i.hits for i in infos),
                       "cache_misses": sum(i.misses for i in infos)}, fh)


def _public_function(obj) -> bool:
    is_function = inspect.isfunction(obj) or hasattr(obj, "cache_info")
    return (is_function
            and getattr(obj, "__module__", "").startswith("pcgeom.")
            and not obj.__name__.startswith("_"))


def main(argv: list[str]) -> int:
    spans_path, args = argv[0], argv[1:]
    start = perf_counter()
    import pcgeom.cli

    import_s = perf_counter() - start
    tracer = Tracer()
    tracer.install()
    try:
        code = pcgeom.cli.main(args)
    except SystemExit as exc:  # argparse exits for --version and bad usage
        code = exc.code
    finally:
        tracer.dump(spans_path, import_s)
    return code


# -- per-layer metrics ------------------------------------------------------

#: Per-layer metric names and units, in report order.
LAYER_METRICS = {
    "cli.import_s": "s",
    "cli.self_s": "s",
    "io.read_s": "s",
    "io.write_s": "s",
    "io.bytes_in": "B",
    "io.bytes_out": "B",
    "pc_core.validate_s": "s",
    "pc_core.deviation_s": "s",
    "pc_core.triads_scanned": "count",
    "indexing.build_s": "s",
    "indexing.entries_built": "count",
    "indexing.hit_ratio": "1",
    "reduction.self_s": "s",
    "reduction.steps": "count",
    "reduction.step_s": "s",
    "coupling.apply_s": "s",
    "coupling.apply_calls": "count",
    "coupling.dense_build_s": "s",
    "coupling.eig_s": "s",
    "coupling.dense_mb": "MB",
    "embedding.self_s": "s",
    "embedding.pair_subspace_calls": "count",
    "exterior.self_s": "s",
    "exterior.wedge_calls": "count",
    "exterior.quads": "count",
    "twoform.self_s": "s",
    "trace.overhead_s": "s",
}

_VALIDATE = {"new_additive", "new_multiplicative", "to_additive",
             "to_multiplicative"}
_COUPLING_SELF = {
    "CouplingMap.apply": "coupling.apply_s",
    "CouplingMap.apply_transpose": "coupling.apply_s",
    "coupling_coefficients": "coupling.apply_s",
    "build_M": "coupling.dense_build_s",
    "regularize": "coupling.dense_build_s",
    "diagnose": "coupling.eig_s",
}
_CALL_COUNTS = {
    "coupling.CouplingMap.apply": "coupling.apply_calls",
    "coupling.CouplingMap.apply_transpose": "coupling.apply_calls",
    "embedding.pair_subspace": "embedding.pair_subspace_calls",
    "exterior.wedge": "exterior.wedge_calls",
}
_WORK_COUNTS = {
    "pc_core.all_triad_deviations": "pc_core.triads_scanned",
    "reduction.reduce_iterative": "reduction.steps",
    "exterior.plucker_residuals": "exterior.quads",
    "exterior.is_decomposable": "exterior.quads",
}


def _self_metric(name: str) -> str | None:
    """Which self-time metric a span's self time adds to."""
    layer, fn = name.split(".", 1)
    if layer == "io":
        writes = fn.startswith(("write", "dumps")) or fn.endswith("to_dict")
        return "io.write_s" if writes else "io.read_s"
    if layer == "pc_core":
        return "pc_core.validate_s" if fn in _VALIDATE else "pc_core.deviation_s"
    if layer == "coupling":
        return _COUPLING_SELF.get(fn)
    if layer == "indexing":
        return "indexing.build_s"
    return f"{layer}.self_s"


def summarize(docs: list[dict]) -> dict[str, float]:
    """Per-layer totals over the span files of one pass.

    Self time is a span's duration minus the time covered by its direct
    children; spans of one process nest strictly, so children never
    overlap. ``io.bytes_*`` and ``trace.overhead_s`` are added by the
    harness, which knows the files and both passes.
    """
    total = Counter({name: 0.0 for name in LAYER_METRICS})
    hits = misses = 0
    reduce_s = 0.0
    dense_bytes = 0
    for doc in docs:
        total["cli.import_s"] += doc["import_s"]
        hits += doc["cache_hits"]
        misses += doc["cache_misses"]
        spans = doc["spans"]
        covered = [0.0] * len(spans)
        for _, start, end, parent, _ in spans:
            if parent >= 0:
                covered[parent] += end - start
        for idx, (name, start, end, _, count) in enumerate(spans):
            metric = _self_metric(name)
            if metric is not None:
                total[metric] += end - start - covered[idx]
            if name in _CALL_COUNTS:
                total[_CALL_COUNTS[name]] += 1
            if count is None:
                continue
            if name in _WORK_COUNTS:
                total[_WORK_COUNTS[name]] += count
            elif name == "coupling.build_M":
                dense_bytes = max(dense_bytes, count)
            elif name.startswith("indexing."):
                total["indexing.entries_built"] += count
            if name == "reduction.reduce_iterative":
                reduce_s += end - start
    steps = total["reduction.steps"]
    total["reduction.step_s"] = reduce_s / steps if steps else 0.0
    total["coupling.dense_mb"] = dense_bytes / 2**20
    total["indexing.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    return dict(total)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
