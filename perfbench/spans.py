"""Spans and counters recorded around the public functions of skewfill.

``install`` replaces each traced function under every name the package's
modules resolve it by (``skewfill.harness.multiset_equal`` as well as
``skewfill._engine.multiset_equal``), and ``ShapeContext`` methods on the
class.  Spans (name, start, end, parent) are kept in flat arrays; a
layer's self time is its span durations minus the time its child spans
cover.  Nothing under ``src/`` is edited.
"""

from __future__ import annotations

import sys
import time
from array import array

# span name -> per-layer metric holding its summed self time
SELF_METRICS = {
    "enumeration.catalog": "enumeration.catalog_s",
    "enumeration.moons": "enumeration.moons_s",
    "enumeration.transversals": "enumeration.transversals_s",
    "enumeration.count": "enumeration.count_s",
    "engine.context": "engine.context_s",
    "engine.bounds": "engine.bounds_s",
    "engine.stage": "engine.stage_s",
    "engine.steps_compile": "engine.steps_compile_s",
    "engine.steps_apply": "engine.steps_apply_s",
    "engine.rowsums": "engine.rowsums_s",
    "engine.multiset": "engine.multiset_s",
    "engine.chain_table": "engine.chain_table_s",
    "engine.values": "engine.values_s",
    "shapes.occurrences": "shapes.occurrences_s",
    "shapes.max_rect": "shapes.max_rect_s",
    "fillings.longest_chain": "fillings.longest_chain_s",
    "fillings.avoids": "fillings.avoids_s",
    "structure.ds_free": "structure.ds_free_s",
    "structure.decompose": "structure.decompose_s",
    "structure.sum_perm": "structure.sum_perm_s",
    "bijection.full": "bijection.full_s",
    "harness.verify": "harness.self_s",
    "cli.main": "cli.self_s",
    "cli.parse": "cli.parse_s",
}

COUNT_METRICS = (
    "enumeration.catalog_shapes",
    "enumeration.moons",
    "enumeration.transversals",
    "enumeration.fillings_scanned",
    "engine.occurrences",
    "engine.step_anatomy_calls",
    "engine.cell_labels_calls",
    "engine.step_table_misses",
    "engine.multiset_rows",
    "engine.chain_table_masks",
    "shapes.occurrences_calls",
    "shapes.max_rect_calls",
    "fillings.longest_chain_calls",
    "fillings.avoids_calls",
    "structure.ds_free_calls",
    "bijection.steps",
)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_idx = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self._depth: dict[str, int] = {}
        self.counts: dict[str, float] = {}

    def enter(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_idx.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(idx)
        self._depth[name] = self._depth.get(name, 0) + 1
        self.start.append(time.perf_counter())
        return idx

    def leave(self, idx: int, name: str) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()
        self._depth[name] -= 1

    def inside(self, name: str) -> bool:
        return self._depth.get(name, 0) > 0

    def count(self, key: str, n=1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def save(self, path: str) -> None:
        import numpy as np

        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name_idx, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )

    def metrics(self) -> dict[str, float]:
        """Self time per layer plus the counters, every metric present."""
        import numpy as np

        start = np.frombuffer(self.start, dtype=np.float64)
        dur = np.frombuffer(self.end, dtype=np.float64) - start
        parent = np.frombuffer(self.parent, dtype=np.int64)
        name = np.frombuffer(self.name_idx, dtype=np.int32)
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
        by_name = np.bincount(name, weights=dur - child, minlength=len(self.names))
        out = {metric: 0.0 for metric in SELF_METRICS.values()}
        for nid, span in enumerate(self.names):
            out[SELF_METRICS[span]] += float(by_name[nid])
        for key in COUNT_METRICS:
            out[key] = self.counts.get(key, 0)
        generated = self.counts.get("engine.values_rows", 0)
        out["engine.values_kept_ratio"] = (
            self.counts.get("engine.values_kept", 0) / generated if generated else 0.0
        )
        out["trace.spans"] = len(dur)
        return out


# --- wrapper factories --------------------------------------------------------


def _span(tr: Tracer, name: str, counter=None, amount=None):
    def make(fn):
        def wrapper(*args, **kwargs):
            idx = tr.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tr.leave(idx, name)
            if counter is not None:
                tr.count(counter, 1 if amount is None else amount(args, result))
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    return make


def _timed_next(tr: Tracer, name: str, counter: str, gen):
    """Re-yield a generator's items, timing each next() and not the consumer."""
    while True:
        idx = tr.enter(name)
        try:
            item = next(gen)
        except StopIteration:
            return
        finally:
            tr.leave(idx, name)
        tr.count(counter)
        yield item


def _generator_span(tr: Tracer, name: str, counter: str):
    def make(fn):
        def wrapper(*args, **kwargs):
            return _timed_next(tr, name, counter, fn(*args, **kwargs))

        wrapper.__wrapped__ = fn
        return wrapper

    return make


def _counter(tr: Tracer, key: str, only_inside: str | None = None):
    def make(fn):
        def wrapper(*args, **kwargs):
            if only_inside is None or tr.inside(only_inside):
                tr.count(key)
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    return make


def _targets(tr: Tracer):
    """(module, attribute, wrapper factory) for every traced function."""
    def enum_fillings(fn):
        def wrapper(s, spec, *args, **kwargs):
            gen = fn(s, spec, *args, **kwargs)
            if getattr(spec, "mode", None) != "transversal":
                return gen
            return _timed_next(tr, "enumeration.transversals", "enumeration.transversals", gen)

        wrapper.__wrapped__ = fn
        return wrapper

    def occurrences(fn):
        inner = _span(tr, "shapes.occurrences", "shapes.occurrences_calls")(fn)

        def wrapper(*args, **kwargs):
            result = inner(*args, **kwargs)
            if tr.inside("engine.bounds"):
                tr.count("engine.occurrences", len(result))
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def avoids(fn):
        inner = _span(tr, "fillings.avoids", "fillings.avoids_calls")(fn)

        def wrapper(*args, **kwargs):
            if tr.inside("enumeration.count"):
                tr.count("enumeration.fillings_scanned")
            return inner(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def capped(fn):
        def amount(args, result):
            tr.count("engine.values_rows", len(result))
            return int(result.sum())

        return _span(tr, "engine.values", "engine.values_kept", amount)(fn)

    def rows_of(args, result):
        return len(args[0]) + len(args[1])

    def full_steps(args, result):
        return args[0].shape.size - 1

    def parser(fn):
        inner = _span(tr, "cli.parse")(fn)

        def wrapper(*args, **kwargs):
            p = inner(*args, **kwargs)
            p.parse_args = _span(tr, "cli.parse")(p.parse_args)
            return p

        wrapper.__wrapped__ = fn
        return wrapper

    values = _span(tr, "engine.values")
    return [
        ("skewfill.enumeration", "enum_skew_shapes",
         _generator_span(tr, "enumeration.catalog", "enumeration.catalog_shapes")),
        ("skewfill.enumeration", "enum_moon_polyominoes",
         _generator_span(tr, "enumeration.moons", "enumeration.moons")),
        ("skewfill.enumeration", "enum_fillings", enum_fillings),
        ("skewfill.enumeration", "count_avoiders", _span(tr, "enumeration.count")),
        ("skewfill._engine", "multiset_equal",
         _span(tr, "engine.multiset", "engine.multiset_rows", rows_of)),
        ("skewfill._engine", "support_chain_table",
         _span(tr, "engine.chain_table", "engine.chain_table_masks",
               lambda args, result: len(result))),
        ("skewfill._engine", "value_matrix", values),
        ("skewfill._engine", "line_sums", values),
        ("skewfill._engine", "support_index", values),
        ("skewfill._engine", "sum_capped_mask", capped),
        ("skewfill.bijection", "step_anatomy", _counter(tr, "engine.step_anatomy_calls")),
        ("skewfill.bijection", "cell_labels", _counter(tr, "engine.cell_labels_calls")),
        ("skewfill.bijection", "_forward_support",
         _counter(tr, "engine.step_table_misses", "engine.steps_apply")),
        ("skewfill.bijection", "_backward_support",
         _counter(tr, "engine.step_table_misses", "engine.steps_apply")),
        ("skewfill.bijection", "full_forward", _span(tr, "bijection.full", "bijection.steps",
                                                     full_steps)),
        ("skewfill.bijection", "full_backward", _span(tr, "bijection.full", "bijection.steps",
                                                      full_steps)),
        ("skewfill.shapes", "find_shape_occurrences", occurrences),
        ("skewfill.shapes", "maximal_rectangles",
         _span(tr, "shapes.max_rect", "shapes.max_rect_calls")),
        ("skewfill.fillings", "skew_rectangles",
         _span(tr, "shapes.max_rect", "shapes.max_rect_calls")),
        ("skewfill.fillings", "longest_chain",
         _span(tr, "fillings.longest_chain", "fillings.longest_chain_calls")),
        ("skewfill.fillings", "avoids", avoids),
        ("skewfill.structure", "is_ds_free", _span(tr, "structure.ds_free",
                                                   "structure.ds_free_calls")),
        ("skewfill.structure", "ferrers_decompose", _span(tr, "structure.decompose")),
        ("skewfill.structure", "validate_decomposition", _span(tr, "structure.decompose")),
        ("skewfill.structure", "sum_permutations", _span(tr, "structure.sum_perm")),
        ("skewfill.harness", "verify", _span(tr, "harness.verify")),
        ("skewfill.cli", "main", _span(tr, "cli.main")),
        ("skewfill.cli", "_build_parser", parser),
    ]


def _context_methods(tr: Tracer):
    """ShapeContext methods: (name, wrapper factory)."""
    return [
        ("__init__", _span(tr, "engine.context")),
        ("_bounds", _span(tr, "engine.bounds")),
        ("stage_members", _span(tr, "engine.stage")),
        ("stage_counts", _span(tr, "engine.stage")),
        ("_compiled_steps", _span(tr, "engine.steps_compile")),
        ("apply_step", _span(tr, "engine.steps_apply")),
        ("apply_all", _span(tr, "engine.steps_apply")),
        ("rowsums", _span(tr, "engine.rowsums")),
        ("colsums", _span(tr, "engine.rowsums")),
    ]


def install(tr: Tracer) -> list[str]:
    """Wrap every traced function; return the targets that do not exist."""
    import skewfill._engine
    import skewfill.cli  # noqa: F401  (imported so its names get wrapped)

    modules = [m for n, m in sorted(sys.modules.items())
               if m is not None and (n == "skewfill" or n.startswith("skewfill."))]
    missing = []
    for modname, attr, make in _targets(tr):
        orig = getattr(sys.modules.get(modname), attr, None)
        if orig is None:
            missing.append(f"{modname}.{attr}")
            continue
        wrapper = make(orig)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, key, wrapper)
    cls = getattr(skewfill._engine, "ShapeContext", None)
    for attr, make in _context_methods(tr):
        orig = cls.__dict__.get(attr) if cls is not None else None
        if orig is None:
            missing.append(f"skewfill._engine.ShapeContext.{attr}")
            continue
        setattr(cls, attr, make(orig))
    return missing
